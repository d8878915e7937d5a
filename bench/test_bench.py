"""Self-tests of the benchmark at tiny sizes: ``python3 -m pytest bench -q``."""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAMED = {
    "align": {"records_per_s"},
    "eval": {"items_per_s"},
    "synth": {"cells_per_s", "resume_cells_per_s"},
    "merge": {"ties_mb_per_s", "linear_merge_mb_per_s", "ckpt_load_mb_per_s", "ckpt_save_mb_per_s"},
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    out = bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny"
    )
    assert out.returncode == 0, out.stderr
    *_, detail_line, result_line = out.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    detail = json.loads(detail_line)
    assert NAMED[workload] <= set(detail["named"])
    assert detail["named"]["failed_ratio"]["value"] == 0.0
    assert all(detail["named"][n]["value"] > 0 for n in NAMED[workload])
    env = detail["env"]
    assert env["seed"] == 3 and env["blas_threads"] == 1 and env["nproc"] >= 1
    assert detail["digests"]


def corrupt_align(monkeypatch, modules):
    margins = iter([1.0, 0.0])
    monkeypatch.setattr(modules["align_trainer"], "mean_margin", lambda *a: next(margins))


def corrupt_eval(monkeypatch, modules):
    monkeypatch.setattr(
        modules["agent_pipeline"], "option_distribution_from_scores", lambda s: [0.5] * len(s)
    )


def corrupt_synth(monkeypatch, modules):
    data_synth = modules["data_synth"]
    load = data_synth.load_synth_records
    monkeypatch.setattr(
        data_synth,
        "load_synth_records",
        lambda path: [dataclasses.replace(r, final=r.final + "!") for r in load(path)],
    )


def corrupt_merge(monkeypatch, modules):
    tensor_store = modules["tensor_store"]
    save = tensor_store.save_checkpoint

    def save_flipped(ckpt, path):
        if Path(path).name.startswith("out_"):
            spec = next(iter(ckpt.specs()))
            ckpt = tensor_store.Checkpoint(
                [tensor_store.TensorSpec(spec.name, spec.shape, spec.data + 1.0)]
                + [s for s in ckpt.specs() if s.name != spec.name],
                ckpt.metadata,
            )
        save(ckpt, path)

    monkeypatch.setattr(tensor_store, "save_checkpoint", save_flipped)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_fails_the_run(workload, monkeypatch):
    run.import_palette()
    from palette import agent_pipeline, align_trainer, data_synth, tensor_store

    modules = {
        "agent_pipeline": agent_pipeline,
        "align_trainer": align_trainer,
        "data_synth": data_synth,
        "tensor_store": tensor_store,
    }
    globals()[f"corrupt_{workload}"](monkeypatch, modules)
    args = argparse.Namespace(workload=workload, seed=5, seconds=0.0, trace=0, tiny=True)
    _, result = run.run(args)
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(
        "--workload", "align", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_self_time_subtracts_the_union_of_children():
    def span(i, start, end, parent=None):
        s = tracing.Span(i, f"s{i}", start, parent, 0)
        s.end = end
        return s

    # Two overlapping children cover [1, 5] of the parent's [0, 10].
    spans = [span(1, 0.0, 10.0), span(2, 1.0, 4.0, 1), span(3, 2.0, 5.0, 1), span(4, 3.0, 3.5, 2)]
    self_s = tracing.self_times(spans)
    assert self_s[1] == pytest.approx(6.0)
    assert self_s[2] == pytest.approx(2.5)
    assert self_s[3] == pytest.approx(3.0)
