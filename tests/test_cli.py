import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import palette
from palette import cli
from palette.cli import main
from palette.common import CONTINENTS
from palette.tensor_store import load_checkpoint, save_checkpoint

from helpers import ReplyServer, chat_body, tiny_model, toy_preference_dataset
from palette import agent_pipeline, gate_router
from palette.align_trainer import PreferenceRecord, TrainConfig, save_records_jsonl, train
from palette.gate_router import init_gate, save_gate


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "model.st"
    save_checkpoint(tiny_model(), path)
    return path


def run_cli(*argv):
    return main(list(argv))


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    assert "palette" in capsys.readouterr().out


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--version")
    assert exc.value.code == 0
    assert "palette 0.1.0" in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_required_flag_names_it(capsys):
    assert run_cli("merge", "--method", "task") == 1
    err = capsys.readouterr().err
    assert "--base" in err


def test_runtime_failure_is_structured_json(tmp_path, capsys):
    rc = run_cli(
        "merge", "--method", "task", "--base", str(tmp_path / "missing.st"),
        "--expert", f"a={tmp_path / 'missing.st'}", "-o", str(tmp_path / "out.st"),
    )
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "io_failure"
    assert "message" in err and "context" in err


@pytest.mark.parametrize("argv", [
    ("align", "--model", "m.st", "--data", "d.jsonl", "-o", "o.st", "--true-odds", "--raw-sums"),
    ("align", "--model", "m.st", "--data", "d.jsonl", "-o", "o.st", "--bogus"),
    ("eval", "--country", "", "--items", "i.jsonl", "--meta-backend", "mock", "--transcript", "t.json", "-o", "o"),
    ("merge", "--method", "stock", "--base", "b.st", "--expert", "a=b.st", "--density", "0.5", "-o", "o.st"),
    ("gate", "route", "--model", "m.st", "--gate", "g.st", "--prompt", "hi", "--temperature", "0"),
], ids=["argparse", "unrecognized", "post-parse", "check-mode", "nested"])
def test_usage_error_shows_the_usage_of_the_refusing_subcommand(capsys, argv):
    assert run_cli(*argv) == 1  # each refusal comes before any file is read
    command = " ".join(argv[:2] if argv[0] == "gate" else argv[:1])
    assert capsys.readouterr().err.splitlines()[1].startswith(f"usage: palette {command} [-h] ")


def test_no_partial_output_on_failure(tmp_path, capsys, model_path):
    out = tmp_path / "out.st"
    rc = run_cli(
        "merge", "--method", "moerges", "--base", str(model_path),
        "--expert", f"x={model_path}", "--gate", "0.9,0.9",
        "-o", str(out),
    )
    assert rc == 2
    assert not out.exists()


def test_merge_names_the_expert_that_fails_to_load(tmp_path, model_path, capsys):
    cut = tmp_path / "cut.st"
    cut.write_bytes(model_path.read_bytes()[:20])
    rc = run_cli("merge", "--method", "stock", "--base", str(model_path), "--expert", f"Africa={model_path}",
                 "--expert", f"Asia={cut}", "-o", str(tmp_path / "out.st"))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "malformed_header"
    assert err["context"] == {"path": str(cut)}
    assert err["message"].startswith(f"{cut}: declared header length ")


WRONG_KIND = {  # a model where a gate belongs or a gate where a model belongs: (argv, the file named, code, message)
    "align --model": (("align", "--model", "{gate}", "--data", "{pairs}", "-o", "{out}"),
                      "gate", "bad_config", "checkpoint has no 'config' metadata entry"),
    "gate init --model": (("gate", "init", "--model", "{gate}", "-o", "{out}"),
                          "gate", "bad_config", "checkpoint has no 'config' metadata entry"),
    "eval --expert": (("eval", "--country", "NZL", "--items", "{items}", "--meta-backend", "local", "--model", "{model}",
                       "--expert", "Africa={gate}", "--no-moerges", "-o", "{out}"),
                      "gate", "bad_config", "checkpoint has no 'config' metadata entry"),
    "gate route --gate": (("gate", "route", "--model", "{model}", "--gate", "{model}", "--prompt", "hi"),
                          "model", "dimension_mismatch", "gate checkpoint must contain a tensor named 'W_g'"),
    "merge --expert": (("merge", "--method", "stock", "--base", "{model}", "--expert", "Africa={model}",
                        "--expert", "Asia={gate}", "-o", "{out}"),
                       "gate", "schema_mismatch", "base vs expert[1] have different tensor names"),
}


@pytest.mark.parametrize("argv, named, code, message", WRONG_KIND.values(), ids=WRONG_KIND.keys())
def test_a_checkpoint_of_the_wrong_kind_names_its_file(tmp_path, model_path, capsys, argv, named, code, message):
    files = {"model": model_path, "gate": tmp_path / "gate.st", "pairs": tmp_path / "pairs.jsonl",
             "items": tmp_path / "qa.jsonl", "out": tmp_path / "out"}
    save_gate(init_gate(load_checkpoint(model_path)), files["gate"])
    save_records_jsonl(toy_preference_dataset(n_queries=1), files["pairs"])
    files["items"].write_text(json.dumps({"question": "q", "options": ["a", "b"], "gold": [0.7, 0.3],
                                          "country": "NZL"}) + "\n")
    assert run_cli(*(arg.format(**files) for arg in argv)) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["message"]) == (code, f"{files[named]}: {message}")
    assert err["context"]["path"] == str(files[named])
    assert not files["out"].exists()


@pytest.mark.parametrize("argv, message", [
    (("synth", "run", "--queries", "{missing}", "--backend", "mock", "--transcript", "{missing}", "--out", "{out}",
      "--max-rounds", "0"), "max_rounds must be >= 1"),
    (("merge", "--method", "moerges", "--gate", "0.5,x", "--base", "{missing}", "--expert", "a={missing}",
      "-o", "{out}"), "--gate must be comma-separated numbers, got '0.5,x'"),
    (("merge", "--method", "task", "--base", "{missing}", "--expert", "a", "-o", "{out}"),
     "--expert must look like LABEL=PATH, got 'a'"),
], ids=["synth-max-rounds", "moerges-gate-not-numbers", "merge-expert-form"])
def test_flags_are_checked_before_any_file_is_read(tmp_path, capsys, argv, message):
    files = {"missing": tmp_path / "missing", "out": tmp_path / "out"}
    assert run_cli(*(arg.format(**files) for arg in argv)) == 1
    assert capsys.readouterr().err.splitlines()[0] == f"usage error: {message}"
    assert not files["out"].exists()


def test_model_init_and_merge_round_trip(tmp_path, capsys):
    base = tmp_path / "base.st"
    assert run_cli("model", "init", "--d-model", "16", "--n-layers", "1",
                   "--n-heads", "2", "--max-seq", "64", "--seed", "3", "-o", str(base)) == 0
    again = tmp_path / "again.st"
    assert run_cli("model", "init", "--d-model", "16", "--n-layers", "1",
                   "--n-heads", "2", "--max-seq", "64", "--seed", "3", "-o", str(again)) == 0
    assert base.read_bytes() == again.read_bytes()  # seeded byte determinism
    expert = tmp_path / "expert.st"
    assert run_cli("model", "init", "--d-model", "16", "--n-layers", "1",
                   "--n-heads", "2", "--max-seq", "64", "--seed", "4", "-o", str(expert)) == 0

    out1, out2 = tmp_path / "m1.st", tmp_path / "m2.st"
    args = ("merge", "--method", "task", "--base", str(base),
            "--expert", f"e={expert}", "--coeff", "0.5")
    assert run_cli(*args, "-o", str(out1)) == 0
    assert run_cli(*args, "-o", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()  # deterministic output


def test_merge_moerges_writes_gate_metadata(tmp_path, model_path):
    out = tmp_path / "fused.st"
    experts = []
    for i in range(2):
        p = tmp_path / f"e{i}.st"
        save_checkpoint(tiny_model(seed=50 + i), p)
        experts += ["--expert", f"e{i}={p}"]
    rc = run_cli("merge", "--method", "moerges", "--base", str(model_path),
                 *experts, "--gate", "0.25,0.75", "-o", str(out))
    assert rc == 0
    assert load_checkpoint(out).metadata["gate"] == "0.25,0.75"


def test_merge_dispatch_and_label_guard(tmp_path, model_path, capsys):
    expert_path, out = tmp_path / "expert.st", tmp_path / "out.st"
    expert = tiny_model(seed=60)
    save_checkpoint(expert, expert_path)
    assert run_cli("merge", "--method", "task", "--base", str(model_path),
                   "--expert", f"a={expert_path}", "--coeff", "1.0", "-o", str(out)) == 0
    name = expert.names[0]
    assert abs(load_checkpoint(out)[name].data - expert[name].data).max() <= 1e-7
    assert run_cli("merge", "--method", "task", "--base", str(model_path),
                   "--expert", f"a={expert_path}", "--expert", f"a={model_path}", "-o", str(out)) == 2
    assert json.loads(capsys.readouterr().err)["code"] == "schema_mismatch"


@pytest.mark.parametrize("method, code, message", [
    ("ties", "bad_density", "ties merge requires a density in (0, 1]"),
    ("moerges", "gate_dimension_mismatch", "moerges merge requires a gate vector"),
], ids=["ties", "moerges"])
def test_merge_without_its_parameter_names_it(tmp_path, capsys, method, code, message):
    out, missing = tmp_path / "out.st", tmp_path / "missing.st"  # refused before any checkpoint is read
    assert run_cli("merge", "--method", method, "--base", str(missing),
                   "--expert", f"a={missing}", "--expert", f"b={missing}", "-o", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["message"], err["context"]) == (code, message, {})
    assert not out.exists()


@pytest.mark.parametrize("flags, experts, code, message", [
    (("--method", "ties", "--density", "2"), 1, "bad_density", "density must be in (0, 1], got 2.0"),
    (("--method", "ties", "--density", "0.5", "--scale", "nan"), 1, "schema_mismatch", "scale must be finite"),
    (("--method", "task", "--coeff", "0.5", "--coeff", "0.5"), 1, "schema_mismatch", "2 coefficients for 1 experts"),
    (("--method", "task", "--coeff", "nan"), 1, "schema_mismatch", "coefficients must be finite"),
    (("--method", "moerges", "--gate", "0.5,0.6"), 1, "gate_dimension_mismatch", "gate has 2 entries for 1 experts"),
    (("--method", "moerges", "--gate", "0.5,0.6"), 2, "unnormalized_gate", "gate sums to 1.1, expected 1 within 1e-06"),
    (("--method", "stock",), 1, "too_few_experts", "model stock needs >= 2 experts, got 1"),
], ids=["ties-density", "ties-scale", "task-coeff-count", "task-coeff-nan", "moerges-gate-count", "moerges-gate-sum",
        "stock-one-expert"])
def test_merge_checks_its_values_before_it_reads_a_checkpoint(tmp_path, capsys, flags, experts, code, message):
    out, missing = tmp_path / "out.st", tmp_path / "missing.st"
    labels = [f"--expert=e{i}={missing}" for i in range(experts)]
    assert run_cli("merge", *flags, "--base", str(missing), *labels, "-o", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["message"], err["context"]) == (code, message, {})
    assert not out.exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_merge_ties_rejects_a_non_finite_scale(tmp_path, model_path, capsys, scale):
    out = tmp_path / "out.st"
    assert run_cli("merge", "--method", "ties", "--density", "0.5", "--scale", scale,
                   "--base", str(model_path), "--expert", f"a={model_path}", "-o", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["message"]) == ("schema_mismatch", "scale must be finite")
    assert not out.exists()


def test_gate_init_and_route(tmp_path, model_path, capsys):
    gate_path = tmp_path / "gate.st"
    assert run_cli("gate", "init", "--model", str(model_path), "-o", str(gate_path)) == 0
    capsys.readouterr()
    assert run_cli("gate", "route", "--model", str(model_path),
                   "--gate", str(gate_path), "--prompt", "hello world") == 0
    out = capsys.readouterr().out.strip()
    weights = json.loads(out)
    assert set(weights) == set(CONTINENTS)
    assert abs(sum(weights.values()) - 1.0) < 1e-6
    assert run_cli("gate", "init", "--model", str(model_path), "--raw", "-o", str(tmp_path / "raw.st")) == 1
    assert "unrecognized arguments: --raw" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gate route", "eval"])
def test_a_gate_for_a_model_of_another_width_names_both_files(tmp_path, model_path, capsys, monkeypatch, command):
    wide, gate = tmp_path / "wide.st", tmp_path / "gate.st"
    save_checkpoint(tiny_model(d_model=32, n_heads=4), wide)
    save_gate(init_gate(load_checkpoint(wide)), gate)
    items, out = tmp_path / "qa.jsonl", tmp_path / "out.json"
    items.write_text(json.dumps({"question": "q", "options": ["a", "b"], "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    experts = [f"--expert={c}={model_path}" for c in CONTINENTS]
    argv = {
        "gate route": ("gate", "route", "--model", str(model_path), "--gate", str(gate), "--prompt", "hi"),
        "eval": ("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "local", "--model",
                 str(model_path), *experts, "--gate", str(gate), "-o", str(out)),
    }[command]
    for module in (agent_pipeline, gate_router):
        monkeypatch.setattr(module, "route_prompt", lambda *a: pytest.fail("routed before the check"))
    monkeypatch.setattr(agent_pipeline, "draft", lambda *a: pytest.fail("drafted before the check"))
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "dimension_mismatch"
    assert err["message"] == f"{gate}: the gate routes d_model 32, but the model {model_path} has d_model 16"
    assert err["context"] == {"path": str(gate), "model": str(model_path)}
    assert not out.exists()


def test_gate_init_with_prompts_file(tmp_path, model_path, capsys):
    prompts = {c: f"prompt about {c}" for c in CONTINENTS}
    pfile = tmp_path / "prompts.json"
    pfile.write_text(json.dumps(prompts))
    assert run_cli("gate", "init", "--model", str(model_path),
                   "--prompts", str(pfile), "-o", str(tmp_path / "g.st")) == 0
    # Five equal columns route every prompt uniformly: gate route prints one weight per continent.
    pfile.write_text(json.dumps(["one prompt"] * len(CONTINENTS)))
    assert run_cli("gate", "init", "--model", str(model_path), "--prompts", str(pfile), "-o", str(tmp_path / "u.st")) == 0
    capsys.readouterr()
    assert run_cli("gate", "route", "--model", str(model_path), "--gate", str(tmp_path / "u.st"), "--prompt", "hi") == 0
    assert capsys.readouterr().out == (
        '{"Africa": 0.2, "America": 0.2, "Asia": 0.2, "Europe": 0.2, "Oceania": 0.2}\n'
    )


def test_gate_init_cuts_long_prompts_to_their_head(tmp_path, model_path):
    # route_prompt encodes an over-long text by its head; so does gate init.
    long_prompts = {c: f"prompt about {c} " + "x" * 290 for c in CONTINENTS}
    head_prompts = {c: p[:158] for c, p in long_prompts.items()}  # BOS, EOS and 158 bytes fill max_seq 160
    gates = []
    for name, prompts in (("long", long_prompts), ("head", head_prompts)):
        pfile, out = tmp_path / f"{name}.json", tmp_path / f"{name}.st"
        pfile.write_text(json.dumps(prompts))
        assert run_cli("gate", "init", "--model", str(model_path), "--prompts", str(pfile), "-o", str(out)) == 0
        gates.append(out.read_bytes())
    assert gates[0] == gates[1]


@pytest.mark.parametrize("content, code, extra", [
    (None, "io_failure", {}),
    ('{"Africa": "a", ', "bad_input", {}),
    (b'{"Africa": "caf\xe9"}', "bad_input", {}),
    ("[1, 2, 3, 4, 5]", "bad_input", {"continent": CONTINENTS[0]}),
    ('["a", "b", "c"]', "bad_input", {}),
    (json.dumps({c: "p" for c in CONTINENTS[1:]}), "bad_input", {"continent": CONTINENTS[0]}),
], ids=["missing", "malformed", "not_utf8", "ints", "three_prompts", "missing_continent"])
def test_gate_init_bad_prompts_file_names_it(tmp_path, model_path, capsys, content, code, extra):
    pfile, out = tmp_path / "prompts.json", tmp_path / "g.st"
    if isinstance(content, bytes):
        pfile.write_bytes(content)
    elif content is not None:
        pfile.write_text(content)
    assert run_cli("gate", "init", "--model", str(model_path), "--prompts", str(pfile), "-o", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == code
    assert err["context"] == {"path": str(pfile), **extra}
    assert str(pfile) in err["message"]
    assert not out.exists()


def test_align_runs_and_writes_report(tmp_path, model_path, capsys):
    data = tmp_path / "train.jsonl"
    save_records_jsonl(toy_preference_dataset(n_queries=2), data)
    out = tmp_path / "aligned.st"
    report = tmp_path / "report.json"
    rc = run_cli("align", "--model", str(model_path), "--data", str(data),
                 "--lambda", "0.1", "--lr", "5e-5", "--epochs", "1",
                 "--seed", "7", "-o", str(out), "--report", str(report))
    assert rc == 0
    body = json.loads(report.read_text())
    assert len(body["epoch_total"]) == 1
    assert out.exists()


@pytest.mark.parametrize("flag, field", [("--true-odds", {"score": "odds"}), ("--raw-sums", {"score": "sum"})])
def test_align_flag_sets_its_train_config_field(tmp_path, model_path, flag, field):
    dataset = toy_preference_dataset(n_queries=1)
    data, report = tmp_path / "train.jsonl", tmp_path / "report.json"
    save_records_jsonl(dataset, data)
    assert run_cli("align", "--model", str(model_path), "--data", str(data), "--epochs", "1", flag,
                   "-o", str(tmp_path / "out.st"), "--report", str(report)) == 0
    fingerprints = [train(load_checkpoint(model_path), dataset, TrainConfig(epochs=1, **kw))[1].config_fingerprint
                    for kw in (field, {})]
    assert json.loads(report.read_text())["config_fingerprint"] == fingerprints[0] != fingerprints[1]


def test_align_continent_filter(tmp_path, model_path, capsys):
    data = tmp_path / "train.jsonl"
    save_records_jsonl(toy_preference_dataset(n_queries=2), data)
    out = tmp_path / "asia.st"
    rc = run_cli("align", "--model", str(model_path), "--data", str(data),
                 "--continent", "Asia", "--epochs", "1", "-o", str(out))
    assert rc == 0
    assert "trained 2 records" in capsys.readouterr().out


def test_align_too_long_names_the_record_in_the_whole_data_set(tmp_path, model_path, capsys):
    records = [r for r in toy_preference_dataset(n_queries=3) if r.continent == "Asia"]
    europe = next(r for r in toy_preference_dataset(n_queries=1) if r.continent == "Europe")
    records.append(PreferenceRecord(europe.query, "x" * 200, europe.rejected, "Europe"))
    data = tmp_path / "train.jsonl"
    save_records_jsonl(records, data)
    out = tmp_path / "out.st"
    for continent in (("--continent", "Europe"), ()):
        assert run_cli("align", "--model", str(model_path), "--data", str(data),
                       *continent, "--epochs", "1", "-o", str(out)) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["code"] == "too_long"
        assert err["context"] == {"record": 3, "field": "preferred"}
        assert not out.exists()


def test_align_continent_filter_matching_nothing_names_it(tmp_path, model_path, capsys):
    data = tmp_path / "train.jsonl"
    save_records_jsonl(toy_preference_dataset(n_queries=2), data)
    out = tmp_path / "atlantis.st"
    rc = run_cli("align", "--model", str(model_path), "--data", str(data),
                 "--continent", "Atlantis", "--epochs", "1", "-o", str(out))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "empty_dataset"
    assert err["context"] == {"path": str(data), "continent": "Atlantis"}
    assert "Atlantis" in err["message"] and str(data) in err["message"]
    assert not out.exists()


def test_eval_mock_end_to_end(tmp_path, capsys):
    items = tmp_path / "qa.jsonl"
    items.write_text(json.dumps({
        "question": "pick one",
        "options": ["a", "b"],
        "selections": {"NZL": [0.7, 0.3]},
        "country": "NZL",
    }) + "\n")
    transcript = tmp_path / "transcript.json"
    transcript.write_text(json.dumps({
        "agents": {c: {"default": f"view-{c}"} for c in CONTINENTS},
        "meta": {"script": ["regulated view", "[0.7, 0.3]"]},
    }))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ("eval", "--country", "NZL", "--items", str(items),
            "--meta-backend", "mock", "--transcript", str(transcript))
    assert run_cli(*args, "-o", str(out1)) == 0
    assert run_cli(*args, "-o", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["country"] == "NZL"
    assert report["mean_s_align"] == pytest.approx(1.0)
    assert report["pearson_r"] == pytest.approx(1.0)


@pytest.mark.parametrize("reply", ["[Infinity, 1]", "[1e308, 1e308]"], ids=["infinite", "sum-overflows"])
def test_eval_meta_reply_with_a_non_finite_sum_is_unparseable(tmp_path, capsys, reply):
    items, transcript, out = tmp_path / "qa.jsonl", tmp_path / "transcript.json", tmp_path / "report.json"
    items.write_text(json.dumps({"question": "pick one", "options": ["a", "b"], "gold": [0.7, 0.3],
                                 "country": "NZL"}) + "\n")
    transcript.write_text(json.dumps({"meta": {"default": reply}}))
    assert run_cli("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "mock",
                   "--transcript", str(transcript), "-o", str(out)) == 2
    assert json.loads(capsys.readouterr().err)["code"] == "unparseable_distribution"
    assert not out.exists()


def test_eval_gate_mode_per_country_fuses_once_per_country(tmp_path, model_path, monkeypatch):
    items, gate = tmp_path / "qa.jsonl", tmp_path / "gate.st"
    items.write_text("".join(json.dumps({"question": f"pick {i}", "options": ["a", "b"], "gold": [0.7, 0.3],
                                         "country": "NZL"}) + "\n" for i in range(2)))
    save_gate(init_gate(load_checkpoint(model_path)), gate)
    experts = []
    for i, c in enumerate(CONTINENTS):
        save_checkpoint(tiny_model(seed=100 + i), tmp_path / f"{c}.st")
        experts += ["--expert", f"{c}={tmp_path / f'{c}.st'}"]
    fused, fuse_meta = [], agent_pipeline.fuse_meta
    monkeypatch.setattr(agent_pipeline, "fuse_meta", lambda *a, **kw: fused.append(a[3]) or fuse_meta(*a, **kw))
    fingerprints = {}
    for mode in ("per-request", "per-country"):
        fused.clear()
        out = tmp_path / f"{mode}.json"
        assert run_cli("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "local", "--model",
                       str(model_path), *experts, "--gate", str(gate), "--gate-mode", mode, "--no-draft",
                       "-o", str(out)) == 0
        assert fused == ["NZL"] * (2 if mode == "per-request" else 1)
        fingerprints[mode] = json.loads(out.read_text())["config_fingerprint"]
    assert fingerprints["per-request"] != fingerprints["per-country"]


@pytest.mark.parametrize("command", ["eval", "synth"])
def test_model_name_reaches_the_remote_endpoint(tmp_path, command):
    data, out = tmp_path / "in.jsonl", tmp_path / "out"
    data.write_text(json.dumps({"id": "q0", "query": "q", "question": "q", "options": ["a", "b"],
                                "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    reply = "[0.7, 0.3]" if command == "eval" else "[Approved]"
    with ReplyServer([(200, chat_body(reply))]) as server:
        argv = {
            "eval": ("eval", "--country", "NZL", "--items", str(data), "--meta-backend", "remote", "-o", str(out)),
            "synth": ("synth", "run", "--queries", str(data), "--backend", "remote", "--out", str(out)),
        }[command]
        assert run_cli(*argv, "--url", server.base_url, "--model-name", "toy-7b") == 0
    assert server.requests_seen
    assert {seen["body"]["model"] for seen in server.requests_seen} == {"toy-7b"}


@pytest.mark.parametrize("content, code", [(None, "io_failure"), ("{", "bad_input")], ids=["missing", "malformed"])
def test_bad_transcript_names_it(tmp_path, capsys, content, code):
    items, transcript = tmp_path / "qa.jsonl", tmp_path / "transcript.json"
    items.write_text(json.dumps({"question": "q", "options": ["a", "b"], "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    if content is not None:
        transcript.write_text(content)
    assert run_cli("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "mock",
                   "--transcript", str(transcript), "-o", str(tmp_path / "r.json")) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["context"]) == (code, {"path": str(transcript)})


@pytest.mark.parametrize("command, content, message", [
    pytest.param("eval", [1], "must be a JSON object", id="eval"),
    pytest.param("synth", [1], "must be a JSON object", id="synth"),
    pytest.param("eval", {"agents": [1]}, "'agents' must be an object of objects", id="eval-agents-list"),
    pytest.param("eval", {"agents": {"Asia": "hi"}}, "'agents' must be an object of objects", id="eval-agent-string"),
    pytest.param("eval", {"meta": 5}, "transcript entry 'meta' must be a JSON object", id="eval-meta-int"),
    pytest.param("eval", {"meta": {"default": 5}}, "'default' of transcript entry 'meta' must be a string",
                 id="eval-default-int"),
    pytest.param("eval", {"agents": {"Asia": {"exact": {"q": 1}}}},
                 "'exact' of transcript entry 'Asia' must be an object of strings", id="eval-exact-int"),
    pytest.param("synth", {"script": "abc"}, "'script' of transcript entry 'synth' must be a list of strings",
                 id="synth-script-string"),
    pytest.param("synth", {"script": ["a", 2]}, "'script' of transcript entry 'synth' must be a list of strings",
                 id="synth-script-int"),
    pytest.param("synth", {"echo": "yes"}, "'echo' of transcript entry 'synth' must be a boolean",
                 id="synth-echo-string"),
])
def test_transcript_that_is_not_an_object_is_bad_input(tmp_path, capsys, command, content, message):
    items, transcript = tmp_path / "in.jsonl", tmp_path / "transcript.json"
    items.write_text(json.dumps({"id": "q0", "query": "q", "question": "q", "options": ["a", "b"],
                                 "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    transcript.write_text(json.dumps(content))
    out = tmp_path / "out"
    argv = {
        "eval": ("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "mock", "-o", str(out)),
        "synth": ("synth", "run", "--queries", str(items), "--backend", "mock", "--out", str(out)),
    }[command]
    assert run_cli(*argv, "--transcript", str(transcript)) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["context"]) == ("bad_input", {"path": str(transcript)})
    assert str(transcript) in err["message"] and message in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (("align", "--epochs", "0"), "epochs and batch_size must be >= 1"),
    (("align", "--batch-size", "0"), "epochs and batch_size must be >= 1"),
    (("align", "--lr", "-1"), "learning rate must be >= 0"),
    (("align", "--lambda", "-1"), "lambda must be >= 0"),
    (("align", "--lr", "nan"), "learning rate must be >= 0 and finite, got nan"),
    (("align", "--lr", "inf"), "learning rate must be >= 0 and finite, got inf"),
    (("align", "--lambda", "nan"), "lambda must be >= 0 and finite, got nan"),
    (("align", "--lambda", "inf"), "lambda must be >= 0 and finite, got inf"),
    (("align", "--seed", "-1"), "seed must be >= 0, got -1"),
    (("eval", "--country", ""), "--country must be non-empty"),
    (("synth", "--max-rounds", "0"), "max_rounds must be >= 1"),
    (("merge", "--gate", "0.5,x"), "--gate must be comma-separated numbers, got '0.5,x'"),
    (("route", "--temperature", "0"), "--temperature must be > 0, got 0.0"),
    (("route", "--temperature", "-1"), "--temperature must be > 0, got -1.0"),
    (("route", "--temperature", "nan"), "--temperature must be > 0, got nan"),
    (("metrics", "kl", "--p", "[1]", "--q", "[1]"), "p must be a vector with at least 2 entries"),
    (("metrics", "kl", "--p", "[0.5,0.6]", "--q", "[0.5,0.5]"), "p sums to 1.1, expected 1"),
    (("metrics", "salign", "--gen", "nope", "--gold", "[1,0]"), "--gen must be a JSON array of numbers, got 'nope'"),
    (("metrics", "pearson", "--x", "[1,2]", "--y", '{"a":1}'),
     """--y must be a JSON array of numbers, got '{"a":1}'"""),
    (("metrics", "pearson", "--x", "[true,2]", "--y", "[1,2]"), "--x must be a JSON array of numbers, got '[true,2]'"),
    (("metrics", "pearson", "--x", "[NaN,1]", "--y", "[1,2]"), "x contains non-finite entries"),
    (("metrics", "pearson", "--x", "[1,Infinity]", "--y", "[1,2]"), "x contains non-finite entries"),
    (("metrics", "pearson", "--x", "[1,2]", "--y", "[NaN,2]"), "y contains non-finite entries"),
    (("metrics", "pearson", "--x", "[1,2]", "--y", "[1,-Infinity]"), "y contains non-finite entries"),
    (("metrics", "kl", "--p", "[NaN,0.5]", "--q", "[0.5,0.5]"), "p contains non-finite entries"),
    (("metrics", "kl", "--p", "[0.5,0.5]", "--q", "[0.5,Infinity]"), "q contains non-finite entries"),
    (("metrics", "salign", "--gen", "[Infinity,0]", "--gold", "[0.5,0.5]"), "p_gen contains non-finite entries"),
    (("metrics", "salign", "--gen", "[0.5,0.5]", "--gold", "[0.5,NaN]"), "p_gold contains non-finite entries"),
], ids=["epochs", "batch-size", "lr", "lambda", "lr-nan", "lr-inf", "lambda-nan", "lambda-inf", "seed",
        "country-empty", "max-rounds",
        "gate", "temperature-zero", "temperature-negative", "temperature-nan", "kl-one-entry", "kl-sum", "salign-not-json", "pearson-object", "pearson-bool",
        "pearson-x-nan", "pearson-x-infinity", "pearson-y-nan", "pearson-y-infinity",
        "kl-p-nan", "kl-q-infinity", "salign-gen-infinity", "salign-gold-nan"])
def test_out_of_range_numbers_are_usage_errors(tmp_path, model_path, capsys, argv, message):
    data, queries, transcript = tmp_path / "in.jsonl", tmp_path / "q.jsonl", tmp_path / "transcript.json"
    gate = tmp_path / "gate.st"
    save_gate(init_gate(load_checkpoint(model_path)), gate)
    save_records_jsonl(toy_preference_dataset(n_queries=1), data)
    queries.write_text(json.dumps({"id": "q0", "query": "what is fair?"}) + "\n")
    transcript.write_text(json.dumps({"default": "[Approved]"}))
    out = tmp_path / "out"
    command, *numbers = argv
    full = {
        "align": ("align", "--model", str(model_path), "--data", str(data), "-o", str(out)),
        "synth": ("synth", "run", "--queries", str(queries), "--backend", "mock",
                  "--transcript", str(transcript), "--out", str(out)),
        "eval": ("eval", "--items", str(tmp_path / "missing.jsonl"), "--meta-backend", "mock",
                 "--transcript", str(transcript), "-o", str(out)),
        "merge": ("merge", "--method", "moerges", "--base", str(model_path), "--expert", f"a={model_path}",
                  "--expert", f"b={model_path}", "-o", str(out)),
        "route": ("gate", "route", "--model", str(model_path), "--gate", str(gate), "--prompt", "hi"),
        "metrics": ("metrics",),
    }[command]
    assert run_cli(*full, *numbers) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


# Each command with its inputs, up to its mode flag; the cases below add the mode and its flags.
MODE_COMMANDS = {
    "eval": ("eval", "--country", "NZL", "--items", "{items}", "-o", "{out}", "--meta-backend"),
    "synth": ("synth", "run", "--queries", "{items}", "--out", "{out}", "--backend"),
    "merge": ("merge", "--base", "{model}", "--expert", "a={model}", "--expert", "b={model}", "-o", "{out}",
              "--method"),
    "align": ("align", "--model", "{model}", "--data", "{items}", "-o", "{out}"),
    # eval and synth run with an input file that is not there: the usage error comes before any read
    "eval unread": ("eval", "--country", "NZL", "--items", "{missing}", "-o", "{out}", "--meta-backend"),
    "synth unread": ("synth", "run", "--queries", "{missing}", "--out", "{out}", "--backend"),
}
MOCK, REMOTE = ("--transcript", "{transcript}"), ("--url", "http://127.0.0.1:9")  # the port is never contacted
LOCAL = ("--model", "{model}", "--no-moerges")


@pytest.mark.parametrize("command, mode, flags, message", [
    pytest.param("eval", "mock", (*MOCK, "--no-moerges"), "--no-moerges applies only to --meta-backend local",
                 id="eval-mock-no-moerges"),
    pytest.param("eval", "remote", (*REMOTE, "--no-moerges"), "--no-moerges applies only to --meta-backend local",
                 id="eval-remote-no-moerges"),
    pytest.param("eval", "mock", (*MOCK, "--model", "{missing}"), "--model applies only to --meta-backend local",
                 id="eval-mock-model"),
    pytest.param("eval", "mock", (*MOCK, "--expert", "Africa={missing}"),
                 "--expert applies only to --meta-backend local", id="eval-mock-expert"),
    pytest.param("eval", "mock", (*MOCK, "--gate", "{missing}"), "--gate applies only to --meta-backend local",
                 id="eval-mock-gate"),
    pytest.param("eval", "mock", (*MOCK, "--gate-mode", "per-request"),
                 "--gate-mode applies only to --meta-backend local", id="eval-mock-gate-mode"),
    pytest.param("eval", "mock", (*MOCK, "--url", "http://nowhere"), "--url applies only to --meta-backend remote",
                 id="eval-mock-url"),
    pytest.param("eval", "mock", (*MOCK, "--model-name", "default"),
                 "--model-name applies only to --meta-backend remote", id="eval-mock-model-name"),
    pytest.param("eval", "remote", (*REMOTE, *MOCK), "--transcript applies only to --meta-backend mock",
                 id="eval-remote-transcript"),
    pytest.param("eval", "local", (*LOCAL, *REMOTE), "--url applies only to --meta-backend remote",
                 id="eval-local-url"),
    pytest.param("eval", "local", (*LOCAL, "--gate", "{missing}"),
                 "--gate and --gate-mode apply only without --no-moerges", id="eval-no-moerges-gate"),
    pytest.param("eval", "local", (*LOCAL, "--gate-mode", "per-country"),
                 "--gate and --gate-mode apply only without --no-moerges", id="eval-no-moerges-gate-mode"),
    pytest.param("eval", "local", (*LOCAL, "--expert", "Moon={missing}"),
                 "--expert labels must be continents", id="eval-expert-label-before-any-load"),
    pytest.param("eval", "local", ("--no-moerges",), "--model is required with --meta-backend local",
                 id="eval-local-without-model"),
    pytest.param("eval", "remote", (), "--url is required with --meta-backend remote", id="eval-remote-without-url"),
    pytest.param("eval", "mock", (), "--transcript is required with --meta-backend mock",
                 id="eval-mock-without-transcript"),
    pytest.param("eval", "mock", (*MOCK, "--no-draft", "--no-regulate"),
                 "argument --no-regulate: not allowed with argument --no-draft", id="eval-no-draft-no-regulate"),
    pytest.param("align", "--true-odds", ("--raw-sums",), "argument --raw-sums: not allowed with argument --true-odds",
                 id="align-true-odds-raw-sums"),
    pytest.param("eval unread", "mock", (*MOCK, *REMOTE), "--url applies only to --meta-backend remote",
                 id="eval-mock-url-unread-items"),
    pytest.param("eval unread", "local", (*LOCAL, "--expert", "Moon={missing}"), "--expert labels must be continents",
                 id="eval-expert-label-unread-items"),
    pytest.param("eval unread", "local", (*LOCAL, "--gate", "{missing}"),
                 "--gate and --gate-mode apply only without --no-moerges", id="eval-no-moerges-gate-unread-items"),
    pytest.param("eval unread", "local", ("--model", "{model}", "--gate", "{missing}"),
                 "local eval needs --gate and all five --expert", id="eval-gate-without-experts-unread-items"),
    pytest.param("synth unread", "mock", (*MOCK, *REMOTE), "--url applies only to --backend remote",
                 id="synth-mock-url-unread-queries"),
    pytest.param("synth unread", "mock", (), "--transcript is required with --backend mock",
                 id="synth-mock-without-transcript-unread-queries"),
    pytest.param("synth", "mock", (*MOCK, "--url", "http://nowhere"), "--url applies only to --backend remote",
                 id="synth-mock-url"),
    pytest.param("synth", "mock", (*MOCK, "--model-name", "zz"), "--model-name applies only to --backend remote",
                 id="synth-mock-model-name"),
    pytest.param("synth", "remote", (*REMOTE, *MOCK), "--transcript applies only to --backend mock",
                 id="synth-remote-transcript"),
    pytest.param("synth", "remote", (), "--url is required with --backend remote", id="synth-remote-without-url"),
    pytest.param("synth", "mock", (), "--transcript is required with --backend mock",
                 id="synth-mock-without-transcript"),
    pytest.param("merge", "stock", ("--density", "0.3"), "--density applies only to --method ties",
                 id="merge-stock-density"),
    pytest.param("merge", "stock", ("--density", "0"), "--density applies only to --method ties",
                 id="merge-stock-density-zero"),
    pytest.param("merge", "stock", ("--coeff", "5"), "--coeff applies only to --method task", id="merge-stock-coeff"),
    pytest.param("merge", "stock", ("--gate", "1,2"), "--gate applies only to --method moerges",
                 id="merge-stock-gate"),
    pytest.param("merge", "stock", ("--scale", "9"), "--scale applies only to --method ties", id="merge-stock-scale"),
    pytest.param("merge", "task", ("--gate", "zz"), "--gate applies only to --method moerges", id="merge-task-gate"),
    pytest.param("merge", "moerges", ("--gate", "0.5,0.5", "--density", "0.5"),
                 "--density applies only to --method ties", id="merge-moerges-density"),
])
def test_flag_outside_its_mode_or_missing_is_usage_error(tmp_path, model_path, capsys, command, mode, flags,
                                                          message):
    paths = {"items": tmp_path / "in.jsonl", "transcript": tmp_path / "transcript.json",
             "model": model_path, "missing": tmp_path / "missing.st", "out": tmp_path / "out"}
    paths["items"].write_text(json.dumps({"id": "q0", "query": "q", "question": "q", "options": ["a", "b"],
                                          "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    paths["transcript"].write_text(json.dumps({"default": "[Approved]", "meta": {"default": "[0.7, 0.3]"}}))
    argv = [arg.format(**paths) for arg in (*MODE_COMMANDS[command], mode, *flags)]
    assert run_cli(*argv) == 1
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not paths["out"].exists()


def test_synth_run_and_pairs(tmp_path, capsys):
    queries = tmp_path / "q.jsonl"
    queries.write_text(
        json.dumps({"id": "q0", "query": "what is fair?"}) + "\n"
        + json.dumps({"id": "q1", "query": "who leads?"}) + "\n"
    )
    transcript = tmp_path / "synth_mock.json"
    transcript.write_text(json.dumps({"default": "[Approved]"}))
    out_dir = tmp_path / "synth"
    rc = run_cli("synth", "run", "--queries", str(queries), "--backend", "mock",
                 "--transcript", str(transcript), "--max-rounds", "3",
                 "--out", str(out_dir))
    assert rc == 0
    per_continent = sorted(out_dir.glob("records_*.jsonl"))
    assert len(per_continent) == 5
    pairs_file = tmp_path / "pairs.jsonl"
    assert run_cli("synth", "pairs", "--records", str(out_dir),
                   "-o", str(pairs_file)) == 0
    lines = [json.loads(l) for l in pairs_file.read_text().splitlines()]
    assert len(lines) == 10  # 2 queries x 5 continents
    assert all(len(l["rejected"]) == 4 for l in lines)


def test_synth_import_prism(tmp_path, capsys):
    src = tmp_path / "prism.jsonl"
    src.write_text(json.dumps({"id": "u1", "question": "what happens when we die?"}) + "\n")
    out = tmp_path / "queries.jsonl"
    assert run_cli("synth", "import-prism", "--input", str(src), "-o", str(out)) == 0
    rows = [json.loads(l) for l in out.read_text().splitlines()]
    assert rows == [{"id": "u1", "query": "what happens when we die?"}]


def test_metrics_subcommands(capsys):
    assert run_cli("metrics", "kl", "--p", "[1,0]", "--q", "[0.5,0.5]") == 0
    assert json.loads(capsys.readouterr().out)["kl_bits"] == 1.0
    assert run_cli("metrics", "salign", "--gen", "[1,0]", "--gold", "[0.5,0.5]") == 0
    assert json.loads(capsys.readouterr().out)["s_align"] == pytest.approx(0.688722, abs=1e-5)
    assert run_cli("metrics", "pearson", "--x", "[1,2,3]", "--y", "[2,4,7]") == 0
    assert json.loads(capsys.readouterr().out)["pearson_r"] == pytest.approx(0.993399268, abs=1e-8)
    assert run_cli("metrics", "pearson", "--x", "[1,1]", "--y", "[1,2]") == 0
    assert json.loads(capsys.readouterr().out)["pearson_r"] is None
    assert run_cli("metrics", "pearson", "--x", "[1e308,-1e308]", "--y", "[1e308,-1e308]") == 0
    assert capsys.readouterr().out == '{"pearson_r": 1.0}\n'
    for argv, code in [(("--p", "[1,0]", "--q", "[0.5,0.25,0.25]"), "length_mismatch"),
                       (("--p", "[-1,2]", "--q", "[0.5,0.5]"), "negative_entry"),
                       (("--p", "[1,0]", "--q", "[0,1]"), "support_violation")]:
        assert run_cli("metrics", "kl", *argv) == 2
        assert json.loads(capsys.readouterr().err)["code"] == code


def _strict_json(text):
    """``json.loads`` that refuses the ``NaN`` and ``Infinity`` literals, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_every_metrics_subcommand_prints_strict_json(capsys):
    from helpers import MockScorerServer

    with MockScorerServer() as server:
        runs = [
            ("kl", "--p", "[1,0]", "--q", "[0.5,0.5]"),
            ("salign", "--gen", "[1,0]", "--gold", "[0.5,0.5]"),
            ("pearson", "--x", "[1,2,3]", "--y", "[2,4,7]"),
            ("pearson", "--x", "[1,1]", "--y", "[1,2]"),
            ("semantic", "--url", server.base_url, "--gold", "same words", "--llm", "same words"),
        ]
        assert {argv[0] for argv in runs} == set(cli._ARRAY_METRICS) | {"semantic"}
        for argv in runs:
            assert run_cli("metrics", *argv) == 0
            assert len(_strict_json(capsys.readouterr().out)) == 1
    with pytest.raises(ValueError, match="NaN is not JSON"):
        _strict_json('{"pearson_r": NaN}')


def test_metrics_semantic_against_mock(capsys):
    from helpers import MockScorerServer

    with MockScorerServer() as server:
        assert run_cli("metrics", "semantic", "--url", server.base_url,
                       "--gold", "same words", "--llm", "same words") == 0
    assert json.loads(capsys.readouterr().out)["s_semantic"] == 1.0


def test_metrics_semantic_bad_url_is_endpoint_unreachable(capsys):
    assert run_cli("metrics", "semantic", "--url", "not-a-url", "--gold", "a", "--llm", "b") == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["context"]) == ("endpoint_unreachable", {"url": "not-a-url/score"})


def test_float_output_uses_nine_significant_digits(tmp_path, capsys):
    assert run_cli("metrics", "salign", "--gen", "[0.3,0.7]", "--gold", "[0.6,0.4]") == 0
    out = capsys.readouterr().out
    value = out.split(":")[1].strip().rstrip("}")
    assert len(value.replace("0.", "").rstrip("0")) <= 9


READER_COMMANDS = [
    ("eval", "--country", "NZL", "--meta-backend", "mock", "--transcript", "{transcript}", "--items", "{bad}",
     "-o", "{out}"),
    ("align", "--model", "{model}", "--data", "{bad}", "-o", "{out}"),
    ("synth", "run", "--queries", "{bad}", "--backend", "mock", "--transcript", "{transcript}", "--out", "{out}"),
    ("synth", "pairs", "--records", "{bad}", "-o", "{out}"),
    ("synth", "import-prism", "--input", "{bad}", "-o", "{out}"),
]
READER_IDS = ["eval", "align", "synth run", "synth pairs", "synth import-prism"]
# Every reader with a JSONL input, then `synth import-prism` over a CSV file.
INPUT_CASES = [(command, ".jsonl") for command in READER_COMMANDS] + [(READER_COMMANDS[-1], ".csv")]
INPUT_IDS = READER_IDS + ["synth import-prism csv"]


def _run_reader(command, bad, out, model, capsys):
    transcript = out.parent / "reader_transcript.json"  # valid, so that the run fails on `bad` alone
    transcript.write_text(json.dumps({"default": "[Approved]"}))
    argv = [a.format(bad=bad, out=out, model=model, transcript=transcript) for a in command]
    assert run_cli(*argv) == 2
    assert not out.exists()
    return json.loads(capsys.readouterr().err)


@pytest.mark.parametrize("command", READER_COMMANDS, ids=READER_IDS)
def test_malformed_jsonl_exits_bad_input(tmp_path, capsys, model_path, command):
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    bad.write_text('\n{"cut\n')
    err = _run_reader(command, bad, out, model_path, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(bad), "line": 2}


@pytest.mark.parametrize("command, suffix", INPUT_CASES, ids=INPUT_IDS)
def test_invalid_utf8_exits_bad_input(tmp_path, capsys, model_path, command, suffix):
    bad, out = tmp_path / f"bad{suffix}", tmp_path / "out"
    bad.write_bytes(b'\n{"question": "caf\xe9"}\n')
    err = _run_reader(command, bad, out, model_path, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(bad), "line": 2}


@pytest.mark.parametrize("command, suffix", INPUT_CASES, ids=INPUT_IDS)
def test_missing_input_file_exits_io_failure(tmp_path, capsys, model_path, command, suffix):
    missing, out = tmp_path / f"missing{suffix}", tmp_path / "out"
    err = _run_reader(command, missing, out, model_path, capsys)
    assert err["code"] == "io_failure"
    assert err["context"] == {"path": str(missing)}


def test_item_missing_a_key_exits_bad_input(tmp_path, capsys):
    items, out = tmp_path / "items.jsonl", tmp_path / "out"
    items.write_text('{"question": "q", "gold": [1, 1], "country": "NZL"}\n')
    err = _run_reader(READER_COMMANDS[0], items, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(items), "line": 1, "key": "options"}


def test_item_with_one_option_exits_bad_input(tmp_path, capsys):
    items, out = tmp_path / "items.jsonl", tmp_path / "out"
    # A row with one option, then rows whose fields have the wrong JSON type, then one with 27 options.
    rows = [
        ('{"question": "q", "options": ["a"], "gold": [1], "country": "NZL"}', "at least 2 options"),
        ('{"question": "q", "options": 5, "gold": [1, 1], "country": "NZL"}', "must be arrays"),
        ('{"question": "q", "options": ["a", "b"], "gold": 3, "country": "NZL"}', "must be arrays"),
        ('{"question": "q", "options": ["a", "b"], "selections": [1], "country": "NZL"}',
         '"selections" must be an object'),
        ('{"question": "", "options": ["a", "b"], "gold": [1, 1], "country": "NZL"}',
         "question must be a non-empty string"),
        ('{"question": 7, "options": ["a", "b"], "gold": [1, 1], "country": "NZL"}',
         "question must be a non-empty string"),
        ('{"question": "q", "options": [1, 2], "gold": [1, 1], "country": "NZL"}', "options must be strings"),
        ('{"question": "q", "options": ["a", "b"], "gold": [true, false], "country": "NZL"}',
         "the gold for 'NZL' must be numbers"),
        ('{"question": "q", "options": ["a", "b"], "gold": ["0.7", "0.3"], "country": "NZL"}',
         "the gold for 'NZL' must be numbers"),
        (json.dumps({"question": "q", "options": list("abcdefghijklmnopqrstuvwxyz0"), "gold": [1] * 27,
                     "country": "NZL"}), "an opinion item has at most 26 options, got 27"),
    ]
    for row, reason in rows:
        items.write_text(f"\n{row}\n")
        err = _run_reader(READER_COMMANDS[0], items, out, None, capsys)
        assert err["code"] == "bad_input"
        assert err["context"] == {"path": str(items), "line": 2}
        assert err["message"].startswith(f"{items}:2: ")
        assert reason in err["message"]


def test_synth_query_id_given_twice_exits_bad_input(tmp_path, capsys):
    queries, out = tmp_path / "q.jsonl", tmp_path / "out"
    rows = [{"id": "q0", "query": "what should guests bring to a shared meal?"}, {"id": 1, "query": "who leads?"},
            {"id": "q0", "query": "how are elders greeted?"}]
    queries.write_text("".join(json.dumps(row) + "\n" for row in rows))
    err = _run_reader(READER_COMMANDS[2], queries, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(queries), "line": 3}
    assert err["message"] == f"{queries}:3: query id 'q0' repeats line 1"
    queries.write_text(json.dumps({"id": 1, "query": "a"}) + "\n\n" + json.dumps({"id": "1", "query": "b"}) + "\n")
    err = _run_reader(READER_COMMANDS[2], queries, out, None, capsys)
    assert err["message"] == f"{queries}:3: query id '1' repeats line 1"


@pytest.mark.parametrize("query", ["", 7], ids=["empty", "number"])
def test_synth_query_that_is_not_a_non_empty_string_exits_bad_input(tmp_path, capsys, query):
    queries, out = tmp_path / "q.jsonl", tmp_path / "out"
    queries.write_text(json.dumps({"id": "q0", "query": "fine"}) + "\n" + json.dumps({"id": "q1", "query": query}) + "\n")
    err = _run_reader(READER_COMMANDS[2], queries, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(queries), "line": 2}
    assert err["message"] == f'{queries}:2: "query" must be a non-empty string'


def test_csv_field_over_the_size_limit_exits_bad_input(tmp_path, capsys):
    bad, out = tmp_path / "big.csv", tmp_path / "out"
    bad.write_text("id,question\nq0,fine\nq1," + "x" * 200_000 + "\n")
    err = _run_reader(READER_COMMANDS[-1], bad, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(bad), "line": 3}
    assert err["message"].startswith(f"{bad}:3: ")
    assert "field larger than field limit" in err["message"]


def _synth_dir(tmp_path, n_queries):
    queries = tmp_path / "q.jsonl"
    queries.write_text(
        "".join(json.dumps({"id": f"q{i}", "query": f"question {i}"}) + "\n" for i in range(n_queries))
    )
    transcript = tmp_path / "transcript.json"
    transcript.write_text(json.dumps({"default": "[Approved]"}))
    out_dir = tmp_path / "synth"
    argv = ("synth", "run", "--queries", str(queries), "--backend", "mock",
            "--transcript", str(transcript), "--out", str(out_dir))
    assert run_cli(*argv) == 0
    return out_dir, argv


def test_synth_resume_over_torn_step_store_recomputes_the_torn_step(tmp_path):
    out_dir, argv = _synth_dir(tmp_path, 1)
    steps = out_dir / "steps.jsonl"
    text = steps.read_text()
    records = out_dir / "records_Oceania.jsonl"
    record = records.read_text()
    steps.write_text(text[:-10])  # a crash cut the last cell's last step short
    records.unlink()
    assert run_cli(*argv) == 0
    assert steps.read_text() == text and records.read_text() == record


def test_synth_resume_over_a_garbled_complete_line_is_bad_input(tmp_path, capsys):
    out_dir, argv = _synth_dir(tmp_path, 1)
    steps = out_dir / "steps.jsonl"
    text = steps.read_text()
    steps.write_text(text[:-10] + "\n")  # a whole line that does not parse
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(steps), "line": len(text.splitlines())}


def test_synth_record_with_an_extra_key_exits_bad_input(tmp_path, capsys):
    out_dir, _ = _synth_dir(tmp_path, 1)
    records = out_dir / "records_Asia.jsonl"
    row = json.loads(records.read_text())
    records.write_text("\n" + json.dumps({**row, "extra": 1}) + "\n")
    capsys.readouterr()
    err = _run_reader(READER_COMMANDS[3], out_dir, tmp_path / "pairs.jsonl", None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(records), "line": 2}
    assert "'extra'" in err["message"]


def _python(*argv, **env):
    """Run ``python argv`` in a fresh interpreter that imports this palette, with ``env`` added."""
    src = str(Path(palette.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, *argv], env={**os.environ, "PYTHONPATH": path, **env}, check=True, timeout=120)


def test_cli_imports_without_requests():
    _python("-c", "import palette.cli, sys; assert 'requests' not in sys.modules")


# Under the umask in argv[1], an atomic output, new or replacing a 0o644 file, gets the mode of a new open(path, "w").
UMASK_CHECK = """
import os, stat, sys
from palette.common import atomic_write_text
os.umask(int(sys.argv[1], 8))
out = sys.argv[2]
open(out + "/plain", "w").close()
open(out + "/old", "w").close()
os.chmod(out + "/old", 0o644)
for name in ("new", "old"):
    atomic_write_text(f"{out}/{name}", "x")
modes = {name: stat.S_IMODE(os.stat(f"{out}/{name}").st_mode) for name in ("plain", "new", "old")}
assert modes["new"] == modes["old"] == modes["plain"] == 0o666 & ~int(sys.argv[1], 8), modes
"""


@pytest.mark.parametrize("umask", ["022", "077"])
def test_atomic_outputs_get_the_mode_of_a_new_file(tmp_path, umask):
    _python("-c", UMASK_CHECK, umask, str(tmp_path))


# Default-size model, four experts' merges, a local eval and training with each score, written into argv[1].
WALKTHROUGH = """
import sys
from palette.cli import main
from palette.common import CONTINENTS

out, items, data = sys.argv[1:]
def run(*argv):
    assert main(list(argv)) == 0, argv
run("model", "init", "-o", f"{out}/base.st")
experts = []
for seed, c in enumerate(CONTINENTS):
    run("model", "init", "--seed", str(seed), "-o", f"{out}/{c}.st")
    experts += ["--expert", f"{c}={out}/{c}.st"]
for method, extra in [("task", ()), ("ties", ("--density", "0.5")), ("stock", ()),
                      ("moerges", ("--gate", "0.1,0.3,0.2,0.2,0.2"))]:
    run("merge", "--method", method, "--base", f"{out}/base.st", *experts, *extra, "-o", f"{out}/{method}.st")
run("gate", "init", "--model", f"{out}/base.st", "-o", f"{out}/gate.st")
run("eval", "--country", "NZL", "--items", items, "--meta-backend", "local", "--model", f"{out}/base.st",
    *experts, "--gate", f"{out}/gate.st", "-o", f"{out}/report.json")
for score, flags in [("mean", ()), ("odds", ("--true-odds",)), ("sum", ("--raw-sums",))]:
    run("align", "--model", f"{out}/base.st", "--data", data, "--epochs", "1", *flags,
        "-o", f"{out}/align-{score}.st", "--report", f"{out}/align-{score}.json")
"""


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    items = tmp_path / "qa.jsonl"
    items.write_text("".join(json.dumps({"question": f"is rule {i} fair?", "options": ["yes", "no", "unsure"],
                                         "gold": [0.5, 0.3, 0.2], "country": "NZL"}) + "\n" for i in range(2)))
    data = tmp_path / "train.jsonl"
    save_records_jsonl(toy_preference_dataset(n_queries=1), data)
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        out.mkdir()
        _python("-c", WALKTHROUGH, str(out), str(items), str(data), OPENBLAS_NUM_THREADS=threads)
        digests.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()})
    assert sorted(digests[0]) == sorted(["base.st", *(f"{c}.st" for c in CONTINENTS), "task.st", "ties.st",
                                         "stock.st", "moerges.st", "gate.st", "report.json",
                                         *(f"align-{s}.{x}" for s in ("mean", "odds", "sum") for x in ("st", "json"))])
    assert digests[0] == digests[1]


def test_synth_pairs_leaves_no_partial_output(tmp_path, capsys, monkeypatch):
    out_dir, _ = _synth_dir(tmp_path, 2)
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("earlier output\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    dumps, calls = json.dumps, []

    def failing_dumps(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:  # fail after the first record was encoded
            raise OSError("simulated write failure")
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", failing_dumps)
    assert run_cli("synth", "pairs", "--records", str(out_dir), "-o", str(pairs)) == 2
    assert pairs.read_text() == "earlier output\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("records", ["empty_dir", "empty_file"])
def test_synth_pairs_over_no_record_exits_empty_dataset(tmp_path, capsys, records):
    path, out = tmp_path / records, tmp_path / "pairs.jsonl"
    if records == "empty_dir":
        path.mkdir()
        (path / "steps.jsonl").write_text("")  # a job killed before its first record
    else:
        path.write_text("")
    assert run_cli("synth", "pairs", "--records", str(path), "-o", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert (err["code"], err["context"]) == ("empty_dataset", {"path": str(path)})
    assert err["message"] == f"no synthesis record in {path}"
    assert not out.exists()


def test_eval_repeated_expert_label_is_schema_mismatch_before_any_load(tmp_path, model_path, capsys):
    items, out = tmp_path / "qa.jsonl", tmp_path / "report.json"
    items.write_text(json.dumps({"question": "q", "options": ["a", "b"], "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    experts = [arg for c in CONTINENTS for arg in ("--expert", f"{c}={model_path}")]
    rc = run_cli("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "local",
                 "--model", str(model_path), *experts, "--expert", f"Africa={tmp_path / 'missing.st'}",
                 "--gate", str(tmp_path / "missing_gate.st"), "-o", str(out))
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "schema_mismatch"
    assert err["message"] == f"expert labels must be unique, got {[*CONTINENTS, 'Africa']}"
    assert not out.exists()


UNWRITABLE = {
    "model init -o": ("model", "init", "-o", "{bad}"),
    "eval -o": ("eval", "--country", "NZL", "--items", "{items}", "--meta-backend", "mock",
                "--transcript", "{eval_mock}", "-o", "{bad}"),
    "align --report": ("align", "--model", "{model}", "--data", "{pairs}", "--epochs", "1",
                       "-o", "{aligned}", "--report", "{bad}"),
    "synth run --out": ("synth", "run", "--queries", "{queries}", "--backend", "mock",
                        "--transcript", "{synth_mock}", "--out", "{file}"),
    "synth pairs -o": ("synth", "pairs", "--records", "{records}", "-o", "{bad}"),
    "synth import-prism -o": ("synth", "import-prism", "--input", "{queries}", "-o", "{bad}"),
}


@pytest.mark.parametrize("command", UNWRITABLE.values(), ids=UNWRITABLE.keys())
def test_unwritable_output_exits_io_failure_naming_it(tmp_path, model_path, capsys, command):
    records, _ = _synth_dir(tmp_path, 1)
    paths = {
        "bad": tmp_path / "missing_dir" / "out", "file": tmp_path / "a_file", "model": model_path,
        "items": tmp_path / "qa.jsonl", "eval_mock": tmp_path / "eval_mock.json", "pairs": tmp_path / "pairs.jsonl",
        "aligned": tmp_path / "aligned.st", "queries": tmp_path / "q.jsonl",
        "synth_mock": tmp_path / "transcript.json", "records": records,
    }
    paths["file"].write_text("not a directory\n")
    paths["items"].write_text(json.dumps({"question": "q", "options": ["a", "b"], "gold": [0.7, 0.3],
                                          "country": "NZL"}) + "\n")
    paths["eval_mock"].write_text(json.dumps({"meta": {"default": "[0.7, 0.3]"}}))
    save_records_jsonl(toy_preference_dataset(n_queries=1), paths["pairs"])
    capsys.readouterr()
    assert run_cli(*(arg.format(**paths) for arg in command)) == 2
    err = json.loads(capsys.readouterr().err)
    target = paths["file" if "{file}" in command else "bad"]
    assert err["code"] == "io_failure"
    assert err["context"] == {"path": str(target)}
    assert err["message"].startswith(f"cannot write {target}: ")
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("fault", ["enospc", "short_write"])
@pytest.mark.parametrize("name", ["steps.jsonl", "records_Africa.jsonl"])
def test_synth_run_failed_append_exits_io_failure_naming_it(tmp_path, capsys, monkeypatch, name, fault):
    out_dir, argv = _synth_dir(tmp_path, 1)
    shutil.rmtree(out_dir)
    target, fds, real_open, real_write = out_dir / name, set(), os.open, os.write

    def tracking_open(path, flags, *args, **kwargs):
        fd = real_open(path, flags, *args, **kwargs)
        if Path(path) == target:
            fds.add(fd)
        return fd

    def failing_write(fd, data):
        if fd not in fds:
            return real_write(fd, data)
        if fault == "short_write":
            return real_write(fd, data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "open", tracking_open)
    monkeypatch.setattr(os, "write", failing_write)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "io_failure"
    assert err["context"] == {"path": str(target)}
    assert err["message"].startswith(f"cannot write {target}: ")
    monkeypatch.undo()
    assert run_cli(*argv) == 0  # a half-written row is a torn tail that the resume drops


def test_synth_run_has_no_local_backend(tmp_path, model_path, capsys):
    assert run_cli("synth", "run", "--queries", str(tmp_path / "q.jsonl"), "--backend", "local",
                   "--model", str(model_path), "--out", str(tmp_path / "out")) == 1
    assert "invalid choice: 'local'" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, ""], ids=["null", "empty"])
def test_synth_chat_reply_that_is_null_or_empty_is_not_stored(tmp_path, capsys, content):
    queries, out = tmp_path / "q.jsonl", tmp_path / "synth"
    queries.write_text(json.dumps({"id": "q0", "query": "what is fair?"}) + "\n")
    # The first continent's draft is stored; its feedback step gets the bad reply.
    replies = [(200, chat_body("a draft")), (200, chat_body(content))]
    with ReplyServer(replies) as server:
        assert run_cli("synth", "run", "--queries", str(queries), "--backend", "remote",
                       "--url", server.base_url, "--out", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "backend_failure"
    if content is None:
        assert err["context"] == {"label": "synth"} and "malformed chat response" in err["message"]
    else:
        assert err["context"] == {"label": "synth", "query_id": "q0", "continent": "Africa", "step": "feedback"}
    rows = [json.loads(line) for line in (out / "steps.jsonl").read_text().splitlines()]
    assert [(row["step"], row["output"]) for row in rows] == [("response", "a draft")]
    transcript = tmp_path / "transcript.json"  # a rerun asks again, and the job finishes
    transcript.write_text(json.dumps({"default": "[Approved]"}))
    assert run_cli("synth", "run", "--queries", str(queries), "--backend", "mock",
                   "--transcript", str(transcript), "--out", str(out)) == 0
    assert len((out / "records_Africa.jsonl").read_text().splitlines()) == 1


def test_eval_remote_chat_reply_that_is_null_is_backend_failure(tmp_path, capsys):
    items, out = tmp_path / "qa.jsonl", tmp_path / "report.json"
    items.write_text(json.dumps({"question": "q", "options": ["a", "b"], "gold": [0.7, 0.3], "country": "NZL"}) + "\n")
    with ReplyServer([(200, chat_body(None))]) as server:
        assert run_cli("eval", "--country", "NZL", "--items", str(items), "--meta-backend", "remote",
                       "--url", server.base_url, "--no-draft", "-o", str(out)) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "backend_failure"
    assert err["context"] == {"label": "meta", "qid": "q0000"}
    assert err["message"] == "malformed chat response: content is NoneType, not a string"
    assert not out.exists()


@pytest.mark.parametrize("field, value, kind", [("final", 5, "int"), ("rounds_used", True, "bool"),
                                                ("rounds_used", 1.0, "float"), ("approved", 1, "int")])
def test_synth_record_with_a_wrong_typed_field_exits_bad_input(tmp_path, capsys, field, value, kind):
    out_dir, _ = _synth_dir(tmp_path, 1)
    records = out_dir / "records_Asia.jsonl"
    row = json.loads(records.read_text())
    records.write_text("\n" + json.dumps({**row, field: value}) + "\n")
    capsys.readouterr()
    err = _run_reader(READER_COMMANDS[3], out_dir, tmp_path / "pairs.jsonl", None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(records), "line": 2}
    assert err["message"].endswith(f"'{field}' must be {type(row[field]).__name__}, got {kind}")


def test_import_prism_query_that_is_not_a_string_exits_bad_input(tmp_path, capsys):
    src, out = tmp_path / "prism.jsonl", tmp_path / "queries.jsonl"
    src.write_text(json.dumps({"question": "fine"}) + "\n" + json.dumps({"id": "u1", "question": ["a"]}) + "\n")
    err = _run_reader(READER_COMMANDS[-1], src, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(src), "line": 2}
    assert err["message"] == f"{src}:2: the query field must be a string, got list"


@pytest.mark.parametrize("name, text, line, qid, first", [
    ("prism.csv", "question_id,question\n7,a?\n8,b?\n7,c?\n", 4, "7", 2),
    ("prism.jsonl", '{"question": "a?"}\n{"id": "q00000", "question": "b?"}\n', 2, "q00000", 1),
], ids=["csv", "jsonl-default-id"])
def test_import_prism_repeated_query_id_exits_bad_input(tmp_path, capsys, name, text, line, qid, first):
    # The JSONL row without an id takes the default id of its line, q00000.
    src, out = tmp_path / name, tmp_path / "queries.jsonl"
    src.write_text(text)
    err = _run_reader(READER_COMMANDS[-1], src, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(src), "line": line}
    assert err["message"] == f"{src}:{line}: query id {qid!r} repeats line {first}"


@pytest.mark.parametrize("gold, reason", [([0.5, -0.5], "negative entries"), ([0, 0], "no positive mass"),
                                          ([1e308, 1e308], "not a finite number")],
                         ids=["negative", "all-zero", "sum-overflows"])
def test_gold_vector_that_is_not_a_distribution_names_its_line(tmp_path, capsys, gold, reason):
    items, out = tmp_path / "items.jsonl", tmp_path / "out"
    items.write_text("\n" + json.dumps({"question": "q", "options": ["a", "b"], "gold": gold, "country": "NZL"}) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning would print on stderr
        err = _run_reader(READER_COMMANDS[0], items, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(items), "line": 2}
    assert err["message"].startswith(f"{items}:2: ") and reason in err["message"]
