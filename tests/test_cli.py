import json

import pytest

from palette.cli import main
from palette.common import CONTINENTS
from palette.tensor_store import load_checkpoint, save_checkpoint

from helpers import tiny_model, toy_preference_dataset
from palette.align_trainer import save_records_jsonl


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


def test_no_partial_output_on_failure(tmp_path, capsys, model_path):
    out = tmp_path / "out.st"
    rc = run_cli(
        "merge", "--method", "moerges", "--base", str(model_path),
        "--expert", f"x={model_path}", "--gate", "0.9,0.9",
        "-o", str(out),
    )
    assert rc == 2
    assert not out.exists()


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


def test_gate_init_with_prompts_file(tmp_path, model_path):
    prompts = {c: f"prompt about {c}" for c in CONTINENTS}
    pfile = tmp_path / "prompts.json"
    pfile.write_text(json.dumps(prompts))
    assert run_cli("gate", "init", "--model", str(model_path),
                   "--prompts", str(pfile), "-o", str(tmp_path / "g.st")) == 0


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


def test_align_continent_filter(tmp_path, model_path, capsys):
    data = tmp_path / "train.jsonl"
    save_records_jsonl(toy_preference_dataset(n_queries=2), data)
    out = tmp_path / "asia.st"
    rc = run_cli("align", "--model", str(model_path), "--data", str(data),
                 "--continent", "Asia", "--epochs", "1", "-o", str(out))
    assert rc == 0
    assert "trained 2 records" in capsys.readouterr().out


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


def test_metrics_semantic_against_mock(capsys):
    from palette.metrics import MockScorerServer

    with MockScorerServer() as server:
        assert run_cli("metrics", "semantic", "--url", server.base_url,
                       "--gold", "same words", "--llm", "same words") == 0
    assert json.loads(capsys.readouterr().out)["s_semantic"] == 1.0


def test_float_output_uses_nine_significant_digits(tmp_path, capsys):
    assert run_cli("metrics", "salign", "--gen", "[0.3,0.7]", "--gold", "[0.6,0.4]") == 0
    out = capsys.readouterr().out
    value = out.split(":")[1].strip().rstrip("}")
    assert len(value.replace("0.", "").rstrip("0")) <= 9


READER_COMMANDS = [
    ("eval", "--country", "NZL", "--meta-backend", "mock", "--items", "{bad}", "-o", "{out}"),
    ("align", "--model", "{model}", "--data", "{bad}", "-o", "{out}"),
    ("synth", "run", "--queries", "{bad}", "--backend", "mock", "--out", "{out}"),
    ("synth", "pairs", "--records", "{bad}", "-o", "{out}"),
    ("synth", "import-prism", "--input", "{bad}", "-o", "{out}"),
]
READER_IDS = ["eval", "align", "synth run", "synth pairs", "synth import-prism"]


def _run_reader(command, bad, out, model, capsys):
    argv = [a.format(bad=bad, out=out, model=model) for a in command]
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


@pytest.mark.parametrize("command", READER_COMMANDS, ids=READER_IDS)
def test_invalid_utf8_exits_bad_input(tmp_path, capsys, model_path, command):
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out"
    bad.write_bytes(b'\n{"question": "caf\xe9"}\n')
    err = _run_reader(command, bad, out, model_path, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(bad), "line": 2}


@pytest.mark.parametrize("command", READER_COMMANDS, ids=READER_IDS)
def test_missing_input_file_exits_io_failure(tmp_path, capsys, model_path, command):
    missing, out = tmp_path / "missing.jsonl", tmp_path / "out"
    err = _run_reader(command, missing, out, model_path, capsys)
    assert err["code"] == "io_failure"
    assert err["context"] == {"path": str(missing)}


def test_item_missing_a_key_exits_bad_input(tmp_path, capsys):
    items, out = tmp_path / "items.jsonl", tmp_path / "out"
    items.write_text('{"question": "q", "gold": [1, 1], "country": "NZL"}\n')
    err = _run_reader(READER_COMMANDS[0], items, out, None, capsys)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(items), "line": 1, "key": "options"}


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


def test_synth_resume_over_torn_step_store_is_bad_input(tmp_path, capsys):
    out_dir, argv = _synth_dir(tmp_path, 1)
    steps = out_dir / "steps.jsonl"
    text = steps.read_text()
    steps.write_text(text[:-10])  # a crash cut the last line
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["code"] == "bad_input"
    assert err["context"] == {"path": str(steps), "line": len(text.splitlines())}


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
