import functools
import json
import os
from pathlib import Path
from types import SimpleNamespace

import pytest

from palette.align_trainer import PreferenceRecord
from palette.backends import RemoteChat, ScriptedMock
from palette.common import CONTINENTS, append_jsonl, iter_jsonl
from palette.data_synth import (
    StepStore,
    SynthConfig,
    SynthRecord,
    build_preference_pairs,
    group_records,
    import_prism,
    load_synth_records,
    run_synthesis,
    self_judge_refine,
    stored_reply,
)
from palette.errors import BackendFailure
from palette import templates
from palette.templates import load_template, render, render_template

from helpers import ReplyServer, appending, chat_body, raises_code

HOFSTEDE = ("PDI", "IDV", "MAS", "UAI", "LTO", "IVR")


def ask_step(mock, tmp_path, step, template, continent, query="q", **fields):
    """One step's reply through a step store, as run_synthesis asks it."""
    with appending() as fds:
        store = StepStore(tmp_path / "steps.jsonl", fds)
        return stored_reply(store, mock, "q0", step, template, continent=continent, query=query, **fields)


def test_step1_mock_passthrough(tmp_path):
    mock = ScriptedMock(default="a continent-aware answer")
    out = ask_step(mock, tmp_path, "response", "synth_response", "Africa", query="what is shared at meals?")
    assert out == "a continent-aware answer"
    prompt = mock.calls[0]
    assert "Africa" in prompt and "what is shared at meals?" in prompt
    assert "{" not in prompt  # no unfilled placeholders


def test_step2_renders_all_hofstede_dimensions(tmp_path):
    mock = ScriptedMock(default="feedback text")
    out = ask_step(mock, tmp_path, "feedback", "synth_feedback", "Oceania",
                   response="a response", other_continents="Africa, America, Asia, Europe")
    assert out == "feedback text"
    prompt = mock.calls[0]
    for acronym in HOFSTEDE:
        assert acronym in prompt
    assert "(Africa, America, Asia, Europe)" in prompt


def test_step3_renders_inputs(tmp_path):
    mock = ScriptedMock(default="revised")
    out = ask_step(mock, tmp_path, "aggregate", "synth_aggregate", "Europe",
                   base_response="base resp", feedback="do better")
    assert out == "revised"
    prompt = mock.calls[0]
    assert "base resp" in prompt and "do better" in prompt and "Europe" in prompt


def test_run_synthesis_sends_each_step_its_rendered_template(tmp_path, caplog):
    # Per cell: three steps, a revision, a verdict with no marker (also a revision), then approval.
    replies = ["a draft", "add a local example", "a merged answer", "[Revise] name the region",
               "a revised answer", "no marker at all", "a second revision", "[Approved]"]
    mock = ScriptedMock(script=[f"{reply} ({k})" for k in range(len(CONTINENTS)) for reply in replies])
    query = "what is shared at meals?"
    with caplog.at_level("WARNING", logger="palette.data_synth"):
        records = run_synthesis(SynthConfig(backend=mock), [{"id": "q0", "query": query}], tmp_path)
    rows = [row for _, row in iter_jsonl(tmp_path / "steps.jsonl")]
    steps = ["response", "feedback", "aggregate", "judge1", "revise1", "judge2", "revise2", "judge3"]
    assert [row["step"] for row in rows] == steps * len(CONTINENTS)
    assert [row["output"] for row in rows] == mock.script
    for k, continent in enumerate(CONTINENTS):
        out = {row["step"]: row["output"] for row in rows[8 * k: 8 * k + 8]}
        others = ", ".join(c for c in CONTINENTS if c != continent)
        cell = {"continent": continent, "query": query}
        prompts = [
            render_template("synth_response", **cell),
            render_template("synth_feedback", **cell, other_continents=others, response=out["response"]),
            render_template("synth_aggregate", **cell, base_response=out["response"], feedback=out["feedback"]),
            render_template("synth_judge", **cell, response=out["aggregate"]),
            render_template("synth_aggregate", **cell, base_response=out["aggregate"],
                            feedback=f"name the region ({k})"),
            render_template("synth_judge", **cell, response=out["revise1"]),
            render_template("synth_aggregate", **cell, base_response=out["revise1"], feedback=out["judge2"]),
            render_template("synth_judge", **cell, response=out["revise2"]),
        ]
        assert mock.calls[8 * k: 8 * k + 8] == prompts
        assert all(acronym in prompts[1] for acronym in HOFSTEDE)
        assert continent in prompts[0] and query in prompts[0]
        assert "{" not in "".join(prompts)  # no unfilled placeholders
        assert records[k].to_dict() == {
            "query_id": "q0", "query": query, "continent": continent, "base_response": out["response"],
            "feedback": out["feedback"], "aggregated": out["aggregate"], "final": out["revise2"],
            "rounds_used": 3, "approved": True,
        }
    assert "(Africa, America, Asia, Europe)" in mock.calls[8 * 4 + 1]  # Oceania's feedback
    assert caplog.messages == [f"ambiguous judge verdict (no marker) for {c} round 2; treating as revise"
                               for c in CONTINENTS]


def judge(mock, tmp_path):
    """self_judge_refine of "resp" through a step store, as run_synthesis calls it."""
    with appending() as fds:
        store = StepStore(tmp_path / "steps.jsonl", fds)
        ask = functools.partial(stored_reply, store, mock, "q", continent="Asia", query="q")
        return self_judge_refine(ask, "resp", 3)


def test_judge_immediate_approval(tmp_path):
    mock = ScriptedMock(default="[Approved]")
    final, rounds, approved = judge(mock, tmp_path)
    assert (final, rounds, approved) == ("resp", 1, True)
    assert len(mock.calls) == 1


def test_judge_perpetual_revise_caps_at_max_rounds(tmp_path):
    mock = ScriptedMock(default="[Revise] not focused enough")
    final, rounds, approved = judge(mock, tmp_path)
    assert rounds == 3 and approved is False
    # 3 judge calls + 3 revision calls
    assert len(mock.calls) == 6


def test_judge_revise_then_approve(tmp_path):
    mock = ScriptedMock(script=["[Revise] tighten the focus", "revised text", "[Approved]"])
    final, rounds, approved = judge(mock, tmp_path)
    assert (final, rounds, approved) == ("revised text", 2, True)
    assert len(mock.calls) == 3


def test_judge_ambiguous_verdict_counts_as_revise(caplog, tmp_path):
    mock = ScriptedMock(script=["no marker at all", "revised once", "[Approved]"])
    with caplog.at_level("WARNING"):
        final, rounds, approved = judge(mock, tmp_path)
    assert (final, rounds, approved) == ("revised once", 2, True)
    assert any("ambiguous" in rec.message for rec in caplog.records)


def test_judge_rounds_bounds():
    # SynthConfig holds the bound; `synth run --max-rounds 0` is a usage error before any read.
    with pytest.raises(ValueError, match="max_rounds must be >= 1"):
        SynthConfig(backend=ScriptedMock(default="[Approved]"), max_rounds=0)


def test_templates_all_render_without_placeholders():
    fields = {
        "continent": "Asia",
        "country": "THA",
        "query": "q",
        "drafts": "d",
        "options": "A. x",
        "other_continents": "a, b, c, d",
        "response": "r",
        "base_response": "b",
        "feedback": "f",
    }
    for name in ("draft", "regulate", "final", "synth_response", "synth_feedback",
                 "synth_aggregate", "synth_judge"):
        text = render(load_template(name), fields)
        assert "{" not in text and "}" not in text


def test_render_missing_placeholder_raises():
    with raises_code("template_error", match="unfilled placeholder 'query'"):
        render_template("synth_response", continent="Asia")


def test_two_renders_read_the_template_file_once(monkeypatch):
    reads, real_files = [], templates.resources.files

    def files(package):
        reads.append(package)
        return real_files(package)

    load_template.cache_clear()
    monkeypatch.setattr(templates, "resources", SimpleNamespace(files=files))
    first = render_template("synth_judge", continent="Asia", query="q", response="r")
    second = render_template("synth_judge", continent="Asia", query="q", response="r")
    assert first == second
    assert reads == ["palette"]


# --- pipeline, resume, pairs ---------------------------------------------------


def make_queries(n):
    return [{"id": f"q{i}", "query": f"question number {i}"} for i in range(n)]


def test_run_synthesis_produces_complete_records(tmp_path):
    # backend approves every judge call, so each cell takes exactly 4 steps
    cfg = SynthConfig(backend=ScriptedMock(default="[Approved]"), max_rounds=2)
    records = run_synthesis(cfg, make_queries(2), tmp_path)
    assert len(records) == 10
    assert all(r.approved and r.rounds_used == 1 for r in records)
    assert all(r.final == r.aggregated for r in records)
    by_cell = {(r.query_id, r.continent) for r in records}
    assert len(by_cell) == 10
    # one JSONL per continent, reloadable from the directory
    files = sorted(tmp_path.glob("records_*.jsonl"))
    assert [f.name for f in files] == [f"records_{c}.jsonl" for c in CONTINENTS]
    reloaded = load_synth_records(tmp_path)
    assert {(r.query_id, r.continent) for r in reloaded} == by_cell


def test_run_synthesis_is_resumable_without_duplicate_calls(tmp_path):
    class Flaky:
        def __init__(self, fail_at):
            self.count = 0
            self.fail_at = fail_at
            self.calls = []

        def complete(self, prompt):
            self.count += 1
            self.calls.append(prompt)
            if self.count == self.fail_at:
                raise BackendFailure("simulated outage", "flaky")
            return f"reply-{self.count}"

        def describe(self):
            return {"kind": "flaky"}

    queries = make_queries(1)
    backend = Flaky(fail_at=8)
    with pytest.raises(BackendFailure):
        run_synthesis(SynthConfig(backend=backend, max_rounds=1), queries, tmp_path)
    first_run_calls = backend.count

    backend.fail_at = -1
    records = run_synthesis(SynthConfig(backend=backend, max_rounds=1), queries, tmp_path)
    assert len(records) == 5
    # replies carry no verdict marker -> every cell: response, feedback,
    # aggregate, judge1, revise1 = 5 calls; one call failed and was retried
    total_needed = 5 * 5
    assert backend.count == total_needed + 1
    # resuming again does nothing new
    records2 = run_synthesis(SynthConfig(backend=backend, max_rounds=1), queries, tmp_path)
    assert backend.count == total_needed + 1
    assert [r.to_dict() for r in records2] == [r.to_dict() for r in records]


def test_replay_from_the_step_store_renders_no_template(tmp_path, monkeypatch):
    # "[Revise]" on every judge call: 3 steps, then 3 judge-and-revise rounds per cell
    backend = ScriptedMock(default="[Revise] say more")
    run_synthesis(SynthConfig(backend=backend, max_rounds=3), make_queries(2), tmp_path)
    assert len(backend.calls) == 2 * 5 * 9
    records = {f.name: f.read_bytes() for f in tmp_path.glob("records_*.jsonl")}
    steps = (tmp_path / "steps.jsonl").read_bytes()
    for name in records:
        (tmp_path / name).unlink()

    renders = []
    monkeypatch.setattr(
        "palette.data_synth.render_template", lambda name, *a, **kw: renders.append(name)
    )
    idle = ScriptedMock(label="idle")  # fails on any call
    run_synthesis(SynthConfig(backend=idle, max_rounds=3), make_queries(2), tmp_path)
    assert renders == [] and idle.calls == []
    assert {f.name: f.read_bytes() for f in tmp_path.glob("records_*.jsonl")} == records
    assert (tmp_path / "steps.jsonl").read_bytes() == steps


@pytest.mark.parametrize("crash_at, torn", [(7, "steps.jsonl"), (10, "records_America.jsonl")])
def test_run_synthesis_resumes_over_a_torn_append(tmp_path, monkeypatch, caplog, crash_at, torn):
    # "[Approved]" on every judge call: each cell appends its 4 steps, then
    # its record. The crash cuts the crash_at-th append in half: the second
    # step of the second cell, or that cell's record.
    whole, crashed = tmp_path / "whole", tmp_path / "crashed"
    queries = make_queries(2)
    expected = run_synthesis(SynthConfig(backend=ScriptedMock(default="[Approved]")), queries, whole)

    appends, cut = [], []

    def crashing_append(fds, path, row):
        appends.append(path)
        if len(appends) < crash_at:
            return append_jsonl(fds, path, row)
        line = json.dumps(row, sort_keys=True) + "\n"
        cut.append(line[: len(line) // 2])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(cut[0])
        raise KeyboardInterrupt

    monkeypatch.setattr("palette.data_synth.append_jsonl", crashing_append)
    with pytest.raises(KeyboardInterrupt):
        run_synthesis(SynthConfig(backend=ScriptedMock(default="[Approved]")), queries, crashed)
    monkeypatch.undo()
    assert Path(appends[-1]).name == torn
    torn_bytes = len(cut[0].encode("utf-8"))

    caplog.set_level("WARNING", logger="palette.common")
    backend = ScriptedMock(default="[Approved]")
    records = run_synthesis(SynthConfig(backend=backend), queries, crashed)
    assert caplog.messages == [f"{crashed / torn}: dropped a torn final line of {torn_bytes} bytes"]
    # The torn cell's missing steps (none, if only its record was torn),
    # then the eight cells after it.
    assert len(backend.calls) == (3 if torn == "steps.jsonl" else 0) + 8 * 4
    assert [r.to_dict() for r in records] == [r.to_dict() for r in expected]
    names = sorted(f.name for f in whole.iterdir())
    assert sorted(f.name for f in crashed.iterdir()) == names
    for name in names:
        assert (crashed / name).read_bytes() == (whole / name).read_bytes(), name


def _open_descriptors():
    return len(os.listdir("/proc/self/fd"))


def _interrupt_at_append(monkeypatch, n, seen):
    """Make the n-th append raise KeyboardInterrupt, after noting how many descriptors were open."""
    appends = []

    def interrupting_append(fds, path, row):
        appends.append(path)
        if len(appends) == n:
            seen.append(_open_descriptors())
            raise KeyboardInterrupt
        return append_jsonl(fds, path, row)

    monkeypatch.setattr("palette.data_synth.append_jsonl", interrupting_append)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("exit", ["completes", "backend_failure", "interrupted_append"])
def test_run_synthesis_closes_its_append_descriptors_on_every_exit(tmp_path, monkeypatch, exit):
    # "[Approved]" on every judge call: each cell appends its 4 steps, then its record.
    backend, seen = ScriptedMock(default="[Approved]"), []
    if exit == "backend_failure":  # five cells, then the sixth fails at its aggregate step
        backend = ScriptedMock(script=["[Approved]"] * (5 * 4 + 2))
    elif exit == "interrupted_append":  # the fourth step of the sixth cell
        _interrupt_at_append(monkeypatch, 5 * 5 + 4, seen)
    before = _open_descriptors()
    if exit == "completes":
        assert len(run_synthesis(SynthConfig(backend=backend), make_queries(2), tmp_path)) == 10
    else:
        with pytest.raises(BackendFailure if exit == "backend_failure" else KeyboardInterrupt):
            run_synthesis(SynthConfig(backend=backend), make_queries(2), tmp_path)
    assert _open_descriptors() == before
    # steps.jsonl and the five records files were open when the append was cut short
    assert seen == ([before + 6] if exit == "interrupted_append" else [])


def test_run_synthesis_over_http_writes_the_bytes_of_a_scripted_run(tmp_path, monkeypatch):
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    # Per cell: three steps, a revision in the first judge round and approval in the second.
    script = [reply for k in range(2 * 5) for reply in (
        f"response {k}", f"feedback {k}", f"aggregate {k}", f"[Revise] cut {k}", f"revised {k}, caf\u00e9", "[Approved]"
    )]
    mock = ScriptedMock(script=script)
    run_synthesis(SynthConfig(backend=mock), make_queries(2), tmp_path / "mock")
    with ReplyServer([(200, chat_body(reply)) for reply in script], keep_alive=True) as server:
        run_synthesis(SynthConfig(backend=RemoteChat(server.base_url, "toy")), make_queries(2), tmp_path / "http")
    assert server.connections == 1
    assert [seen["body"]["messages"][0]["content"] for seen in server.requests_seen] == mock.calls
    names = sorted(f.name for f in (tmp_path / "mock").iterdir())
    assert names == sorted(["steps.jsonl", *(f"records_{c}.jsonl" for c in CONTINENTS)])
    assert sorted(f.name for f in (tmp_path / "http").iterdir()) == names
    for name in names:
        assert (tmp_path / "http" / name).read_bytes() == (tmp_path / "mock" / name).read_bytes(), name


def test_step_store_round_trip(tmp_path):
    with appending() as fds:
        store = StepStore(tmp_path / "steps.jsonl", fds)
        calls = []
        out1 = store.get_or_call("q1", "Asia", "response", lambda: calls.append(1) or "value")
        out2 = store.get_or_call("q1", "Asia", "response", lambda: calls.append(1) or "other")
    assert out1 == out2 == "value"
    assert calls == [1]
    reloaded = StepStore(tmp_path / "steps.jsonl", {})
    assert reloaded.get_or_call("q1", "Asia", "response", lambda: "never") == "value"


def test_step_store_asks_again_for_a_stored_output_that_is_empty_or_null(tmp_path):
    path = tmp_path / "steps.jsonl"
    with appending() as fds:
        for step, output in (("response", ""), ("feedback", None)):
            append_jsonl(fds, path, {"query_id": "q1", "continent": "Asia", "step": step, "output": output})
    with appending() as fds:
        store = StepStore(path, fds)
        assert store.get_or_call("q1", "Asia", "response", lambda: "fresh") == "fresh"
        assert store.get_or_call("q1", "Asia", "feedback", lambda: "again") == "again"
    assert StepStore(path, {}).get_or_call("q1", "Asia", "feedback", lambda: "never") == "again"


def _toy_records(qid="q0"):
    return {
        c: SynthRecord(
            query_id=qid,
            query="q",
            continent=c,
            base_response="b",
            feedback="f",
            aggregated="a",
            final=f"final-{c}",
            rounds_used=1,
            approved=True,
        )
        for c in CONTINENTS
    }


def test_build_preference_pairs_single_query():
    pairs = build_preference_pairs({"q0": _toy_records()})
    assert len(pairs) == 5
    for rec in pairs:
        assert isinstance(rec, PreferenceRecord)
        assert len(rec.rejected) == 4
        assert rec.preferred == f"final-{rec.continent}"
        assert rec.preferred not in rec.rejected


def test_build_preference_pairs_missing_continent():
    records = _toy_records()
    del records["Oceania"]
    with raises_code("incomplete_query"):
        build_preference_pairs({"q0": records})


def test_group_records():
    records = list(_toy_records("q7").values())
    grouped = group_records(records)
    assert set(grouped) == {"q7"}
    assert set(grouped["q7"]) == set(CONTINENTS)


def test_import_prism_jsonl(tmp_path):
    path = tmp_path / "q.jsonl"
    rows = [
        {"question_id": "a1", "question": "what happens when we die?"},
        {"utterance": "how should children address elders?"},
        {"noise": True},
    ]
    path.write_text("\n\n".join(json.dumps(r) for r in rows))  # blank lines count toward default ids
    out = import_prism(path)
    assert out[0] == {"id": "a1", "query": "what happens when we die?"}
    assert out[1] == {"id": "q00002", "query": "how should children address elders?"}
    assert len(out) == 2


def test_import_prism_csv(tmp_path):
    path = tmp_path / "q.csv"
    path.write_text("id,question\n7,what makes a fair trade?\n8,\n")
    out = import_prism(path)
    assert out == [{"id": "7", "query": "what makes a fair trade?"}]


def test_import_prism_skips_a_blank_alias_for_the_next_one(tmp_path):
    path = tmp_path / "q.jsonl"
    rows = [{"id": "a", "question": "   ", "query": " what is fair? "}, {"id": "b", "question": " ", "query": ""}]
    path.write_text("\n".join(json.dumps(r) for r in rows))
    assert import_prism(path) == [{"id": "a", "query": "what is fair?"}]
