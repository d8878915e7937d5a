import json
import logging
import threading

import numpy as np
import pytest

from palette import agent_pipeline
from palette.agent_pipeline import (
    FusedLocalMeta,
    OpinionItem,
    PipelineConfig,
    draft,
    evaluate_country,
    final_decision,
    load_opinion_items,
    routing_text,
    run_item,
    self_regulate,
)
from palette.backends import LocalReference, RemoteChat, ScriptedMock
from palette.common import CONTINENTS, fingerprint
from palette.errors import BackendFailure
from palette.gate_router import GateMatrix, init_gate, route, route_prompt
from palette.metrics import alignment_score, normalize_distribution
from palette.reference_model import TinyTransformer, init_model
from palette.templates import render_template

from helpers import ReplyServer, raises_code, tiny_config, tiny_model, tokenize

NZL_QUESTION = (
    "Most people consider both freedom and equality to be important, but if you had "
    "to choose between them, which one would you consider more important?"
)
NZL_OPTIONS = ["Freedom", "Equality", "Don't know", "No answer"]
NZL_GOLD_FULL = [0.6709999999999999, 0.242, 0.061, 0.0, 0.026000000000000002]
NZL_PRED = [0.6049056212210604, 0.3230594648058141, 0.060349139731253465, 0.0116857742428727]
NZL_STANCES = {"Africa": "B", "America": "A", "Asia": "B", "Europe": "C", "Oceania": "A"}


def nzl_item():
    return OpinionItem(
        question=NZL_QUESTION,
        options=list(NZL_OPTIONS),
        gold=normalize_distribution(NZL_GOLD_FULL[:4]),
        country="NZL",
        qid="nzl-0",
    )


def nzl_agents():
    return {
        c: ScriptedMock(default=f"[{c}] leans toward option {NZL_STANCES[c]}.", label=c)
        for c in CONTINENTS
    }


def nzl_meta():
    return ScriptedMock(
        script=[
            "For NZL the regional drafts lean toward personal liberty; keep dissent visible.",
            json.dumps(NZL_PRED),
        ],
        label="meta",
    )


def tagged(replies):
    """The draft text: each continent's reply under its tag, in continental order."""
    return "\n\n".join(f"[{c}] perspective:\n{r}" for c, r in zip(CONTINENTS, replies))


def test_draft_mock_passthrough_fixed_order():
    agents = {c: ScriptedMock(default=f"resp-{c}", label=c) for c in reversed(CONTINENTS)}
    assert draft(agents, "NZL", "q?") == (
        "[Africa] perspective:\nresp-Africa\n\n[America] perspective:\nresp-America\n\n"
        "[Asia] perspective:\nresp-Asia\n\n[Europe] perspective:\nresp-Europe\n\n"
        "[Oceania] perspective:\nresp-Oceania"
    )
    for agent in agents.values():
        assert len(agent.calls) == 1


def test_draft_atomic_failure_names_continent():
    agents = {c: ScriptedMock(default=f"resp-{c}", label=c) for c in CONTINENTS}
    agents["Asia"] = ScriptedMock(label="Asia")  # no reply configured
    with pytest.raises(BackendFailure) as exc:
        draft(agents, "NZL", "q?")
    assert exc.value.label == "Asia"


def _chat_reply(text):
    return 200, json.dumps({"choices": [{"message": {"content": text}}]}).encode()


def _record_thread(agent, seen):
    """Make ``agent.complete`` append (label, thread id, live threads) to ``seen``."""
    complete = agent.complete

    def recording(prompt):
        seen.append((agent.label, threading.get_ident(), threading.active_count()))
        return complete(prompt)

    agent.complete = recording
    return agent


def test_draft_asks_local_agents_in_order_on_the_calling_thread():
    model = tiny_model()
    seen = []
    agents = {
        c: _record_thread(
            LocalReference(model, label=c) if i % 2
            else ScriptedMock(default=f"resp-{c}", label=c),
            seen,
        )
        for i, c in enumerate(CONTINENTS)
    }
    threads_before = threading.active_count()
    text = draft(agents, "NZL", "q?")
    assert seen == [(c, threading.get_ident(), threads_before) for c in CONTINENTS]
    assert all(len(agent.calls) == 1 for agent in agents.values())
    replies = [
        LocalReference(model).complete(agents[c].calls[0]) if i % 2 else f"resp-{c}"
        for i, c in enumerate(CONTINENTS)
    ]
    assert text == tagged(replies)


class AllOpenServer(ReplyServer):
    """Chat endpoint that answers only once ``n`` requests are open together.

    A request that waits ``timeout`` seconds for the others gets a 400, as
    does every later one, so a client that sends the requests one by one
    fails instead of hanging.
    """

    def __init__(self, n, timeout=10.0):
        super().__init__([_chat_reply("drafted")])
        self.barrier = threading.Barrier(n, timeout=timeout)

    def respond(self):
        try:
            self.barrier.wait()
        except threading.BrokenBarrierError:
            return 400, b"{}"
        return super().respond()


def test_draft_asks_remote_agents_at_once():
    with AllOpenServer(len(CONTINENTS)) as server:
        agents = {c: RemoteChat(server.base_url, "toy", label=c) for c in CONTINENTS}
        text = draft(agents, "NZL", "q?")
    assert text == tagged(["drafted"] * len(CONTINENTS))
    assert all(len(agent.calls) == 1 for agent in agents.values())
    assert len(server.requests_seen) == len(CONTINENTS)


@pytest.mark.parametrize("first", ["local", "remote"])
def test_draft_failure_asks_every_agent_once_and_names_the_first(first):
    # America fails on the `first` kind of agent and Asia on the other kind;
    # the remaining three agents answer, one of them remotely.
    with ReplyServer([_chat_reply("ok")]) as good, ReplyServer([(404, b"{}")]) as bad:
        failing = {
            "local": ScriptedMock(label="failing"),
            "remote": RemoteChat(bad.base_url, "toy", label="failing"),
        }
        agents = {c: ScriptedMock(default="ok", label=c) for c in CONTINENTS}
        agents["Africa"] = RemoteChat(good.base_url, "toy", label="Africa")
        agents["America"] = failing[first]
        agents["Asia"] = failing["remote" if first == "local" else "local"]
        with pytest.raises(BackendFailure) as exc:
            draft(agents, "NZL", "q?")
    assert exc.value.label == "America"
    assert "draft stage failed for America" in str(exc.value)
    assert all(len(agent.calls) == 1 for agent in agents.values())
    assert len(good.requests_seen) == 1 and len(bad.requests_seen) == 1


def test_draft_requires_all_agents():
    agents = {c: ScriptedMock(default="r", label=c) for c in CONTINENTS[:4]}
    with pytest.raises(BackendFailure):
        draft(agents, "NZL", "q?")


def test_self_regulate_echo_preserves_tags():
    agents = {c: ScriptedMock(default=f"resp-{c}", label=c) for c in CONTINENTS}
    drafts = draft(agents, "NZL", "q?")
    assert drafts == tagged(f"resp-{c}" for c in CONTINENTS)
    meta = ScriptedMock(echo=True)
    regulated = self_regulate(meta, drafts, "NZL", "q?")
    assert regulated == render_template("regulate", country="NZL", query="q?", drafts=drafts)
    assert drafts in regulated
    assert len(meta.calls) == 1


def test_final_decision_parses_table_distribution():
    meta = ScriptedMock(default=json.dumps(NZL_PRED))
    answer, p_gen = final_decision(meta, "context", nzl_item(), "NZL")
    assert answer == "A"
    expected = normalize_distribution(NZL_PRED)
    assert np.allclose(p_gen, expected, atol=1e-12)
    assert abs(sum(p_gen) - 1.0) < 1e-9


def test_final_decision_reprompts_then_fails():
    meta = ScriptedMock(default="no numbers here")
    with raises_code("unparseable_distribution"):
        final_decision(meta, "ctx", nzl_item(), "NZL")
    assert len(meta.calls) == 3


def test_final_decision_recovers_on_reprompt():
    meta = ScriptedMock(script=["garbage", json.dumps([0.7, 0.1, 0.1, 0.1])])
    answer, p_gen = final_decision(meta, "ctx", nzl_item(), "NZL")
    assert answer == "A"
    assert len(meta.calls) == 2


def test_final_decision_local_backend_softmax_oracle():
    params = tiny_model()
    backend = LocalReference(params)
    item = OpinionItem(
        question="pick", options=["alpha", "beta"], gold=[0.5, 0.5], country="X", qid="q0"
    )
    answer, p_gen = final_decision(backend, "", item, "X")
    scores = LocalReference(params).score_options(backend.calls[0], item.options)
    z = np.asarray(scores)
    expected = np.exp(z - z.max())
    expected = expected / expected.sum()
    assert np.allclose(p_gen, expected, atol=1e-12)
    assert answer in ("A", "B")
    assert abs(sum(p_gen) - 1.0) < 1e-12


def test_evaluate_country_nzl_case_closed_form():
    item = nzl_item()
    config = PipelineConfig(agents=nzl_agents(), meta=nzl_meta())
    report = evaluate_country(config, [item], "NZL")
    expected = alignment_score(normalize_distribution(NZL_PRED), item.gold)
    assert report.per_question[0]["s_align"] == pytest.approx(expected, abs=1e-6)
    assert report.per_question[0]["answer"] == "A"
    assert report.mean_s_align == pytest.approx(expected, abs=1e-12)


def test_evaluate_country_is_byte_deterministic():
    runs = []
    for _ in range(2):
        config = PipelineConfig(agents=nzl_agents(), meta=nzl_meta())
        runs.append(evaluate_country(config, [nzl_item()], "NZL").to_json())
    assert runs[0] == runs[1]


def test_evaluate_country_perfect_oracle():
    items = []
    golds = [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]]
    for i, gold in enumerate(golds):
        items.append(
            OpinionItem(
                question=f"q{i}", options=["a", "b", "c"], gold=gold, country="X", qid=f"q{i}"
            )
        )
    meta = ScriptedMock(script=[json.dumps(g) for g in golds])
    agents = {c: ScriptedMock(default="r", label=c) for c in CONTINENTS}
    config = PipelineConfig(agents=agents, meta=meta, no_draft=True)
    report = evaluate_country(config, items, "X")
    assert report.mean_s_align == pytest.approx(1.0, abs=1e-12)
    assert report.pearson_r == pytest.approx(1.0, abs=1e-12)


def test_evaluate_country_mean_is_mean_of_scores():
    golds = [[0.9, 0.1], [0.4, 0.6]]
    preds = [[0.5, 0.5], [0.3, 0.7]]
    items = [
        OpinionItem(question=f"q{i}", options=["a", "b"], gold=g, country="X", qid=f"q{i}")
        for i, g in enumerate(golds)
    ]
    meta = ScriptedMock(script=[json.dumps(p) for p in preds])
    config = PipelineConfig(agents={}, meta=meta, no_draft=True)
    report = evaluate_country(config, items, "X")
    per_q = [q["s_align"] for q in report.per_question]
    assert report.mean_s_align == pytest.approx(sum(per_q) / len(per_q), abs=1e-9)


def test_evaluate_country_empty_items():
    config = PipelineConfig(agents={}, meta=ScriptedMock(default="x"))
    with raises_code("empty_dataset"):
        evaluate_country(config, [], "X")


def test_evaluate_country_wrong_country_guard():
    config = PipelineConfig(agents={}, meta=ScriptedMock(default="x"))
    with pytest.raises(ValueError):
        evaluate_country(config, [nzl_item()], "AUS")


def test_ablation_call_patterns():
    item = nzl_item()

    # full pipeline: 1 call per agent, 2 meta calls (regulate + final)
    agents = nzl_agents()
    meta = nzl_meta()
    run_item(PipelineConfig(agents=agents, meta=meta), item, "NZL")
    assert all(len(a.calls) == 1 for a in agents.values())
    assert len(meta.calls) == 2

    # no_draft: no agent calls, single meta call
    agents = nzl_agents()
    meta = ScriptedMock(default=json.dumps(NZL_PRED))
    run_item(PipelineConfig(agents=agents, meta=meta, no_draft=True), item, "NZL")
    assert all(len(a.calls) == 0 for a in agents.values())
    assert len(meta.calls) == 1

    # no_regulate: agents called, single meta call seeing the raw tagged draft
    agents = nzl_agents()
    meta = ScriptedMock(default=json.dumps(NZL_PRED))
    run_item(PipelineConfig(agents=agents, meta=meta, no_regulate=True), item, "NZL")
    assert all(len(a.calls) == 1 for a in agents.values())
    assert len(meta.calls) == 1
    assert "[Africa] perspective:" in meta.calls[0]


def test_load_opinion_items_truncates_and_renormalizes(tmp_path):
    path = tmp_path / "qa.jsonl"
    rows = [
        {
            "question": NZL_QUESTION,
            "options": NZL_OPTIONS,
            "selections": {"NZL": NZL_GOLD_FULL},
            "country": "NZL",
        },
        {
            "question": "other country row",
            "options": ["a", "b"],
            "selections": {"AUS": [0.5, 0.5]},
            "country": "AUS",
        },
    ]
    path.write_text("\n" + "\n".join(json.dumps(r) for r in rows))  # the blank line counts
    items = load_opinion_items(path, "NZL")
    assert len(items) == 1
    assert items[0].qid == "q0001"
    expected = normalize_distribution(NZL_GOLD_FULL[:4])
    assert np.allclose(items[0].gold, expected, atol=1e-12)
    assert len(items[0].options) == 4


def test_load_opinion_items_logs_each_truncation_at_its_file_and_line(tmp_path, caplog):
    path = tmp_path / "qa.jsonl"
    rows = [
        {"question": "more gold", "options": ["a", "b"], "gold": [0.5, 0.3, 0.2], "country": "NZL"},
        {"question": "more options", "options": ["a", "b", "c"], "gold": [0.5, 0.5], "country": "NZL"},
    ]
    path.write_text("\n" + "\n".join(json.dumps(r) for r in rows))  # the blank line counts
    with caplog.at_level(logging.INFO, logger="palette.agent_pipeline"):
        load_opinion_items(path, "NZL")
    assert [r.getMessage() for r in caplog.records] == [
        f"{path}:2: truncating gold from 3 to 2 options and renormalizing",
        f"{path}:3: truncating options from 3 to 2 gold entries",
    ]


# --- fusion ------------------------------------------------------------------

@pytest.fixture(scope="module")
def fusion_setup():
    cfg = tiny_config(d_model=32, n_heads=4, seed=5)
    base = init_model(cfg)
    experts = {
        c: init_model(tiny_config(d_model=32, n_heads=4, seed=100 + i))
        for i, c in enumerate(CONTINENTS)
    }
    gate = init_gate(base)
    return base, experts, gate


def test_backend_for_fuses_identical_experts_under_a_uniform_gate(fusion_setup, fusions):
    base, experts, gate = fusion_setup
    same = {c: experts["Asia"] for c in CONTINENTS}
    uniform = GateMatrix(np.tile(gate.matrix[:, :1], (1, len(CONTINENTS))))  # five equal columns
    FusedLocalMeta(base, same, uniform, mode="per-country").backend_for("NZL", "a question")
    [fused] = fusions
    assert fused.metadata["gate"] == "0.2,0.2,0.2,0.2,0.2"
    for name in base.names:
        if ".ffn." in name:
            assert np.allclose(fused[name].data, experts["Asia"][name].data, atol=1e-7)


def test_backend_for_routes_through_gate(fusion_setup, fusions):
    base, experts, gate = fusion_setup
    FusedLocalMeta(base, experts, gate, mode="per-request").backend_for("NZL", "a question")
    [fused] = fusions
    weights = route_prompt(base, gate, routing_text("NZL", "a question"))
    assert abs(sum(weights) - 1.0) < 1e-9
    assert fused.metadata["gate"] == ",".join(f"{w:.9g}" for w in weights)


@pytest.fixture
def fusions(monkeypatch):
    """The checkpoint of every moerges_fuse call the pipeline makes; its metadata records the gate."""
    seen, fuse = [], agent_pipeline.moerges_fuse

    def recording_fuse(base, experts, gate):
        seen.append(fuse(base, experts, gate))
        return seen[-1]

    monkeypatch.setattr(agent_pipeline, "moerges_fuse", recording_fuse)
    return seen


def test_fused_local_meta_per_country_caches(fusion_setup, fusions):
    base, experts, gate = fusion_setup
    provider = FusedLocalMeta(base, experts, gate, mode="per-country")
    b1 = provider.backend_for("NZL", "first query")
    b2 = provider.backend_for("NZL", "second query")
    b3 = provider.backend_for("AUS", "third query")
    assert b1 is b2
    assert b1 is not b3
    assert len(fusions) == 2


def test_fused_local_meta_per_request_refuses(fusion_setup, fusions):
    base, experts, gate = fusion_setup
    provider = FusedLocalMeta(base, experts, gate, mode="per-request")
    b1 = provider.backend_for("NZL", "first query")
    b2 = provider.backend_for("NZL", "second query")
    assert b1 is not b2
    assert len(fusions) == 2


def test_fused_local_meta_no_fuse_uses_base(fusion_setup, fusions):
    base, experts, gate = fusion_setup
    provider = FusedLocalMeta(base, experts, gate, no_fuse=True)
    backend = provider.backend_for("NZL", "q")
    assert backend.model.to_checkpoint() == base
    assert fusions == []
    assert provider.backend_for("AUS", "q2") is backend


def test_fused_local_meta_fingerprint_is_pinned(fusion_setup):
    # describe() spells the fusion constants as literals; every eval
    # report's config_fingerprint rests on these bytes.
    base, experts, gate = fusion_setup
    assert fingerprint(FusedLocalMeta(base, experts, gate).describe()) == "7a8a1987a270445b"


def test_local_pipeline_end_to_end(fusion_setup):
    base, experts, gate = fusion_setup
    agents = {c: LocalReference(experts[c], label=c) for c in CONTINENTS}
    meta = FusedLocalMeta(base, experts, gate)
    item = OpinionItem(
        question="pick", options=["alpha", "beta"], gold=[0.6, 0.4], country="X", qid="q0"
    )
    config = PipelineConfig(agents=agents, meta=meta)
    r1 = evaluate_country(config, [item], "X").to_json()
    agents2 = {c: LocalReference(experts[c], label=c) for c in CONTINENTS}
    meta2 = FusedLocalMeta(base, experts, gate)
    r2 = evaluate_country(
        PipelineConfig(agents=agents2, meta=meta2), [item], "X"
    ).to_json()
    assert r1 == r2


@pytest.mark.parametrize("mode", ["per-request", "per-country"])
def test_evaluate_country_routes_a_question_longer_than_max_seq(fusion_setup, mode):
    # The routing text of a long question is cut to its head, which keeps the
    # country preamble; a text that fits routes as its full-row encoding does.
    base, experts, gate = fusion_setup
    max_seq = TinyTransformer.from_checkpoint(base).cfg.max_seq
    question = "Which of these matters most when you choose where to live? " * 4
    assert len(question) > max_seq
    agents = {c: LocalReference(experts[c], label=c) for c in CONTINENTS}
    meta = FusedLocalMeta(base, experts, gate, mode=mode)
    item = OpinionItem(question=question, options=["alpha", "beta"], gold=[0.6, 0.4], country="X", qid="q0")
    report = evaluate_country(PipelineConfig(agents=agents, meta=meta), [item], "X")
    assert [q["qid"] for q in report.per_question] == ["q0"]

    text = routing_text("X", question)
    head = text[: max_seq - 2]
    assert route_prompt(base, gate, text) == route_prompt(base, gate, head)
    hidden = TinyTransformer.from_checkpoint(base).forward_trace(tokenize(head, max_seq)).hidden
    assert route_prompt(base, gate, head) == route(hidden.mean(axis=0), gate)
