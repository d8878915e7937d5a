"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. C6b pins the sample Pearson r for inputs ([1,2,3],[2,4,7]) to its
closed form 15/sqrt(228) = 0.9933992677987828; an earlier, unsourced constant
0.99176 that no standard correlation formula produces has been replaced.
"""

import functools
import json
import math
import statistics
import struct
import time
from unittest import mock

import numpy as np
import pytest

from palette.agent_pipeline import OpinionItem, PipelineConfig, evaluate_country, final_decision, run_item
from palette.align_trainer import PreferenceRecord, TrainConfig, train
from palette.backends import ScriptedMock
from palette.common import CONTINENTS
from palette.data_synth import StepStore, SynthConfig, run_synthesis, self_judge_refine, stored_reply
from palette.errors import BackendFailure, MalformedHeader
from palette.gate_router import DEFAULT_SYSTEM_PROMPTS, init_gate, route, route_prompt, softmax_weights
from palette.merge_engine import model_stock, moerges_fuse, task_arithmetic, ties_merge
from palette.metrics import alignment_score, kl, normalize_distribution, pearson
from palette.reference_model import ModelConfig, init_model
from palette.tensor_store import Checkpoint, load_checkpoint, save_checkpoint

from helpers import GRAD_CHECK_RECORD, appending, forward, like, random_checkpoint, toy_preference_dataset
from oracles import (as_lists, bf_model_stock, bf_moerges, bf_task_arithmetic, bf_ties, grad_check, max_abs_diff,
                     orpo_loss)


def criterion(cid, desc, budget_s):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[{cid}] FAIL - {desc}")
                raise
            elapsed = time.monotonic() - start
            print(f"\n[{cid}] PASS - {desc} ({elapsed:.1f}s, budget {budget_s}s)")
            assert elapsed < budget_s, f"{cid} exceeded its {budget_s}s runtime budget"
        return inner
    return wrap


@pytest.mark.filterwarnings("ignore::palette.errors.EmptySelectionWarning")
@criterion("C1", "merge oracle equivalence on 200 random instances per method", 5)
def test_c01_merge_oracle_equivalence():
    rng = np.random.default_rng(20240101)
    for _ in range(200):
        n_experts = int(rng.integers(1, 6))
        base = random_checkpoint(rng, n_tensors=2, max_elems=16, prefix="m.ffn." if rng.random() < 0.5 else "")
        experts = [like(base, rng) for _ in range(n_experts)]
        base_l = as_lists(base)
        experts_l = [as_lists(e) for e in experts]

        coeffs = [float(c) for c in rng.uniform(-1.5, 1.5, n_experts)]
        got = task_arithmetic(base, experts, coeffs)
        assert max_abs_diff(got, bf_task_arithmetic(base_l, experts_l, coeffs)) < 1e-6

        density = float(rng.uniform(0.1, 1.0))
        scale = float(rng.uniform(0.2, 1.5))
        got = ties_merge(base, experts, density, scale)
        assert max_abs_diff(got, bf_ties(base_l, experts_l, density, scale)) < 1e-6

        if n_experts >= 2:
            got = model_stock(base, experts)
            assert max_abs_diff(got, bf_model_stock(base_l, experts_l)) < 1e-6

        raw = rng.uniform(0.05, 1.0, n_experts)
        gate = [float(g) for g in raw / raw.sum()]
        got = moerges_fuse(base, experts, gate)
        ffn = {n for n in base.names if n.startswith("m.ffn.")}
        assert max_abs_diff(got, bf_moerges(base_l, experts_l, gate, ffn)) < 1e-6


@criterion("C2", "one-hot gate fusion is forward-equivalent to the composed expert", 10)
def test_c02_fusion_forward_equivalence():
    base = init_model(ModelConfig(seed=11))  # d_model 64, 2 layers
    experts = {
        c: init_model(ModelConfig(seed=200 + i)) for i, c in enumerate(CONTINENTS)
    }
    one_hot = [0.0] * 5
    one_hot[2] = 1.0  # Asia
    fused = moerges_fuse(base, [experts[c] for c in CONTINENTS], one_hot)
    composed = Checkpoint(
        [experts["Asia"][n] if ".ffn." in n else base[n] for n in base.names],
        base.metadata,
    )
    for name in base.names:
        if ".ffn." not in name:
            assert fused[name].data.tobytes() == base[name].data.tobytes()
    rng = np.random.default_rng(77)
    for _ in range(50):
        tokens = [256] + list(rng.integers(0, 256, int(rng.integers(4, 24))))
        _, l1 = forward(fused, tokens)
        _, l2 = forward(composed, tokens)
        assert np.max(np.abs(l1 - l2)) < 1e-5


@criterion("C3", "gate softmax, invariances, and seed-42 self-match", 10)
def test_c03_gate_properties():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        z = rng.normal(scale=4.0, size=5)
        w = softmax_weights(z)
        assert abs(w.sum() - 1.0) < 1e-9
    for _ in range(200):
        z = rng.normal(size=5)
        shift = float(rng.normal(scale=20.0))
        assert np.allclose(softmax_weights(z), softmax_weights(z + shift), atol=1e-9)

    model = init_model(ModelConfig())  # seed 42
    gate = init_gate(model)
    for _ in range(100):
        hidden = rng.normal(size=gate.d_model)
        base_argmax = CONTINENTS[int(np.argmax(route(hidden, gate)))]
        for lam in (0.01, 3.0, 250.0):
            assert CONTINENTS[int(np.argmax(route(lam * hidden, gate)))] == base_argmax
    for continent in CONTINENTS:
        weights = route_prompt(model, gate, DEFAULT_SYSTEM_PROMPTS[continent])
        assert CONTINENTS[int(np.argmax(weights))] == continent


@criterion("C4", "analytic gradients, degenerate equality, and lambda linearity", 60)
def test_c04_orpo_correctness():
    params = init_model(ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq=160, seed=3))
    err = grad_check(params, GRAD_CHECK_RECORD, lam=0.1, epsilon=1e-4, n_samples=60, seed=1)
    assert err < 1e-3, f"gradient check failed: {err}"

    record = PreferenceRecord(query="q?", preferred="same", rejected=("same",) * 4)
    lb = orpo_loss(params, record, 0.1)
    assert abs(lb.contrastive - 4 * math.log(2)) < 1e-9

    base = orpo_loss(params, GRAD_CHECK_RECORD, 0.0)
    for lam in (0.0, 0.1, 1.0, 3.5):
        lb = orpo_loss(params, GRAD_CHECK_RECORD, lam)
        assert abs(lb.total - (base.sft + lam * base.contrastive)) < 1e-9


@criterion("C5", "toy-set training: epoch loss decreases and margin strictly increases", 300)
def test_c05_training_signal():
    params = init_model(ModelConfig())  # default desk-scale model
    dataset = toy_preference_dataset(n_queries=50, seed=42)
    assert len(dataset) == 250
    cfg = TrainConfig(lam=0.1, learning_rate=5e-5, epochs=2, batch_size=8, seed=42)
    _, report = train(params, dataset, cfg)
    assert report.epoch_total[1] < report.epoch_total[0], report.epoch_total
    assert report.final_margin > report.initial_margin, (
        report.initial_margin,
        report.final_margin,
    )


@criterion("C6", "metric closed forms and fuzzed bounds", 5)
def test_c06_metric_closed_forms():
    assert alignment_score([0.4, 0.6], [0.4, 0.6]) == 1.0
    assert alignment_score([1.0, 0.0], [0.0, 1.0]) == 0.0
    assert alignment_score([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.688722, abs=1e-5)
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    v = [1.0, 4.0, 2.0, 8.0]
    assert pearson(v, v) == pytest.approx(1.0, abs=1e-12)
    assert pearson(v, [-x for x in v]) == pytest.approx(-1.0, abs=1e-12)

    rng = np.random.default_rng(6)
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n) * float(rng.uniform(0.3, 3.0)))
        q = rng.dirichlet(np.ones(n) * float(rng.uniform(0.3, 3.0)))
        s = alignment_score(list(p), list(q))
        assert 0.0 <= s <= 1.0


@criterion("C6b", "pinned Pearson fixture: sample r of ([1,2,3],[2,4,7]) is 15/sqrt(228)", 5)
def test_c06b_pearson_fixture_as_stated():
    # dx = [-1,0,1], dy = [-7/3,-1/3,8/3]: sum(dx*dy) = 5, sum(dx^2) = 2,
    # sum(dy^2) = 114/9, so r = 5/sqrt(228/9) = 15/sqrt(228). This replaces an
    # unsourced pinned constant 0.99176 that no standard formula reaches.
    x, y = [1.0, 2.0, 3.0], [2.0, 4.0, 7.0]
    r = pearson(x, y)
    assert r == pytest.approx(15.0 / math.sqrt(228.0), abs=1e-12)
    assert r == pytest.approx(statistics.correlation(x, y), abs=1e-12)


@criterion("C7", "preference-pair arithmetic at reference scale", 5)
def test_c07_dataset_arithmetic():
    from palette.data_synth import SynthRecord, build_preference_pairs

    for n in (1, 3, 12, 7805):
        grouped = {}
        for q in range(n):
            grouped[f"q{q}"] = {
                c: SynthRecord(
                    query_id=f"q{q}", query="q", continent=c, base_response="b",
                    feedback="f", aggregated="a", final=f"f-{c}", rounds_used=1,
                    approved=True,
                )
                for c in CONTINENTS
            }
        pairs = build_preference_pairs(grouped)
        assert len(pairs) == 5 * n
        assert all(len(p.rejected) == 4 for p in pairs)

    counts = {
        "rejection_pairs_per_continent": min(
            sum(len(p.rejected) for p in pairs if p.continent == c) for c in CONTINENTS
        ),
        "qa_pairs_total": len(pairs),
    }
    assert counts["rejection_pairs_per_continent"] == 31220
    assert counts["qa_pairs_total"] == 39025


@criterion("C8", "judge-loop round caps and duplicate-free resume", 5)
def test_c08_synthesis_loop_behavior(tmp_path):
    with appending() as fds:
        def ask(name, backend):
            store = StepStore(tmp_path / f"{name}.jsonl", fds)
            return functools.partial(stored_reply, store, backend, "q", continent="Asia", query="q")

        final, rounds, approved = self_judge_refine(
            ask("approve", ScriptedMock(default="[Approved]")), "resp", max_rounds=3
        )
        assert (rounds, approved) == (1, True)

        final, rounds, approved = self_judge_refine(
            ask("revise", ScriptedMock(default="[Revise] redo it")), "resp", max_rounds=3
        )
        assert (rounds, approved) == (3, False)

    class Flaky:
        def __init__(self):
            self.count = 0
            self.fail_at = 6

        def complete(self, prompt):
            self.count += 1
            if self.count == self.fail_at:
                raise BackendFailure("outage", "flaky")
            return "[Approved]" if "self-judge" in prompt else "text"

        def describe(self):
            return {"kind": "flaky"}

    backend = Flaky()
    queries = [{"id": "q0", "query": "what is fair?"}]
    with pytest.raises(BackendFailure):
        run_synthesis(SynthConfig(backend=backend, max_rounds=3), queries, tmp_path)
    backend.fail_at = -1
    run_synthesis(SynthConfig(backend=backend, max_rounds=3), queries, tmp_path)
    # 5 cells x 4 steps (immediate approval), one failed call retried once
    assert backend.count == 20 + 1


NZL_QUESTION = (
    "Most people consider both freedom and equality to be important, but if you had "
    "to choose between them, which one would you consider more important?"
)
NZL_OPTIONS = ["Freedom", "Equality", "Don't know", "No answer"]
NZL_GOLD_FULL = [0.6709999999999999, 0.242, 0.061, 0.0, 0.026000000000000002]
NZL_PRED = [0.6049056212210604, 0.3230594648058141, 0.060349139731253465, 0.0116857742428727]
NZL_STANCES = {"Africa": "B", "America": "A", "Asia": "B", "Europe": "C", "Oceania": "A"}


def _nzl_setup():
    gold = normalize_distribution(NZL_GOLD_FULL[:4])
    item = OpinionItem(
        question=NZL_QUESTION, options=list(NZL_OPTIONS), gold=gold, country="NZL", qid="nzl-0"
    )
    agents = {
        c: ScriptedMock(default=f"[{c}] favours option {NZL_STANCES[c]}.", label=c)
        for c in CONTINENTS
    }
    meta = ScriptedMock(
        script=["Liberty-leaning synthesis for NZL keeping dissent visible.", json.dumps(NZL_PRED)],
        label="meta",
    )
    return item, agents, meta


@criterion("C9", "deterministic reports and the New Zealand case replay", 30)
def test_c09_pipeline_determinism_and_case_replay():
    reports = []
    for _ in range(2):
        item, agents, meta = _nzl_setup()
        config = PipelineConfig(agents=agents, meta=meta)
        reports.append(evaluate_country(config, [item], "NZL"))
    assert reports[0].to_json() == reports[1].to_json()

    # independent hand computation of S_align for the replayed case
    p_gen = [x / sum(NZL_PRED) for x in NZL_PRED]
    gold4 = NZL_GOLD_FULL[:4]
    p_gold = [x / sum(gold4) for x in gold4]
    mix = [(a + b) / 2.0 for a, b in zip(p_gen, p_gold)]

    def kl_bits(p, q):
        return sum(pi * math.log2(pi / qi) for pi, qi in zip(p, q) if pi > 0)

    expected = 1.0 - 0.5 * kl_bits(p_gen, mix) - 0.5 * kl_bits(p_gold, mix)
    got = reports[0].per_question[0]["s_align"]
    assert abs(got - expected) < 1e-6
    assert reports[0].per_question[0]["answer"] == "A"

    # perfect-oracle pipeline
    golds = [[0.5, 0.3, 0.2], [0.1, 0.2, 0.7]]
    items = [
        OpinionItem(question=f"q{i}", options=["a", "b", "c"], gold=g, country="X", qid=f"q{i}")
        for i, g in enumerate(golds)
    ]
    meta = ScriptedMock(script=[json.dumps(g) for g in golds])
    config = PipelineConfig(agents={}, meta=meta, no_draft=True)
    report = evaluate_country(config, items, "X")
    assert report.mean_s_align == pytest.approx(1.0, abs=1e-12)
    assert report.pearson_r == pytest.approx(1.0, abs=1e-12)


@criterion("C10", "ablation flags change exactly the intended call patterns", 10)
def test_c10_ablation_flags():
    # transcript equality with the prompting baseline
    item, agents, _ = _nzl_setup()
    meta_a = ScriptedMock(default=json.dumps(NZL_PRED), label="meta")
    config = PipelineConfig(agents=agents, meta=meta_a, no_draft=True, no_regulate=True)
    out_a = run_item(config, item, "NZL")
    meta_b = ScriptedMock(default=json.dumps(NZL_PRED), label="meta")
    out_b = final_decision(meta_b, "", item, "NZL")
    assert meta_a.calls == meta_b.calls
    assert out_a == out_b

    def patterns(no_draft=False, no_regulate=False):
        item, agents, _ = _nzl_setup()
        meta = ScriptedMock(
            script=["regulated", json.dumps(NZL_PRED)] if not (no_draft or no_regulate)
            else [json.dumps(NZL_PRED)],
            label="meta",
        )
        cfg = PipelineConfig(agents=agents, meta=meta, no_draft=no_draft, no_regulate=no_regulate)
        run_item(cfg, item, "NZL")
        return [len(agents[c].calls) for c in CONTINENTS], len(meta.calls)

    assert patterns() == ([1] * 5, 2)
    assert patterns(no_draft=True) == ([0] * 5, 1)
    assert patterns(no_regulate=True) == ([1] * 5, 1)

    # no_moerges: same prompt traffic, zero fusion events
    from palette.agent_pipeline import FusedLocalMeta
    from palette.gate_router import init_gate as _init_gate

    small = ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq=160, seed=3)
    base = init_model(small)
    experts = {
        c: init_model(ModelConfig(d_model=16, n_layers=1, n_heads=2, max_seq=160, seed=300 + i))
        for i, c in enumerate(CONTINENTS)
    }
    gate = _init_gate(base)
    item_small = OpinionItem(
        question="pick", options=["alpha", "beta"], gold=[0.5, 0.5], country="X", qid="q0"
    )
    fused_meta = FusedLocalMeta(base, experts, gate)
    with mock.patch("palette.agent_pipeline.moerges_fuse", wraps=moerges_fuse) as fuse:
        run_item(PipelineConfig(agents={}, meta=fused_meta, no_draft=True), item_small, "X")
    assert fuse.call_count == 1
    unfused_meta = FusedLocalMeta(base, experts, gate, no_fuse=True)
    with mock.patch("palette.agent_pipeline.moerges_fuse", wraps=moerges_fuse) as fuse:
        run_item(PipelineConfig(agents={}, meta=unfused_meta, no_draft=True), item_small, "X")
    assert fuse.call_count == 0
    assert unfused_meta.backend_for("X", "pick").model.to_checkpoint() == base


@criterion("C11", "checkpoint round-trips and malformed-header rejection", 5)
def test_c11_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(1111)
    for i in range(100):
        c = random_checkpoint(rng, n_tensors=int(rng.integers(1, 5)))
        if i % 3 == 0:
            c = Checkpoint(c.specs(), {**c.metadata, "idx": str(i)})
        path = tmp_path / f"c{i}.st"
        save_checkpoint(c, path)
        assert load_checkpoint(path) == c

    short = tmp_path / "short.st"
    short.write_bytes(b"\x00")
    with pytest.raises(MalformedHeader):
        load_checkpoint(short)

    garbage = tmp_path / "garbage.st"
    blob = b"][ not json"
    garbage.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(MalformedHeader):
        load_checkpoint(garbage)

    overlap = tmp_path / "overlap.st"
    header = json.dumps({
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
        "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
    }).encode()
    overlap.write_bytes(struct.pack("<Q", len(header)) + header + b"\x00" * 12)
    with pytest.raises(MalformedHeader):
        load_checkpoint(overlap)
