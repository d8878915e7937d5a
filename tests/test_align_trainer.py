import json
import math

import numpy as np
import pytest

from palette.align_trainer import (
    LossBreakdown,
    PreferenceRecord,
    TrainConfig,
    load_records_jsonl,
    loss_and_grads,
    mean_margin,
    save_records_jsonl,
    train,
)
from palette.errors import TooLong
from palette.reference_model import ModelConfig, TinyTransformer, encode_pair, init_model

from helpers import FIXTURE_RECORDS, GRAD_CHECK_RECORD, raises_code, tiny_model, toy_preference_dataset
from oracles import grad_check, orpo_loss, per_sequence_loss, per_sequence_margin, sequence_logprob

# Frozen from the first verified run on the seed-42 default model and
# cross-checked below against a straight-line recomputation of the formula.
FIXTURE_EXPECTED = [
    {"sft": 5.588432778210575, "contrastive": 2.8074373002224267, "total": 5.869176508232818},
    {"sft": 5.602157979599277, "contrastive": 2.83040465108264, "total": 5.885198444707541},
    {"sft": 5.566312423181635, "contrastive": 2.7596921956617955, "total": 5.842281642747815},
]


@pytest.fixture(scope="module")
def seed42_model():
    return init_model(ModelConfig())


def test_record_requires_four_rejections():
    with raises_code("wrong_rejection_count"):
        PreferenceRecord(query="q", preferred="p", rejected=("a", "b"))


@pytest.mark.parametrize("field, value, message", [
    ("rejected", "abcd", "'rejected' must be a list of strings"),
    ("rejected", ["a", "b", "c", 4], "'rejected' must be a list of strings"),
    ("query", 5, "'query' must be a string, got int"),
    ("preferred", None, "'preferred' must be a string, got NoneType"),
    ("continent", ["Asia"], "'continent' must be a string, got list"),
    ("rejected", ["a"], "expected 4 rejected responses, got 1"),
], ids=["rejected-string", "rejected-int", "query-int", "preferred-null", "continent-list", "rejected-one"])
def test_wrong_typed_record_is_bad_input_naming_the_line(tmp_path, field, value, message):
    good = {"query": "q", "preferred": "p", "rejected": ["a", "b", "c", "d"], "continent": "Asia"}
    path = tmp_path / "records.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with raises_code("bad_input") as exc:
        load_records_jsonl(path)
    assert str(exc.value) == f"{path}:2: {message}"
    assert exc.value.context == {"path": str(path), "line": 2}


def test_degenerate_equality_gives_4_ln2(seed42_model):
    record = PreferenceRecord(query="q?", preferred="same", rejected=("same",) * 4)
    lb = orpo_loss(seed42_model, record, 0.1)
    assert lb.per_rejection_ratios == (0.0, 0.0, 0.0, 0.0)
    assert abs(lb.contrastive - 4 * math.log(2)) < 1e-9
    assert abs(lb.total - (lb.sft + 0.1 * lb.contrastive)) < 1e-9


def test_lambda_zero_total_equals_sft(seed42_model):
    lb = orpo_loss(seed42_model, FIXTURE_RECORDS[0], 0.0)
    assert lb.total == lb.sft


def test_lambda_linearity(seed42_model):
    record = FIXTURE_RECORDS[1]
    base = orpo_loss(seed42_model, record, 0.0)
    for lam in (0.1, 0.5, 2.0):
        lb = orpo_loss(seed42_model, record, lam)
        assert abs(lb.total - (base.sft + lam * base.contrastive)) < 1e-9
        assert lb.sft == base.sft and lb.contrastive == base.contrastive


def test_frozen_fixture_values(seed42_model):
    for record, expected in zip(FIXTURE_RECORDS, FIXTURE_EXPECTED):
        lb = orpo_loss(seed42_model, record, 0.1)
        assert lb.sft == pytest.approx(expected["sft"], rel=1e-9)
        assert lb.contrastive == pytest.approx(expected["contrastive"], rel=1e-9)
        assert lb.total == pytest.approx(expected["total"], rel=1e-9)


def test_fixture_against_straight_line_reimplementation(seed42_model):
    # recompute the formula directly from sequence logprobs
    model = TinyTransformer.from_checkpoint(seed42_model)
    for record in FIXTURE_RECORDS:
        prompt, cont = encode_pair(record.query, record.preferred, model.cfg.max_seq)
        lp_pref = sequence_logprob(model, prompt, cont) / len(cont)
        sft = -lp_pref
        contrastive = 0.0
        for rej in record.rejected:
            prompt, cont = encode_pair(record.query, rej, model.cfg.max_seq)
            lp_rej = sequence_logprob(model, prompt, cont) / len(cont)
            ratio = lp_pref - lp_rej
            contrastive += -math.log(1.0 / (1.0 + math.exp(-ratio)))
        lb = orpo_loss(seed42_model, record, 0.1)
        assert lb.sft == pytest.approx(sft, abs=1e-9)
        assert lb.contrastive == pytest.approx(contrastive, abs=1e-9)


def test_contrastive_term_decreases_with_margin():
    # -log sigmoid(r) at r=0 is ln 2 and strictly decreases as r grows
    def term(r):
        return -math.log(1.0 / (1.0 + math.exp(-r)))

    assert term(0.0) == pytest.approx(math.log(2))
    values = [term(r) for r in (-1.0, 0.0, 0.5, 1.0, 3.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_grad_check_small_model():
    params = tiny_model()
    err = grad_check(params, GRAD_CHECK_RECORD, lam=0.1, epsilon=1e-4, n_samples=60, seed=1)
    assert err < 1e-3


def test_grad_check_sft_only():
    params = tiny_model()
    err = grad_check(params, GRAD_CHECK_RECORD, lam=0.0, epsilon=1e-4, n_samples=60, seed=2)
    assert err < 1e-3


def test_grad_check_variants():
    params = tiny_model()
    assert grad_check(params, GRAD_CHECK_RECORD, 0.1, 1e-4, 30, 3, score="odds") < 1e-3
    assert grad_check(params, GRAD_CHECK_RECORD, 0.1, 1e-4, 30, 4, score="sum") < 1e-3


def test_grad_check_epsilon_guard():
    with pytest.raises(ValueError):
        grad_check(tiny_model(), GRAD_CHECK_RECORD, epsilon=1.0)


def test_zero_head_gradients_finite():
    params = tiny_model()
    model = TinyTransformer.from_checkpoint(params)
    model.params["head.out"][:] = 0.0
    _, grads = loss_and_grads(model, GRAD_CHECK_RECORD, 0.1)
    for g in grads.values():
        assert np.isfinite(g).all()


def test_true_odds_mode_differs():
    params = tiny_model()
    plain = orpo_loss(params, GRAD_CHECK_RECORD, 0.1)
    odds = orpo_loss(params, GRAD_CHECK_RECORD, 0.1, score="odds")
    assert plain.contrastive != odds.contrastive


def test_raw_sum_mode_differs():
    params = tiny_model()
    plain = orpo_loss(params, GRAD_CHECK_RECORD, 0.1)
    raw = orpo_loss(params, GRAD_CHECK_RECORD, 0.1, score="sum")
    assert plain.per_rejection_ratios != raw.per_rejection_ratios


def test_too_long_record():
    params = tiny_model(max_seq=32)
    record = PreferenceRecord(query="x" * 40, preferred="y", rejected=("a", "b", "c", "d"))
    with pytest.raises(TooLong) as exc:
        orpo_loss(params, record, 0.1)
    assert exc.value.context == {"record": None, "field": "preferred"}
    # The query fits with every reply but the third rejected one.
    fits = PreferenceRecord(query="q" * 20, preferred="y", rejected=("a", "b", "c", "d"))
    long_reply = PreferenceRecord(query="q" * 20, preferred="y", rejected=("a", "b", "c" * 12, "d"))
    for run in (mean_margin, lambda p, ds: train(p, ds, TrainConfig())):
        with pytest.raises(TooLong) as exc:
            run(params, [fits, long_reply])
        assert exc.value.context == {"record": 1, "field": "rejected[2]"}


def test_train_zero_lr_is_identity():
    params = tiny_model()
    ds = toy_preference_dataset(n_queries=2)
    cfg = TrainConfig(learning_rate=0.0, epochs=1, batch_size=4, seed=0)
    trained, _ = train(params, ds, cfg)
    assert trained == params


def test_train_empty_dataset():
    with raises_code("empty_dataset"):
        train(tiny_model(), [], TrainConfig())


def test_train_loss_decreases_and_margin_increases():
    params = tiny_model(d_model=32, n_heads=4)
    ds = toy_preference_dataset(n_queries=8)
    cfg = TrainConfig(lam=0.1, learning_rate=3e-4, epochs=2, batch_size=8, seed=42)
    _, report = train(params, ds, cfg)
    assert report.epoch_total[1] < report.epoch_total[0]
    assert report.final_margin > report.initial_margin


def test_train_is_bit_deterministic():
    params = tiny_model()
    ds = toy_preference_dataset(n_queries=3)
    cfg = TrainConfig(epochs=1, batch_size=4, seed=9)
    out1, rep1 = train(params, ds, cfg)
    out2, rep2 = train(params, ds, cfg)
    assert out1 == out2
    assert rep1.to_dict() == rep2.to_dict()


def test_train_report_fingerprint_is_pinned():
    # The fingerprint records the MOMENTUM constant beside the TrainConfig
    # fields, and each score as the two flags it once was; align report
    # bytes rest on these values.
    pinned = {"mean": "7bd6d8882fe8869d", "odds": "974088d95d3aa91b", "sum": "a4ff8c2ab5d03ecd"}
    for score, want in pinned.items():
        _, report = train(tiny_model(), [GRAD_CHECK_RECORD], TrainConfig(score=score))
        assert report.config_fingerprint == want, score


def test_unknown_score_is_refused():
    with pytest.raises(ValueError, match="score must be one of"):
        TrainConfig(score="bogus")
    with pytest.raises(ValueError, match="score must be one of"):
        loss_and_grads(tiny_model(), GRAD_CHECK_RECORD, 0.1, score="bogus")


def test_mean_margin_matches_direct_computation():
    params = tiny_model()
    ds = toy_preference_dataset(n_queries=1)
    model = TinyTransformer.from_checkpoint(params)
    expected = 0.0
    for rec in ds:
        p, c = encode_pair(rec.query, rec.preferred, model.cfg.max_seq)
        lp = sequence_logprob(model, p, c) / len(c)
        rej = 0.0
        for r in rec.rejected:
            p, c = encode_pair(rec.query, r, model.cfg.max_seq)
            rej += sequence_logprob(model, p, c) / len(c)
        expected += lp - rej / 4
    expected /= len(ds)
    assert mean_margin(params, ds) == pytest.approx(expected, abs=1e-12)


def test_records_jsonl_round_trip(tmp_path):
    ds = toy_preference_dataset(n_queries=2)
    path = tmp_path / "records.jsonl"
    save_records_jsonl(ds, path)
    loaded = load_records_jsonl(path)
    assert loaded == ds


def test_loss_breakdown_total_invariant(seed42_model):
    lb = orpo_loss(seed42_model, FIXTURE_RECORDS[2], 0.37)
    assert isinstance(lb, LossBreakdown)
    assert abs(lb.total - (lb.sft + 0.37 * lb.contrastive)) < 1e-9


# Replies of unequal lengths, and an empty one: its continuation is [EOS], so
# it is scored from the prompt's last row alone and adds no continuation pass.
SHARED_PROMPT_RECORDS = toy_preference_dataset(n_queries=2) + [
    GRAD_CHECK_RECORD,
    PreferenceRecord(query="tea or coffee?", preferred="", rejected=("tea", "coffee, strong", "", "a long answer here")),
]


@pytest.mark.parametrize("score", ["mean", "odds", "sum"], ids=["default", "true_odds", "raw_sums"])
def test_shared_prompt_loss_and_grads_match_the_per_sequence_oracle(score):
    model = TinyTransformer.from_checkpoint(tiny_model())
    for record in SHARED_PROMPT_RECORDS:
        lb, grads = loss_and_grads(model, record, 0.1, score=score)
        want, want_grads = per_sequence_loss(model, record, 0.1, score, with_traces=True)
        for name, g in want_grads.items():
            assert np.max(np.abs(grads[name] - g)) <= 1e-12 * np.max(np.abs(g)), name
        for got in (lb, orpo_loss(model, record, 0.1, score=score)):
            for key in ("sft", "contrastive", "total"):
                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=0.0)
            assert got.per_rejection_ratios == pytest.approx(want.per_rejection_ratios, rel=0.0, abs=1e-12)


def test_mean_margin_matches_the_per_sequence_oracle():
    model = TinyTransformer.from_checkpoint(tiny_model())
    want = per_sequence_margin(model, SHARED_PROMPT_RECORDS)
    assert mean_margin(model, SHARED_PROMPT_RECORDS) == pytest.approx(want, rel=0.0, abs=1e-12)
