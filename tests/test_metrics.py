import math

import numpy as np
import pytest

from palette.errors import EndpointUnreachable
from palette.metrics import (
    alignment_score,
    kl,
    normalize_distribution,
    pearson,
    semantic_score,
)

from helpers import MockScorerServer, ReplyServer, raises_code, token_overlap_score

# Sample Pearson for ([1,2,3],[2,4,7]) is 15/sqrt(228); acceptance check C6b
# pins the same value.
PEARSON_123_247 = 15.0 / math.sqrt(228.0)


def test_kl_self_is_zero():
    assert kl([0.3, 0.7], [0.3, 0.7]) == 0.0


def test_kl_one_hot_vs_uniform_is_one_bit():
    assert kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_kl_support_violation():
    with raises_code("support_violation"):
        kl([0.5, 0.5], [1.0, 0.0])


def test_kl_length_mismatch():
    with raises_code("length_mismatch"):
        kl([0.5, 0.5], [0.2, 0.3, 0.5])


def test_kl_nonnegative_fuzz():
    rng = np.random.default_rng(0)
    for _ in range(500):
        n = int(rng.integers(2, 7))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        m = (p + q) / 2
        assert kl(list(p), list(m)) >= 0.0


def test_alignment_identical_is_one():
    assert alignment_score([0.25, 0.75], [0.25, 0.75]) == 1.0


def test_alignment_disjoint_is_zero():
    assert alignment_score([1.0, 0.0], [0.0, 1.0]) == 0.0


def test_alignment_closed_form():
    assert alignment_score([1.0, 0.0], [0.5, 0.5]) == pytest.approx(0.688722, abs=1e-5)


def test_alignment_matches_scipy_jensenshannon():
    from scipy.spatial.distance import jensenshannon

    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        expected = 1.0 - jensenshannon(p, q, base=2) ** 2
        assert alignment_score(list(p), list(q)) == pytest.approx(expected, abs=1e-9)


def test_alignment_symmetric():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4))
        assert abs(alignment_score(list(p), list(q)) - alignment_score(list(q), list(p))) < 1e-12


def test_alignment_bounds_fuzz():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        n = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(n) * float(rng.uniform(0.2, 3.0)))
        q = rng.dirichlet(np.ones(n) * float(rng.uniform(0.2, 3.0)))
        s = alignment_score(list(p), list(q))
        assert 0.0 <= s <= 1.0


def test_alignment_one_iff_equal():
    rng = np.random.default_rng(4)
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        s = alignment_score(list(p), list(q))
        if np.allclose(p, q, atol=1e-9):
            assert s == pytest.approx(1.0, abs=1e-12)
        else:
            assert s < 1.0


def test_pearson_self_and_anti():
    v = [1.0, 2.0, 5.0, 3.0]
    assert pearson(v, v) == pytest.approx(1.0, abs=1e-12)
    assert pearson(v, [-x for x in v]) == pytest.approx(-1.0, abs=1e-12)


def test_pearson_hand_value():
    assert pearson([1, 2, 3], [2, 4, 7]) == pytest.approx(PEARSON_123_247, abs=1e-12)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(5)
    x = list(rng.normal(size=10))
    y = list(rng.normal(size=10))
    r = pearson(x, y)
    assert pearson([3.0 * v + 2.0 for v in x], y) == pytest.approx(r, abs=1e-9)
    assert pearson(x, [0.5 * v - 7.0 for v in y]) == pytest.approx(r, abs=1e-9)


@pytest.mark.parametrize("x, y, r", [
    ([1e200, -1e200, 0.0], [1, 2, 3], -0.5),  # the squared deviations overflow unscaled
    ([1e308, -1e308], [1e308, -1e308], 1.0),  # so do the deviations themselves
    ([1e-200, 2e-200, 3e-200], [2, 4, 7], PEARSON_123_247),  # the squared deviations underflow unscaled
], ids=["overflow", "overflow-deviations", "underflow"])
def test_pearson_at_extreme_magnitudes(x, y, r):
    assert pearson(x, y) == pytest.approx(r, abs=1e-12)


def test_pearson_degenerate_returns_none():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None


def test_pearson_guards():
    with raises_code("length_mismatch"):
        pearson([1.0], [1.0])
    with raises_code("length_mismatch"):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x contains non-finite entries"):
            pearson([bad, 1.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="y contains non-finite entries"):
            pearson([1.0, 2.0], [1.0, bad])


def test_normalize_uniform():
    assert normalize_distribution([2.0, 2.0]) == [0.5, 0.5]


def test_normalize_already_normalized_survey_gold():
    gold = [0.6709999999999999, 0.242, 0.061, 0.0, 0.026000000000000002]
    out = normalize_distribution(gold)
    assert np.allclose(out, gold, atol=1e-9)


def test_normalize_guards():
    with raises_code("all_zero"):
        normalize_distribution([0.0, 0.0])
    with raises_code("negative_entry"):
        normalize_distribution([0.5, -0.1])


def test_token_overlap_identity():
    assert token_overlap_score("the same words", "the same words") == 1.0


def test_token_overlap_partial():
    assert token_overlap_score("a b c d", "a b x y") == pytest.approx(2.0 / 6.0)


def test_semantic_score_against_mock_server(sleeps):
    with MockScorerServer() as server:
        assert semantic_score(server.base_url, "identical text", "identical text") == 1.0
    assert sleeps == []


def test_semantic_score_constant_mock_value(sleeps):
    with MockScorerServer(score_fn=lambda p, h: 0.8927) as server:
        score = semantic_score(server.base_url, "gold answer", "generated answer")
        assert score == pytest.approx(0.8927)
    assert sleeps == []


def test_semantic_score_sends_bearer_token(monkeypatch, sleeps):
    monkeypatch.setenv("PALETTE_NLI_TOKEN", "sekrit")
    with MockScorerServer() as server:
        semantic_score(server.base_url, "a", "b")
        assert server.requests_seen[-1]["auth"] == "Bearer sekrit"
        assert server.requests_seen[-1]["body"] == {"premise": "a", "hypothesis": "b"}


def test_semantic_score_empty_text():
    with raises_code("empty_text"):
        semantic_score("http://127.0.0.1:1", "", "x")


def test_semantic_score_unreachable_after_retries(sleeps):
    with pytest.raises(EndpointUnreachable):
        semantic_score("http://127.0.0.1:1", "a", "b")
    assert sleeps == [0.25, 0.5]


def test_semantic_score_malformed_response(sleeps):
    with ReplyServer([(200, b'{"not_score": 1}')]) as server:
        with raises_code("malformed_scorer_response"):
            semantic_score(server.base_url, "a", "b")
    assert sleeps == []


def test_semantic_score_out_of_range_score(sleeps):
    with MockScorerServer(score_fn=lambda p, h: 1.5) as server:
        with raises_code("malformed_scorer_response"):
            semantic_score(server.base_url, "a", "b")
    assert sleeps == []


def test_semantic_score_shares_the_chat_retry_rule(sleeps):
    with ReplyServer([(503, b"{}"), (200, b'{"score": 0.5}')]) as server:
        assert semantic_score(server.base_url, "a", "b") == 0.5
    assert len(server.requests_seen) == 2
    assert sleeps == [0.25]
    with ReplyServer([(404, b"{}")]) as server:
        with pytest.raises(EndpointUnreachable) as exc:
            semantic_score(server.base_url, "a", "b")
    assert exc.value.context == {"url": server.base_url + "/score", "status": 404}
    assert len(server.requests_seen) == 1
    assert sleeps == [0.25]
