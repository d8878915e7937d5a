import itertools
import re

import numpy as np
import pytest

from palette.errors import EmptySelectionWarning
from palette.tensor_store import Checkpoint
from palette import merge_engine
from palette.merge_engine import (
    _trim_top_magnitude,
    model_stock,
    moerges_fuse,
    task_arithmetic,
    ties_merge,
)

from helpers import ckpt, like, raises_code, random_checkpoint
from oracles import (
    as_lists,
    bf_model_stock,
    bf_moerges,
    bf_task_arithmetic,
    bf_ties,
    lexsort_trim_top_magnitude,
    max_abs_diff,
)


# --- task arithmetic ---------------------------------------------------------

def test_task_arithmetic_identity():
    rng = np.random.default_rng(0)
    base = random_checkpoint(rng)
    expert = like(base, rng)
    out = task_arithmetic(base, [expert], [1.0])
    for name in base.names:
        assert np.allclose(out[name].data, expert[name].data, atol=1e-7)


def test_task_arithmetic_hand_example():
    base = ckpt(w=[0.0])
    out = task_arithmetic(base, [ckpt(w=[2.0]), ckpt(w=[4.0])], [0.5, 0.5])
    assert out["w"].data[0] == pytest.approx(3.0)


def test_task_arithmetic_zero_coeffs():
    rng = np.random.default_rng(1)
    base = random_checkpoint(rng)
    out = task_arithmetic(base, [like(base, rng), like(base, rng)], [0.0, 0.0])
    assert out == Checkpoint(base.specs(), base.metadata)


def test_task_arithmetic_coeff_count_guard():
    base = ckpt(w=[0.0])
    with raises_code("schema_mismatch"):
        task_arithmetic(base, [ckpt(w=[1.0])], [1.0, 2.0])


# --- ties ---------------------------------------------------------------------

def test_ties_single_expert_equals_task_arithmetic():
    rng = np.random.default_rng(2)
    base = random_checkpoint(rng)
    expert = like(base, rng)
    t = ties_merge(base, [expert], density=1.0, scale=1.0)
    ta = task_arithmetic(base, [expert], [1.0])
    for name in base.names:
        assert np.array_equal(t[name].data, ta[name].data)


def test_ties_sign_exclusion_hand_example():
    base = ckpt(w=[0.0, 0.0])
    out = ties_merge(base, [ckpt(w=[2.0, -1.0]), ckpt(w=[1.0, 3.0])], density=1.0)
    assert list(out["w"].data) == [1.5, 3.0]


def test_ties_density_guard():
    base = ckpt(w=[0.0])
    for density in (0.0, -0.5, 1.5):
        with raises_code("bad_density"):
            ties_merge(base, [ckpt(w=[1.0])], density=density)


def test_ties_scale_guard():
    base = ckpt(w=[0.0])
    for scale in (float("nan"), float("inf"), -float("inf")):
        with raises_code("schema_mismatch", match="scale must be finite"):
            ties_merge(base, [ckpt(w=[1.0])], density=0.5, scale=scale)


def test_ties_exhaustive_small_integer_vectors():
    # every pair of integer task vectors of length 1 and 2, entries in -2..2
    grid = [-2.0, -1.0, 0.0, 1.0, 2.0]
    for length in (1, 2):
        vectors = list(itertools.product(grid, repeat=length))
        for t1 in vectors:
            for t2 in vectors:
                base = ckpt(w=[0.0] * length)
                experts = [ckpt(w=list(t1)), ckpt(w=list(t2))]
                for density in (0.5, 1.0):
                    got = ties_merge(base, experts, density=density, scale=1.0)
                    want = bf_ties(
                        as_lists(base), [as_lists(e) for e in experts], density, 1.0
                    )
                    assert max_abs_diff(got, want) < 1e-6, (t1, t2, density)


def test_ties_magnitude_tie_breaks_by_lower_index():
    # |2| ties with |-2|; density 0.5 keeps one entry: the lower index
    base = ckpt(w=[0.0, 0.0])
    out = ties_merge(base, [ckpt(w=[-2.0, 2.0])], density=0.5)
    assert list(out["w"].data) == [-2.0, 0.0]


NAN, INF = float("nan"), float("inf")
TRIM_CASES = {
    "ties_at_threshold": [3.0, -3.0, 1.0, 2.0, -2.0, 3.0, 1.0, -1.0, 2.0, -3.0, 2.0, -1.0],
    "signed_zeros": [0.0, -0.0, 0.5, -0.0, 0.0, -0.5, 0.0, -0.0],
    "nan": [NAN, 2.0, -2.0, NAN, 0.0, 1.0, NAN, -1.0, NAN, -0.0],
    "all_nan_but_one": [NAN, NAN, -0.0, NAN, NAN],
    "inf": [INF, -INF, 1.0, NAN, INF, -2.0, 0.0, -INF, 2.0],
    "random_integers": np.where(
        np.random.default_rng(12).random(64) < 0.15,
        NAN,
        np.random.default_rng(13).integers(-3, 4, 64),
    ).tolist(),
}


@pytest.mark.parametrize("values", TRIM_CASES.values(), ids=TRIM_CASES.keys())
def test_trim_top_magnitude_matches_the_sort_oracle(values):
    # every keep from 1 to past the size, so NaN counts fall on both sides of size - keep
    tau = np.array(values)
    for keep in range(1, tau.size + 2):
        got = _trim_top_magnitude(tau, keep)
        want = lexsort_trim_top_magnitude(tau, keep)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), keep
        if keep >= tau.size:
            assert not np.shares_memory(got, tau)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_ties_non_finite_entries_poison_only_their_own_index():
    # An unmatched NaN or inf makes the mean at its index NaN when another entry matched.
    base = ckpt(w=[0.0, 0.0, 0.0, 0.0])
    experts = [ckpt(w=[NAN, NAN, INF, INF]), ckpt(w=[-1.0, 1.0, -INF, -1.0])]
    out = ties_merge(base, experts, density=1.0)["w"].data
    assert np.array_equal(out, [NAN, 0.0, NAN, INF], equal_nan=True)


def _integer_ties_case():
    rng = np.random.default_rng(14)
    base = ckpt(w=rng.integers(-2, 3, 12_000), b=rng.integers(-2, 3, 300))
    experts = [
        ckpt(**{name: spec.data + rng.integers(-3, 4, spec.data.size) for name, spec in base.items()})
        for _ in range(5)
    ]
    return base, experts


def test_ties_integer_task_vectors_match_the_sort_oracle(monkeypatch):
    base, experts = _integer_ties_case()
    base_l, experts_l = as_lists(base), [as_lists(e) for e in experts]
    for density, scale in ((0.2, 1.0), (0.5, 0.7), (0.95, -1.0)):
        got = ties_merge(base, experts, density, scale)
        with monkeypatch.context() as patch:
            patch.setattr(merge_engine, "_trim_top_magnitude", lexsort_trim_top_magnitude)
            want = ties_merge(base, experts, density, scale)
        brute = bf_ties(base_l, experts_l, density, scale)
        for name in base.names:
            assert got[name].data.tobytes() == want[name].data.tobytes(), (name, density)
            assert got[name].data.tobytes() == np.float32(brute[name]).tobytes(), (name, density)


def test_ties_merge_does_not_sort(monkeypatch):
    base, experts = _integer_ties_case()
    want = ties_merge(base, experts, 0.2)

    def refuse(*args, **kwargs):
        raise AssertionError("ties_merge sorted an array")

    for name in ("lexsort", "argsort", "sort"):
        monkeypatch.setattr(np, name, refuse)
    got = ties_merge(base, experts, 0.2)
    assert got == want


# --- model stock ----------------------------------------------------------------

def test_model_stock_identical_experts():
    rng = np.random.default_rng(3)
    base = random_checkpoint(rng)
    expert = like(base, rng)
    out = model_stock(base, [expert, expert])
    for name in base.names:
        assert np.allclose(out[name].data, expert[name].data, atol=1e-6)


def test_model_stock_orthogonal_equal_norm_returns_base():
    base = ckpt(w=[0.0, 0.0])
    out = model_stock(base, [ckpt(w=[1.0, 0.0]), ckpt(w=[0.0, 1.0])])
    assert np.allclose(out["w"].data, [0.0, 0.0])


def test_model_stock_hand_example():
    base = ckpt(w=[0.0, 0.0])
    out = model_stock(base, [ckpt(w=[1.0, 0.0]), ckpt(w=[1.0, 1.0])])
    t = 2 * (1 / np.sqrt(2)) / (1 + 1 / np.sqrt(2))
    assert np.allclose(out["w"].data, [t * 1.0, t * 0.5], atol=1e-6)


def test_model_stock_opposite_taus_returns_base():
    base = ckpt(w=[0.0, 0.0])
    out = model_stock(base, [ckpt(w=[1.0, 1.0]), ckpt(w=[-1.0, -1.0])])
    assert np.allclose(out["w"].data, [0.0, 0.0])


def test_model_stock_needs_two_experts():
    base = ckpt(w=[0.0])
    with raises_code("too_few_experts"):
        model_stock(base, [ckpt(w=[1.0])])


# --- moerges fusion ----------------------------------------------------------------

def _ffn_base(rng):
    names = ["layer0.ffn.w_in", "layer0.ffn.w_out", "layer0.attn.q", "embed.tok"]
    return ckpt(**{n: rng.normal(size=4) for n in names})


def test_moerges_one_hot_selects_expert():
    rng = np.random.default_rng(4)
    base = _ffn_base(rng)
    experts = [like(base, rng) for _ in range(3)]
    out = moerges_fuse(base, experts, [0.0, 1.0, 0.0])
    for name in base.names:
        if ".ffn." in name:
            assert np.array_equal(out[name].data, experts[1][name].data)
        else:
            assert np.array_equal(out[name].data, base[name].data)


def test_moerges_hand_example():
    base = ckpt(**{"l.ffn.w": [0.0]})
    out = moerges_fuse(base, [ckpt(**{"l.ffn.w": [2.0]}), ckpt(**{"l.ffn.w": [4.0]})], [0.5, 0.5])
    assert out["l.ffn.w"].data[0] == pytest.approx(3.0)


def test_moerges_uniform_gate_identical_experts():
    rng = np.random.default_rng(5)
    base = _ffn_base(rng)
    expert = like(base, rng)
    out = moerges_fuse(base, [expert] * 5, [0.2] * 5)
    for name in base.names:
        if ".ffn." in name:
            assert np.allclose(out[name].data, expert[name].data, atol=1e-7)


def test_moerges_records_gate_metadata():
    base = ckpt(**{"l.ffn.w": [0.0]})
    out = moerges_fuse(base, [ckpt(**{"l.ffn.w": [1.0]})] * 2, [0.25, 0.75])
    assert out.metadata["gate"] == "0.25,0.75"


def test_moerges_gate_validation():
    base = ckpt(**{"l.ffn.w": [0.0]})
    experts = [ckpt(**{"l.ffn.w": [1.0]})] * 2
    with raises_code("gate_dimension_mismatch"):
        moerges_fuse(base, experts, [1.0])
    with raises_code("unnormalized_gate"):
        moerges_fuse(base, experts, [0.6, 0.6])


def test_moerges_fuses_exactly_the_ffn_tensors():
    names = ["a.ffn.b", "x.y.ffn.z", "a[.ffn.]", "ffn.b", "a.ffn", "a.ffnb.c", "a.ffn.b\n", "a\n.ffn.b"]
    base = ckpt(**{n: [0.0] for n in names})
    out = moerges_fuse(base, [ckpt(**{n: [1.0] for n in names})], [1.0])
    assert [n for n in out.names if out[n].data[0] == 1.0] == sorted(["a.ffn.b", "x.y.ffn.z", "a[.ffn.]"])


def test_moerges_without_ffn_tensors_warns_and_copies_the_base():
    base = ckpt(w=[0.0])
    with pytest.warns(EmptySelectionWarning, match=re.escape("pattern '*.ffn.*' matched no tensors")):
        out = moerges_fuse(base, [ckpt(w=[1.0])], [1.0])
    assert out["w"] == base["w"]


def test_moerges_gate_linearity_on_raw_sum():
    rng = np.random.default_rng(7)
    base = _ffn_base(rng)
    experts = [like(base, rng) for _ in range(3)]
    names = [n for n in base.names if ".ffn." in n]
    g1, g2 = [0.1, 0.3, 0.6], [0.5, 0.25, 0.25]
    s1 = moerges_fuse(base, experts, g1)
    s2 = moerges_fuse(base, experts, g2)
    s12 = moerges_fuse(base, experts, [0.25 * a + 0.75 * b for a, b in zip(g1, g2)])
    for name in names:
        assert np.allclose(0.25 * s1[name].data + 0.75 * s2[name].data, s12[name].data, atol=1e-6)


# --- shared properties -----------------------------------------------------------

def test_schema_mismatch_raises_for_all_methods():
    base = ckpt(w=[0.0], v=[0.0])
    bad = ckpt(w=[0.0])
    with raises_code("schema_mismatch"):
        task_arithmetic(base, [bad], [1.0])
    with raises_code("schema_mismatch"):
        ties_merge(base, [bad], 1.0)
    with raises_code("schema_mismatch"):
        model_stock(base, [bad, bad])
    with raises_code("schema_mismatch"):
        moerges_fuse(base, [bad], [1.0])


def test_permutation_equivariance():
    rng = np.random.default_rng(8)
    base = _ffn_base(rng)
    experts = [like(base, rng) for _ in range(3)]
    coeffs = [0.5, -0.25, 1.5]
    gate = [0.2, 0.3, 0.5]
    perm = [2, 0, 1]

    a = task_arithmetic(base, experts, coeffs)
    b = task_arithmetic(base, [experts[i] for i in perm], [coeffs[i] for i in perm])
    for name in base.names:
        assert np.allclose(a[name].data, b[name].data, atol=1e-6)

    a = ties_merge(base, experts, 0.5)
    b = ties_merge(base, [experts[i] for i in perm], 0.5)
    for name in base.names:
        assert np.allclose(a[name].data, b[name].data, atol=1e-6)

    a = model_stock(base, experts)
    b = model_stock(base, [experts[i] for i in perm])
    for name in base.names:
        assert np.allclose(a[name].data, b[name].data, atol=1e-6)

    a = moerges_fuse(base, experts, gate)
    b = moerges_fuse(base, [experts[i] for i in perm], [gate[i] for i in perm])
    for name in base.names:
        assert np.allclose(a[name].data, b[name].data, atol=1e-6)


@pytest.mark.filterwarnings("ignore::palette.errors.EmptySelectionWarning")
def test_brute_force_oracle_equivalence_sampled():
    rng = np.random.default_rng(9)
    for trial in range(40):
        n_experts = int(rng.integers(1, 6))
        base = random_checkpoint(rng, n_tensors=2, prefix="x.ffn." if trial % 2 else "")
        experts = [like(base, rng) for _ in range(n_experts)]
        base_l, experts_l = as_lists(base), [as_lists(e) for e in experts]

        coeffs = [float(c) for c in rng.uniform(-1.5, 1.5, n_experts)]
        got = task_arithmetic(base, experts, coeffs)
        assert max_abs_diff(got, bf_task_arithmetic(base_l, experts_l, coeffs)) < 1e-6

        density = float(rng.uniform(0.1, 1.0))
        got = ties_merge(base, experts, density, 0.8)
        assert max_abs_diff(got, bf_ties(base_l, experts_l, density, 0.8)) < 1e-6

        if n_experts >= 2:
            got = model_stock(base, experts)
            assert max_abs_diff(got, bf_model_stock(base_l, experts_l)) < 1e-6

        raw = rng.uniform(0.05, 1.0, n_experts)
        gate = [float(g) for g in raw / raw.sum()]
        got = moerges_fuse(base, experts, gate)
        ffn = {n for n in base.names if n.startswith("x.ffn.")}
        assert max_abs_diff(got, bf_moerges(base_l, experts_l, gate, ffn)) < 1e-6
