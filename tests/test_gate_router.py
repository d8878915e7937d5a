import json
import math

import numpy as np
import pytest

from palette.common import CONTINENTS
from palette.gate_router import (
    DEFAULT_SYSTEM_PROMPTS,
    GateMatrix,
    init_gate,
    load_gate,
    route,
    route_prompt,
    save_gate,
    softmax_weights,
)
from palette.reference_model import ModelConfig, init_model
from palette.tensor_store import Checkpoint, TensorSpec, load_checkpoint, save_checkpoint

from helpers import raises_code

# Frozen once from the seed-42 default model with the default system prompts.
SEED42_WG_ROW0 = [
    -0.08154203696250416,
    -0.06350685241498177,
    -0.09148458095951252,
    -0.05501328048376208,
    -0.0942792598750129,
]
SEED42_COS_ROW0 = [
    0.9929147100097051,
    0.9898871152213404,
    0.9831899257789184,
    0.9916603191020218,
]


@pytest.fixture(scope="module")
def seed42_model():
    return init_model(ModelConfig())


@pytest.fixture(scope="module")
def seed42_gate(seed42_model):
    return init_gate(seed42_model)


def test_softmax_uniform():
    w = softmax_weights([3.0] * 5)
    assert np.allclose(w, 0.2, atol=1e-12)


def test_softmax_closed_form_one_hot_logit():
    w = softmax_weights([1.0, 0.0, 0.0, 0.0, 0.0])
    e = math.e
    assert w[0] == pytest.approx(e / (e + 4), abs=1e-12)
    for i in range(1, 5):
        assert w[i] == pytest.approx(1 / (e + 4), abs=1e-12)


def test_softmax_sums_to_one_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        z = rng.normal(scale=5.0, size=5)
        assert abs(softmax_weights(z).sum() - 1.0) < 1e-9


def test_softmax_shift_invariance():
    rng = np.random.default_rng(7)
    for _ in range(100):
        z = rng.normal(size=5)
        c = float(rng.normal(scale=10.0))
        assert np.allclose(softmax_weights(z), softmax_weights(z + c), atol=1e-9)


def test_route_scaling_preserves_argmax(seed42_gate):
    rng = np.random.default_rng(11)
    for _ in range(50):
        hidden = rng.normal(size=seed42_gate.d_model)
        base = route(hidden, seed42_gate)
        for lam in (0.1, 2.0, 37.5):
            scaled = route(lam * hidden, seed42_gate)
            assert np.argmax(scaled) == np.argmax(base)


def test_route_strictly_inside_simplex(seed42_gate):
    rng = np.random.default_rng(13)
    for _ in range(100):
        w = route(rng.normal(size=seed42_gate.d_model), seed42_gate)
        assert all(0.0 < v < 1.0 for v in w)
        assert abs(sum(w) - 1.0) < 1e-9


def test_route_guards(seed42_gate):
    with raises_code("dimension_mismatch"):
        route(np.zeros(3), seed42_gate)
    bad = np.zeros(seed42_gate.d_model)
    bad[0] = np.nan
    with raises_code("non_finite_input"):
        route(bad, seed42_gate)


def test_init_gate_deterministic(seed42_model, seed42_gate):
    again = init_gate(seed42_model)
    assert np.array_equal(seed42_gate.matrix, again.matrix)


def test_init_gate_identical_prompts_uniform_routing(seed42_model):
    gate = init_gate(seed42_model, dict.fromkeys(CONTINENTS, "same prompt"))
    w = route_prompt(seed42_model, gate, "anything at all")
    assert np.allclose(list(w), 0.2, atol=1e-9)


def test_init_gate_empty_prompt_guard(seed42_model):
    with raises_code("empty_prompt"):
        init_gate(seed42_model, dict(zip(CONTINENTS, ["a", "b", "", "d", "e"])))


def test_init_gate_regression_fixture(seed42_gate):
    assert np.allclose(seed42_gate.matrix[0, :], SEED42_WG_ROW0, rtol=1e-9, atol=1e-12)
    cos = seed42_gate.matrix.T @ seed42_gate.matrix
    assert np.allclose(cos[0, 1:], SEED42_COS_ROW0, rtol=1e-9, atol=1e-12)


def test_init_gate_columns_pairwise_distinct(seed42_gate):
    cos = seed42_gate.matrix.T @ seed42_gate.matrix
    off = cos[~np.eye(5, dtype=bool)]
    assert np.all(off < 1.0 - 1e-6)


def test_self_match_property(seed42_model, seed42_gate):
    for continent in CONTINENTS:
        w = route_prompt(seed42_model, seed42_gate, DEFAULT_SYSTEM_PROMPTS[continent])
        assert CONTINENTS[int(np.argmax(w))] == continent


def test_route_prompt_deterministic(seed42_model, seed42_gate):
    a = route_prompt(seed42_model, seed42_gate, "what do people value?")
    b = route_prompt(seed42_model, seed42_gate, "what do people value?")
    assert tuple(a) == tuple(b)


def test_route_prompt_empty_prompt_is_valid(seed42_model, seed42_gate):
    w = route_prompt(seed42_model, seed42_gate, "")
    assert abs(sum(w) - 1.0) < 1e-9
    assert all(0.0 < v < 1.0 for v in w)


def test_gate_save_load_round_trip(tmp_path, seed42_model, seed42_gate):
    path = tmp_path / "gate.st"
    save_gate(seed42_gate, path)
    loaded = load_gate(path, seed42_model)
    assert load_checkpoint(path).metadata["normalized"] == "true"
    # f32 storage then re-normalization: columns match to f32 precision
    assert np.allclose(loaded.matrix, seed42_gate.matrix, atol=1e-6)
    for continent in CONTINENTS:
        w = route_prompt(seed42_model, loaded, DEFAULT_SYSTEM_PROMPTS[continent])
        assert CONTINENTS[int(np.argmax(w))] == continent


def test_load_gate_requires_the_continents_in_order(tmp_path, seed42_model, seed42_gate):
    path = tmp_path / "gate.st"
    save_gate(seed42_gate, path)
    assert load_checkpoint(path).metadata["labels"] == json.dumps(list(CONTINENTS))
    assert np.allclose(load_gate(path, seed42_model).matrix, seed42_gate.matrix, atol=1e-6)
    # The same gate with its columns and labels both reversed: a consistent
    # file, but the experts take the columns by position.
    reversed_labels = list(reversed(CONTINENTS))
    flipped = tmp_path / "flipped.st"
    save_checkpoint(
        Checkpoint(
            [TensorSpec.from_array("W_g", seed42_gate.matrix[:, ::-1])],
            {"labels": json.dumps(reversed_labels), "normalized": "true"},
        ),
        flipped,
    )
    with raises_code("dimension_mismatch") as err:
        load_gate(flipped, seed42_model)
    assert str(err.value).startswith(f"{flipped}: gate labels must be ")
    assert str(reversed_labels) in str(err.value)
    assert err.value.context["path"] == str(flipped)


def test_load_gate_refuses_a_gate_marked_unnormalized(tmp_path, seed42_model, seed42_gate):
    # A gate file that says its columns are not unit-norm: loading must not renormalize it silently.
    path = tmp_path / "raw.st"
    metadata = {"labels": json.dumps(list(CONTINENTS)), "normalized": "false"}
    save_checkpoint(Checkpoint([TensorSpec.from_array("W_g", 3.0 * seed42_gate.matrix)], metadata), path)
    with raises_code("dimension_mismatch") as err:
        load_gate(path, seed42_model)
    assert str(path) in str(err.value)
    assert err.value.context["path"] == str(path)


def test_route_returns_one_float_per_continent(seed42_model, seed42_gate):
    w = route_prompt(seed42_model, seed42_gate, "what do people value?")
    assert type(w) is tuple and len(w) == len(CONTINENTS)
    assert all(type(v) is float for v in w)


def test_gate_matrix_validation():
    with raises_code("dimension_mismatch"):
        GateMatrix(matrix=np.zeros((4, 3)))
    with raises_code("non_finite_input"):
        GateMatrix(matrix=np.full((4, 5), np.nan))
    with raises_code("dimension_mismatch"):
        GateMatrix(matrix=np.ones((4, 5)))  # columns not unit norm
