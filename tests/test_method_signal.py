"""The Cultural Palette method still carries a planted signal through fusion.

Five experts are trained from the seed-42 default model, each on the twelve
records of its continent in `toy_preference_dataset(n_queries=12)`, so each
learns to prefer its continent's style string from `helpers._STYLES`. Every
probability below is `LocalReference.score_options` over the five style
strings, softmaxed as the local final decision does, after one neutral prompt.

Measured (numpy 2.4, OpenBLAS 0.3.31):
- own option: base 0.192–0.211, experts 0.770–0.946;
- one-hot MoErges fusion (the expert's FFN tensors, the base's others):
  0.281–0.339, a retention (fused − base) / (expert − base) of 0.128–0.190;
- Africa–America interpolation, Africa's weight t = 0, 0.2, …, 1: Africa's
  option 0.176, 0.201, 0.242, 0.289, 0.321, 0.339, and America's 0.281,
  0.262, 0.230, 0.195, 0.170, 0.156.
The bounds leave room under these numbers. The test fails if fusion copies
the base's FFN tensors or applies the gate to the experts in reverse order.
"""

import numpy as np
import pytest

from palette.align_trainer import TrainConfig, train
from palette.backends import LocalReference, option_distribution_from_scores
from palette.common import CONTINENTS
from palette.merge_engine import moerges_fuse
from palette.reference_model import ModelConfig, init_model

from helpers import _STYLES, toy_preference_dataset

PROMPT = "how do people approach meals?"
OPTIONS = [_STYLES[c] for c in CONTINENTS]


def option_probs(ckpt) -> list[float]:
    return option_distribution_from_scores(LocalReference(ckpt).score_options(PROMPT, OPTIONS))


def fuse(planted, gate):
    return moerges_fuse(planted["base"], [planted[c] for c in CONTINENTS], gate)


def one_hot(i):
    return [1.0 if j == i else 0.0 for j in range(len(CONTINENTS))]


@pytest.fixture(scope="module")
def planted():
    """The base and the five experts, by continent."""
    base = init_model(ModelConfig())
    records = toy_preference_dataset(n_queries=12)
    cfg = TrainConfig(lam=1.0, learning_rate=0.02, epochs=3, batch_size=4)
    experts = {c: train(base, [r for r in records if r.continent == c], cfg)[0] for c in CONTINENTS}
    return {"base": base, **experts}


def test_each_expert_prefers_its_own_option_well_above_the_base(planted):
    base = option_probs(planted["base"])
    assert max(abs(p - 0.2) for p in base) < 0.03
    for i, c in enumerate(CONTINENTS):
        assert option_probs(planted[c])[i] - base[i] > 0.4, c


def test_a_one_hot_fusion_keeps_part_of_each_experts_lift(planted):
    base = option_probs(planted["base"])
    for i, c in enumerate(CONTINENTS):
        expert = option_probs(planted[c])[i]
        fused = option_probs(fuse(planted, one_hot(i)))[i]
        assert (fused - base[i]) / (expert - base[i]) > 0.06, c


def test_the_two_expert_interpolation_is_monotone_in_the_gate_weight(planted):
    t = np.linspace(0.0, 1.0, 6)
    probs = [option_probs(fuse(planted, [w, 1.0 - w, 0.0, 0.0, 0.0])) for w in t]
    africa, america = [p[0] for p in probs], [p[1] for p in probs]
    assert all(a < b for a, b in zip(africa, africa[1:])), africa
    assert all(a > b for a, b in zip(america, america[1:])), america
    assert africa[-1] - africa[0] > 0.1
