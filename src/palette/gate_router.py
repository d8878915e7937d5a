"""Continent gate: a d_model x 5 routing matrix initialized from system-prompt
hidden states, and the softmax weighting it induces over a prompt encoding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .common import CONTINENTS
from .errors import PaletteError
from .tensor_store import Checkpoint, TensorSpec, load_checkpoint, naming_file, save_checkpoint
from .reference_model import BOS, EOS, TinyTransformer

DEFAULT_SYSTEM_PROMPTS: dict[str, str] = {
    c: (
        f"You are a knowledge chatbot about {c}. Ground every answer in {c}'s "
        f"cultures, traditions, history, and daily life."
    )
    for c in CONTINENTS
}

_COLUMN_NORM_TOL = 1e-6
TEMPERATURE = 1.0  # the softmax temperature of routing unless a caller gives one


@dataclass
class GateMatrix:
    """Routing matrix with one unit-norm column per continent, in fixed order."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(CONTINENTS):
            raise PaletteError(
                "dimension_mismatch",
                f"gate matrix shape {self.matrix.shape} does not give one column "
                f"per continent ({len(CONTINENTS)})"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise PaletteError("non_finite_input", "gate matrix contains non-finite entries")
        norms = np.linalg.norm(self.matrix, axis=0)
        if np.any(np.abs(norms - 1.0) > _COLUMN_NORM_TOL):
            raise PaletteError("dimension_mismatch", "gate matrix must have unit-norm columns")

    @property
    def d_model(self) -> int:
        return self.matrix.shape[0]


def softmax_weights(logits: Sequence[float], temperature: float = TEMPERATURE) -> np.ndarray:
    """Max-subtracted softmax; shift-invariant and numerically stable."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits, dtype=np.float64) / temperature
    if not np.all(np.isfinite(z)):
        raise PaletteError("non_finite_input", "softmax input contains non-finite entries")
    e = np.exp(z - z.max())
    return e / e.sum()


def init_gate(model: Checkpoint, system_prompts: Mapping[str, str] | None = None) -> GateMatrix:
    """Build the gate from the mean-pooled hidden state of each continent's
    system prompt ({continent: prompt}, DEFAULT_SYSTEM_PROMPTS when None),
    encoded as `route_prompt` encodes a prompt.

    Columns are L2-normalized so that routing a prompt against its own column
    scores cosine 1.
    """
    if system_prompts is None:
        system_prompts = DEFAULT_SYSTEM_PROMPTS
    missing = [c for c in CONTINENTS if c not in system_prompts]
    if missing:
        raise PaletteError("empty_prompt", f"missing system prompts for {missing}")

    tt = TinyTransformer.from_checkpoint(model)
    columns = []
    for continent in CONTINENTS:
        prompt = system_prompts[continent]
        if not prompt:
            raise PaletteError("empty_prompt", f"empty system prompt for {continent}")
        hidden = tt.mean_hidden(_head_tokens(tt, prompt))
        columns.append(hidden / np.linalg.norm(hidden))
    return GateMatrix(matrix=np.stack(columns, axis=1))


def route(hidden: Sequence[float], gate: GateMatrix, temperature: float = TEMPERATURE) -> tuple[float, ...]:
    """softmax(hidden . W_g): the expert weighting for one prompt encoding, one weight per continent."""
    vec = np.asarray(hidden, dtype=np.float64)
    if vec.ndim != 1 or vec.shape[0] != gate.d_model:
        raise PaletteError(
            "dimension_mismatch",
            f"hidden vector has shape {vec.shape}, gate expects ({gate.d_model},)"
        )
    if not np.all(np.isfinite(vec)):
        raise PaletteError("non_finite_input", "hidden vector contains non-finite entries")
    weights = softmax_weights(vec @ gate.matrix, temperature)
    return tuple(float(w) for w in weights)


def route_prompt(
    model: Checkpoint, gate: GateMatrix, prompt: str, temperature: float = TEMPERATURE
) -> tuple[float, ...]:
    """Encode the prompt (mean-pooled hidden) and route it. A prompt too long
    for the context window is cut to its head, which holds the country preamble."""
    tt = TinyTransformer.from_checkpoint(model)
    return route(tt.mean_hidden(_head_tokens(tt, prompt)), gate, temperature)


def _head_tokens(tt: TinyTransformer, text: str) -> list[int]:
    """BOS text EOS, the text cut to its head where it is too long for max_seq."""
    return [BOS] + list(text.encode("utf-8")[: tt.cfg.max_seq - 2]) + [EOS]


def save_gate(gate: GateMatrix, path) -> None:
    metadata = {"labels": json.dumps(list(CONTINENTS)), "normalized": "true"}
    save_checkpoint(Checkpoint([TensorSpec.from_array("W_g", gate.matrix)], metadata), path)


def load_gate(path, model: Checkpoint) -> GateMatrix:
    ckpt = load_checkpoint(path)
    with naming_file(path):
        if "W_g" not in ckpt:
            raise PaletteError("dimension_mismatch", "gate checkpoint must contain a tensor named 'W_g'")
        raw = ckpt.metadata.get("labels")
        try:
            labels = list(CONTINENTS) if raw is None else json.loads(raw)
        except ValueError:
            labels = raw
        if labels != list(CONTINENTS):
            # Experts take the gate's columns by position, so any other order misroutes.
            raise PaletteError(
                "dimension_mismatch", f"gate labels must be {list(CONTINENTS)} in this order, got {labels}"
            )
        if ckpt.metadata.get("normalized", "true") != "true":
            raise PaletteError("dimension_mismatch", f"{path} holds an unnormalized gate; gate columns must be unit-norm",
                               path=str(path))
        matrix = ckpt["W_g"].array().astype(np.float64)
        # f32 storage wobbles the unit norms; restore them exactly.
        gate = GateMatrix(matrix=matrix / np.linalg.norm(matrix, axis=0, keepdims=True))
    width = TinyTransformer.from_checkpoint(model).cfg.d_model  # out of naming_file: its errors name the model
    if gate.d_model != width:
        raise PaletteError("dimension_mismatch", f"{path}: the gate routes d_model {gate.d_model}, but the model "
                           f"{model.path} has d_model {width}", path=str(path), model=model.path)
    return gate

