"""Checkpoint merging: task arithmetic, trim/elect/merge, stock interpolation,
and gate-weighted expert fusion.

All methods compute in float64 and cast the result to float32. Tensors the
method leaves untouched (non-selected tensors under gate fusion) are copied
bit-identically from the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .common import round9
from .errors import (
    BadDensity,
    GateDimensionMismatch,
    SchemaMismatch,
    TooFewExperts,
    UnnormalizedGate,
)
from .tensor_store import Checkpoint, TensorSpec, _check_same_schema, select_ffn

GATE_SUM_TOL = 1e-6


def _check_experts(base: Checkpoint, experts: Sequence[Checkpoint]) -> None:
    if not experts:
        raise SchemaMismatch("at least one expert checkpoint is required")
    for i, expert in enumerate(experts):
        _check_same_schema(base, expert, what=f"base vs expert[{i}]")


def _out(base: Checkpoint, arrays: dict[str, np.ndarray], metadata: dict[str, str]) -> Checkpoint:
    specs = [
        TensorSpec(name=name, shape=spec.shape, data=arrays[name].astype(np.float32))
        for name, spec in base.items()
    ]
    return Checkpoint(specs, metadata)


def task_arithmetic(
    base: Checkpoint, experts: Sequence[Checkpoint], coeffs: Sequence[float]
) -> Checkpoint:
    """base + sum_k coeffs[k] * (expert_k - base), element-wise."""
    _check_experts(base, experts)
    if len(coeffs) != len(experts):
        raise SchemaMismatch(f"{len(coeffs)} coefficients for {len(experts)} experts")
    coeffs = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in coeffs):
        raise SchemaMismatch("coefficients must be finite")

    arrays = {}
    for name, spec in base.items():
        acc = spec.data.astype(np.float64)
        base64 = spec.data.astype(np.float64)
        for coeff, expert in zip(coeffs, experts):
            acc = acc + coeff * (expert[name].data.astype(np.float64) - base64)
        arrays[name] = acc
    return _out(base, arrays, dict(base.metadata))


def _trim_top_magnitude(tau: np.ndarray, keep: int) -> np.ndarray:
    """Zero all but the `keep` largest-magnitude entries (ties: lower index wins).

    A linear-time selection: find the keep-th smallest key of -|tau|, keep
    every entry strictly below it, then fill the remaining slots with the
    lowest-index entries equal to it. NaN keys order last, as in a sort, so
    NaN entries survive only when fewer than `keep` entries are not NaN.
    """
    if keep >= tau.size:
        return tau.copy()
    neg = -np.abs(tau)
    thr = np.partition(neg, keep - 1)[keep - 1]
    if np.isnan(thr):
        at_thr = np.isnan(neg)
        kept = ~at_thr
    else:
        kept = neg < thr
        at_thr = neg == thr
    kept[np.flatnonzero(at_thr)[: keep - np.count_nonzero(kept)]] = True
    return np.where(kept, tau, 0.0)


def ties_merge(
    base: Checkpoint,
    experts: Sequence[Checkpoint],
    density: float,
    scale: float = 1.0,
) -> Checkpoint:
    """Trim small task-vector entries, elect per-index majority signs, then
    average only the sign-consistent survivors.

    Per tensor: tau_k = expert_k - base; keep the ceil(density * len) largest
    magnitudes of each tau_k; elected sign per index = sign of the sum of
    trimmed values (exact zero elects +); merged value = mean over trimmed
    entries matching the elected sign; result = base + scale * merged.
    """
    _check_experts(base, experts)
    if not (0.0 < density <= 1.0):
        raise BadDensity(f"density must be in (0, 1], got {density}")

    arrays = {}
    for name, spec in base.items():
        base64 = spec.data.astype(np.float64)
        keep = math.ceil(density * spec.data.size)
        trimmed = np.stack([_trim_top_magnitude(e[name].data - base64, keep) for e in experts])
        plus = trimmed.sum(axis=0) >= 0.0  # a NaN sum elects -
        match = ((trimmed > 0.0) & plus) | ((trimmed < 0.0) & ~plus)
        counts = match.sum(axis=0)
        # A product, not np.where: an unmatched NaN or inf entry times 0 is NaN,
        # so it makes the mean at its index NaN whenever another entry matched.
        summed = (trimmed * match).sum(axis=0)
        merged = np.divide(summed, counts, out=np.zeros_like(summed), where=counts > 0)
        arrays[name] = base64 + scale * merged
    return _out(base, arrays, dict(base.metadata))


def model_stock(base: Checkpoint, experts: Sequence[Checkpoint]) -> Checkpoint:
    """Interpolate between base and the mean task vector using the mean
    pairwise cosine of the task vectors, per tensor.

    t = k*cos / (1 + (k-1)*cos), clamped to [0, 1]; zero-norm pairs
    contribute cosine 0.
    """
    _check_experts(base, experts)
    k = len(experts)
    if k < 2:
        raise TooFewExperts(f"model stock needs >= 2 experts, got {k}")

    arrays = {}
    for name, spec in base.items():
        base64 = spec.data.astype(np.float64)
        taus = [e[name].data.astype(np.float64) - base64 for e in experts]
        norms = [float(np.linalg.norm(t)) for t in taus]
        cos_sum = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                if norms[i] == 0.0 or norms[j] == 0.0:
                    continue
                cos_sum += float(taus[i] @ taus[j]) / (norms[i] * norms[j])
        cos_mean = cos_sum / (k * (k - 1) / 2)
        denom = 1.0 + (k - 1) * cos_mean
        t = 0.0 if denom <= 0.0 else min(max(k * cos_mean / denom, 0.0), 1.0)
        w_avg = np.mean(taus, axis=0)
        arrays[name] = base64 + t * w_avg
    return _out(base, arrays, dict(base.metadata))


def _validate_gate(gate: Sequence[float], n_experts: int) -> list[float]:
    weights = [float(g) for g in gate]
    if len(weights) != n_experts:
        raise GateDimensionMismatch(f"gate has {len(weights)} entries for {n_experts} experts")
    if not all(math.isfinite(w) for w in weights):
        raise UnnormalizedGate("gate entries must be finite")
    total = sum(weights)
    if abs(total - 1.0) > GATE_SUM_TOL:
        raise UnnormalizedGate(f"gate sums to {total!r}, expected 1 within {GATE_SUM_TOL}")
    return weights


def gate_weighted_sum(
    experts: Sequence[Checkpoint], weights: Sequence[float], names: Sequence[str]
) -> dict[str, np.ndarray]:
    """Raw per-tensor weighted sum over experts (no gate validation)."""
    return {
        name: sum(
            float(w) * e[name].data.astype(np.float64) for w, e in zip(weights, experts)
        )
        for name in names
    }


def moerges_fuse(
    base: Checkpoint,
    experts: Sequence[Checkpoint],
    gate: Sequence[float],
    ffn_pattern: str = "*.ffn.*",
    delta_mode: bool = False,
) -> Checkpoint:
    """Compose frozen shared tensors from the base with a gate-weighted sum
    of the experts' feed-forward tensors.

    Tensors matching `ffn_pattern` become sum_c gate[c] * expert_c; all other
    tensors are copied bit-identically from the base. With `delta_mode` the
    fused tensors are base + sum_c gate[c] * (expert_c - base) instead (equal
    to the pure sum up to rounding whenever the gate sums to 1). The gate is
    recorded in the output metadata.
    """
    _check_experts(base, experts)
    weights = _validate_gate(gate, len(experts))
    ffn_names = set(select_ffn(base, ffn_pattern))

    fused = gate_weighted_sum(experts, weights, sorted(ffn_names))
    specs = []
    for name, spec in base.items():
        if name in ffn_names:
            value = fused[name]
            if delta_mode:
                base64 = spec.data.astype(np.float64)
                value = base64 + value - sum(weights) * base64
            specs.append(TensorSpec(name=name, shape=spec.shape, data=value.astype(np.float32)))
        else:
            specs.append(TensorSpec(name=name, shape=spec.shape, data=spec.data.copy()))

    metadata = dict(base.metadata)
    metadata["gate"] = ",".join(f"{round9(w):.9g}" for w in weights)
    return Checkpoint(specs, metadata)


MERGE_METHODS = ("task", "ties", "stock", "moerges")


@dataclass
class MergeRequest:
    """A validated merge job: base, labeled experts, method, and parameters."""

    base: Checkpoint
    experts: list[tuple[str, Checkpoint]]
    method: str
    coeffs: list[float] | None = None
    density: float | None = None
    scale: float = 1.0
    gate: Sequence[float] | None = None
    ffn_pattern: str = "*.ffn.*"
    delta_mode: bool = False

    def __post_init__(self):
        if self.method not in MERGE_METHODS:
            raise SchemaMismatch(f"unknown merge method {self.method!r}")
        if not self.experts:
            raise SchemaMismatch("at least one expert is required")
        labels = [label for label, _ in self.experts]
        if len(set(labels)) != len(labels):
            raise SchemaMismatch(f"expert labels must be unique, got {labels}")


def run_merge(request: MergeRequest) -> Checkpoint:
    experts = [ckpt for _, ckpt in request.experts]
    if request.method == "task":
        coeffs = request.coeffs if request.coeffs is not None else [1.0] * len(experts)
        return task_arithmetic(request.base, experts, coeffs)
    if request.method == "ties":
        if request.density is None:
            raise BadDensity("ties merge requires a density in (0, 1]")
        return ties_merge(request.base, experts, request.density, request.scale)
    if request.method == "stock":
        return model_stock(request.base, experts)
    if request.gate is None:
        raise GateDimensionMismatch("moerges merge requires a gate vector")
    return moerges_fuse(
        request.base, experts, request.gate, request.ffn_pattern, request.delta_mode
    )
