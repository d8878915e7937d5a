"""Checkpoint merging: task arithmetic, trim/elect/merge, stock interpolation,
and gate-weighted expert fusion.

All methods compute in float64 and cast the result to float32. Tensors the
method leaves untouched (non-selected tensors under gate fusion) are copied
bit-identically from the base.
"""

from __future__ import annotations

import math
import re
import warnings
from typing import Sequence

import numpy as np

from .common import round9
from .errors import EmptySelectionWarning, PaletteError
from .tensor_store import Checkpoint, TensorSpec, naming_file

GATE_SUM_TOL = 1e-6
DEFAULT_SCALE = 1.0  # ties_merge scale: base + scale * merged
FFN_PATTERN = "*.ffn.*"  # the tensors moerges_fuse fuses; eval's config_fingerprint hashes this glob
_FFN_RE = re.compile(FFN_PATTERN.replace(".", r"\.").replace("*", ".*"))  # each * stops at a newline


def _check_experts(base: Checkpoint, experts: Sequence[Checkpoint]) -> None:
    if not experts:
        raise PaletteError("schema_mismatch", "at least one expert checkpoint is required")
    for i, expert in enumerate(experts):
        what = f"base vs expert[{i}]"
        with naming_file(expert.path):
            if base.names != expert.names:
                raise PaletteError(
                    "schema_mismatch",
                    f"{what} have different tensor names",
                    only_first=sorted(set(base.names) - set(expert.names)),
                    only_second=sorted(set(expert.names) - set(base.names)),
                )
            for name, spec in base.items():
                if spec.shape != expert[name].shape:
                    raise PaletteError("schema_mismatch",
                                       f"{what}: tensor {name!r} shapes differ: {spec.shape} vs {expert[name].shape}")


def _out(base: Checkpoint, arrays: dict[str, np.ndarray], metadata: dict[str, str]) -> Checkpoint:
    specs = [
        TensorSpec(name=name, shape=spec.shape, data=arrays[name])
        for name, spec in base.items()
    ]
    return Checkpoint(specs, metadata)


def check_coeffs(coeffs: Sequence[float], n_experts: int) -> list[float]:
    if len(coeffs) != n_experts:
        raise PaletteError("schema_mismatch", f"{len(coeffs)} coefficients for {n_experts} experts")
    coeffs = [float(c) for c in coeffs]
    if not all(math.isfinite(c) for c in coeffs):
        raise PaletteError("schema_mismatch", "coefficients must be finite")
    return coeffs


def check_ties(density: float, scale: float) -> None:
    if not (0.0 < density <= 1.0):
        raise PaletteError("bad_density", f"density must be in (0, 1], got {density}")
    if not math.isfinite(scale):
        raise PaletteError("schema_mismatch", "scale must be finite")


def check_stock(n_experts: int) -> None:
    if n_experts < 2:
        raise PaletteError("too_few_experts", f"model stock needs >= 2 experts, got {n_experts}")


def check_gate(gate: Sequence[float], n_experts: int) -> list[float]:
    weights = [float(g) for g in gate]
    if len(weights) != n_experts:
        raise PaletteError("gate_dimension_mismatch", f"gate has {len(weights)} entries for {n_experts} experts")
    if not all(math.isfinite(w) for w in weights):
        raise PaletteError("unnormalized_gate", "gate entries must be finite")
    total = sum(weights)
    if abs(total - 1.0) > GATE_SUM_TOL:
        raise PaletteError("unnormalized_gate", f"gate sums to {total!r}, expected 1 within {GATE_SUM_TOL}")
    return weights


def task_arithmetic(
    base: Checkpoint, experts: Sequence[Checkpoint], coeffs: Sequence[float]
) -> Checkpoint:
    """base + sum_k coeffs[k] * (expert_k - base), element-wise."""
    _check_experts(base, experts)
    coeffs = check_coeffs(coeffs, len(experts))

    arrays = {}
    buf = np.empty(max((spec.data.size for spec in base.specs()), default=0))
    for name, spec in base.items():
        acc = spec.data.astype(np.float64)
        base64 = spec.data.astype(np.float64)
        tau = buf[: spec.data.size]
        for coeff, expert in zip(coeffs, experts):
            np.subtract(expert[name].data, base64, out=tau)
            tau *= coeff
            acc += tau
        arrays[name] = acc.astype(np.float32)
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
    scale: float = DEFAULT_SCALE,
) -> Checkpoint:
    """Trim small task-vector entries, elect per-index majority signs, then
    average only the sign-consistent survivors.

    Per tensor: tau_k = expert_k - base; keep the ceil(density * len) largest
    magnitudes of each tau_k; elected sign per index = sign of the sum of
    trimmed values (exact zero elects +); merged value = mean over trimmed
    entries matching the elected sign; result = base + scale * merged.
    """
    _check_experts(base, experts)
    check_ties(density, scale)

    arrays = {}
    buf = np.empty(len(experts) * max((spec.data.size for spec in base.specs()), default=0))
    for name, spec in base.items():
        base64 = spec.data.astype(np.float64)
        keep = math.ceil(density * spec.data.size)
        trimmed = buf[: len(experts) * spec.data.size].reshape(len(experts), -1)
        for tau, e in zip(trimmed, experts):
            np.subtract(e[name].data, base64, out=tau)
            tau[:] = _trim_top_magnitude(tau, keep)
        plus = trimmed.sum(axis=0) >= 0.0  # a NaN sum elects -
        match = ((trimmed > 0.0) & plus) | ((trimmed < 0.0) & ~plus)
        counts = match.sum(axis=0)
        # A product, not np.where: an unmatched NaN or inf entry times 0 is NaN,
        # so it makes the mean at its index NaN whenever another entry matched.
        trimmed *= match
        summed = trimmed.sum(axis=0)
        merged = np.divide(summed, counts, out=np.zeros_like(summed), where=counts > 0)
        arrays[name] = (base64 + scale * merged).astype(np.float32)
    return _out(base, arrays, dict(base.metadata))


def model_stock(base: Checkpoint, experts: Sequence[Checkpoint]) -> Checkpoint:
    """Interpolate between base and the mean task vector using the mean
    pairwise cosine of the task vectors, per tensor.

    t = k*cos / (1 + (k-1)*cos), clamped to [0, 1]; zero-norm pairs
    contribute cosine 0.
    """
    _check_experts(base, experts)
    k = len(experts)
    check_stock(k)

    arrays = {}
    for name, spec in base.items():
        base64 = spec.data.astype(np.float64)
        taus = np.empty((k, spec.data.size))
        for tau, e in zip(taus, experts):
            np.subtract(e[name].data, base64, out=tau)
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
        w_avg = taus.sum(axis=0) / k
        arrays[name] = (base64 + t * w_avg).astype(np.float32)
    return _out(base, arrays, dict(base.metadata))


def moerges_fuse(base: Checkpoint, experts: Sequence[Checkpoint], gate: Sequence[float]) -> Checkpoint:
    """Compose frozen shared tensors from the base with a gate-weighted sum
    of the experts' feed-forward tensors.

    Tensors matching `FFN_PATTERN` become sum_c gate[c] * expert_c; all other
    tensors are copied bit-identically from the base. No match warns
    (EmptySelectionWarning). The gate is recorded in the output metadata.
    """
    _check_experts(base, experts)
    weights = check_gate(gate, len(experts))
    ffn = [name for name in base.names if _FFN_RE.fullmatch(name)]
    if not ffn:
        warnings.warn(f"pattern {FFN_PATTERN!r} matched no tensors", EmptySelectionWarning, stacklevel=2)
    arrays = {
        name: sum(
            float(w) * e[name].data.astype(np.float64) for w, e in zip(weights, experts)
        )
        for name in ffn
    }
    arrays.update({name: spec.data.copy() for name, spec in base.items() if name not in arrays})
    metadata = dict(base.metadata)
    metadata["gate"] = ",".join(f"{round9(w):.9g}" for w in weights)
    return _out(base, arrays, metadata)
