"""Evaluation metrics: KL divergence and the Jensen-Shannon alignment score
(base-2 logs so the score lands in [0, 1]), Pearson correlation, and an HTTP
client for an external entailment scorer.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

import numpy as np

from .common import post_json
from .errors import PaletteError

DISTRIBUTION_SUM_TOL = 1e-9


def check_distribution(p: Sequence[float], name: str = "distribution") -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a vector with at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise PaletteError("negative_entry", f"{name} contains negative entries")
    if abs(float(arr.sum()) - 1.0) > DISTRIBUTION_SUM_TOL:
        raise ValueError(f"{name} sums to {float(arr.sum())!r}, expected 1")
    return arr


def normalize_distribution(raw: Sequence[float]) -> list[float]:
    """Divide by the sum; a -0.0 entry comes out as 0.0. A sum that is not
    finite (an entry is, or the sum overflows) raises ValueError."""
    arr = np.asarray(raw, dtype=np.float64) + 0.0
    if np.any(arr < 0):
        raise PaletteError("negative_entry", "raw vector contains negative entries")
    with np.errstate(over="ignore"):
        total = float(arr.sum())
    if total <= 0.0:
        raise PaletteError("all_zero", "raw vector has no positive mass")
    if not math.isfinite(total):
        raise ValueError(f"raw vector sums to {total!r}, not a finite number")
    return [float(x) for x in arr / total]


def kl(p: Sequence[float], q: Sequence[float]) -> float:
    """Kullback-Leibler divergence in bits, with 0*log(0/.) = 0."""
    p = check_distribution(p, "p")
    q = check_distribution(q, "q")
    if p.shape != q.shape:
        raise PaletteError("length_mismatch", f"p has {p.size} entries, q has {q.size}")
    support = p > 0
    if np.any(support & (q == 0)):
        raise PaletteError("support_violation", "p has mass where q is zero")
    return float(np.sum(p[support] * np.log2(p[support] / q[support])))


def alignment_score(p_gen: Sequence[float], p_gold: Sequence[float]) -> float:
    """1 - JSD(p_gen, p_gold) with base-2 logs; 1 means identical."""
    p = check_distribution(p_gen, "p_gen")
    q = check_distribution(p_gold, "p_gold")
    if p.shape != q.shape:
        raise PaletteError("length_mismatch", f"p_gen has {p.size} entries, p_gold has {q.size}")
    m = (p + q) / 2.0
    return 1.0 - 0.5 * kl(p, m) - 0.5 * kl(q, m)


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Sample Pearson r; returns None (an explicit undefined marker, never
    NaN) when either input has zero variance."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise PaletteError("length_mismatch", f"x has shape {xa.shape}, y has shape {ya.shape}")
    if xa.size < 2:
        raise PaletteError("length_mismatch", "need at least 2 points")
    for name, arr in (("x", xa), ("y", ya)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    # r is scale-free: bring each input near 1 by an exact power of two, so
    # that neither the sums nor the products can overflow or underflow.
    dx, dy = (a - a.mean() for a in (_unit_scaled(xa), _unit_scaled(ya)))
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return None
    return float(dx @ dy) / denom


def _unit_scaled(arr: np.ndarray) -> np.ndarray:
    """``arr`` times the power of two that brings its largest magnitude into [0.5, 1)."""
    return np.ldexp(arr, -math.frexp(float(np.max(np.abs(arr))))[1])


# --- external entailment scorer ---------------------------------------------

def semantic_score(base_url: str, r_gold: str, r_llm: str) -> float:
    """POST the text pair to {base_url}/score and return the consistency
    probability; sends a bearer token from PALETTE_NLI_TOKEN if set, and
    retries connection errors and 5xx replies (`common.post_json`)."""
    if not r_gold or not r_llm:
        raise PaletteError("empty_text", "both texts must be non-empty")
    url = base_url.rstrip("/") + "/score"
    body = post_json(
        url, {"premise": r_gold, "hypothesis": r_llm},
        auth_env="PALETTE_NLI_TOKEN", timeout=10.0,
    )
    try:
        score = json.loads(body)["score"]
    except (ValueError, KeyError, TypeError) as exc:
        raise PaletteError("malformed_scorer_response", f"bad scorer response: {exc}", url=url) from exc
    if not isinstance(score, (int, float)) or isinstance(score, bool) or not (0.0 <= score <= 1.0):
        raise PaletteError("malformed_scorer_response", f"score {score!r} is not a float in [0, 1]", url=url)
    return float(score)
