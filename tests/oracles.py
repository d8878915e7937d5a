"""Independent brute-force re-implementations of the merge formulas and of
greedy decoding.

The merge oracles are pure-Python loops over plain float lists, kept
deliberately naive so they share no code path with the numpy
implementations they check. The decode oracle re-runs the full forward pass
for every new token, so it shares no cache with the incremental decoder.
"""

from __future__ import annotations

import math

import numpy as np

from palette.reference_model import EOS


def as_lists(ckpt) -> dict[str, list[float]]:
    return {name: [float(v) for v in spec.data] for name, spec in ckpt.items()}


def bf_task_arithmetic(base, experts, coeffs):
    out = {}
    for name in base:
        vals = []
        for i in range(len(base[name])):
            v = base[name][i]
            for c, e in zip(coeffs, experts):
                v += c * (e[name][i] - base[name][i])
            vals.append(v)
        out[name] = vals
    return out


def bf_ties(base, experts, density, scale):
    out = {}
    for name in base:
        n = len(base[name])
        taus = [[e[name][i] - base[name][i] for i in range(n)] for e in experts]
        keep = math.ceil(density * n)
        trimmed = []
        for tau in taus:
            kept = sorted(range(n), key=lambda i: (-abs(tau[i]), i))[:keep]
            t = [0.0] * n
            for i in kept:
                t[i] = tau[i]
            trimmed.append(t)
        vals = []
        for i in range(n):
            total = sum(t[i] for t in trimmed)
            elected = 1.0 if total >= 0.0 else -1.0
            matching = [
                t[i]
                for t in trimmed
                if t[i] != 0.0 and (1.0 if t[i] > 0.0 else -1.0) == elected
            ]
            merged = sum(matching) / len(matching) if matching else 0.0
            vals.append(base[name][i] + scale * merged)
        out[name] = vals
    return out


def bf_model_stock(base, experts):
    k = len(experts)
    out = {}
    for name in base:
        n = len(base[name])
        taus = [[e[name][i] - base[name][i] for i in range(n)] for e in experts]
        norms = [math.sqrt(sum(x * x for x in tau)) for tau in taus]
        cos_sum = 0.0
        for i in range(k):
            for j in range(i + 1, k):
                if norms[i] == 0.0 or norms[j] == 0.0:
                    continue
                dot = sum(a * b for a, b in zip(taus[i], taus[j]))
                cos_sum += dot / (norms[i] * norms[j])
        cos_mean = cos_sum / (k * (k - 1) / 2)
        denom = 1.0 + (k - 1) * cos_mean
        t = 0.0 if denom <= 0.0 else min(max(k * cos_mean / denom, 0.0), 1.0)
        vals = []
        for i in range(n):
            avg = sum(tau[i] for tau in taus) / k
            vals.append(base[name][i] + t * avg)
        out[name] = vals
    return out


def bf_moerges(base, experts, gate, ffn_names):
    out = {}
    for name in base:
        if name in ffn_names:
            out[name] = [
                sum(g * e[name][i] for g, e in zip(gate, experts))
                for i in range(len(base[name]))
            ]
        else:
            out[name] = list(base[name])
    return out


def max_abs_diff(result_ckpt, expected: dict[str, list[float]]) -> float:
    worst = 0.0
    for name, spec in result_ckpt.items():
        for got, want in zip(spec.data, expected[name]):
            worst = max(worst, abs(float(got) - want))
    return worst


def bf_greedy_decode(model, prompt, n):
    """Greedy decoding with one full forward pass over the sequence per token."""
    tokens = [int(t) for t in prompt]
    out = []
    for _ in range(n):
        if len(tokens) >= model.cfg.max_seq:
            break
        nxt = int(np.argmax(model.forward_trace(tokens).logits[-1]))
        if nxt == EOS:
            break
        out.append(nxt)
        tokens = tokens + [nxt]
    return out
