"""Independent brute-force re-implementations of the merge formulas, of the
reference model's forward and backward passes and of greedy decoding.

The merge oracles are pure-Python loops over plain float lists, kept
deliberately naive so they share no code path with the numpy
implementations they check. The trim oracle is the full two-key sort that
the linear-time TIES selection must match index for index. The dense TIES
merge is the numpy one that `ties_merge` replaced, with each pass over a
whole (experts, len) block: working over the kept entries only, `ties_merge`
must give the same bytes. The model oracle is the forward and backward pass
with one fresh array per operator and attention in the kernel's causal row
tiles: the in-place kernels of `palette.reference_model` must match it byte
for byte. The pass as first written, over the whole attention block at once,
stays beside it; the tiles shorten the softmax sums, so the kernel is held
to it within a bound instead. The decode oracle
re-runs that frozen forward pass for every new token, so it shares no cache
and no kernel with the incremental decoder.
The preference-loss oracle scores each of a record's five sequences from
scratch, prompt included, and back-propagates each one on its own, so it
shares no prompt trace with the trainer's shared-prompt pass. The gradient
check compares the trainer's analytic gradients with central differences.
"""

from __future__ import annotations

import math

import numpy as np

from palette.align_trainer import (LossBreakdown, PreferenceRecord, _score_and_slope, _sigmoid, _softplus,
                                   loss_and_grads)
from palette.errors import PaletteError
from palette.reference_model import EOS, NORM_EPS, TILE, TinyTransformer, _continuation_logprob, encode_pair
from palette.tensor_store import Checkpoint, TensorSpec


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


def lexsort_kept_indices(tau: np.ndarray, keep: int) -> np.ndarray:
    """The ascending indices of the `keep` largest-magnitude entries (ties: lower index wins)."""
    return np.sort(np.lexsort((np.arange(tau.size), -np.abs(tau)))[:keep])


def partition_trim_top_magnitude(tau: np.ndarray, keep: int) -> np.ndarray:
    """Zero all but the `keep` largest-magnitude entries (ties: lower index wins).

    The linear-time selection of the dense TIES merge: find the keep-th
    smallest key of -|tau|, keep every entry strictly below it, then fill the
    remaining slots with the lowest-index entries equal to it. NaN keys order
    last, as in a sort.
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


def dense_ties_merge(base, experts, density, scale=1.0):
    """TIES over a dense (experts, len) float64 block of trimmed task vectors
    per tensor: the sign election, match, count and mean each sweep the
    whole block. `ties_merge` must give the same bytes."""
    arrays = {}
    for name, spec in base.items():
        base64 = spec.data.astype(np.float64)
        keep = math.ceil(density * spec.data.size)
        trimmed = np.empty((len(experts), spec.data.size))
        for tau, e in zip(trimmed, experts):
            np.subtract(e[name].data, base64, out=tau)
            tau[:] = partition_trim_top_magnitude(tau, keep)
        plus = trimmed.sum(axis=0) >= 0.0  # a NaN sum elects -
        match = ((trimmed > 0.0) & plus) | ((trimmed < 0.0) & ~plus)
        counts = match.sum(axis=0)
        trimmed *= match  # an unmatched NaN or inf times 0 is NaN
        summed = trimmed.sum(axis=0)
        merged = np.divide(summed, counts, out=np.zeros_like(summed), where=counts > 0)
        arrays[name] = (base64 + scale * merged).astype(np.float32)
    return Checkpoint([TensorSpec(name, spec.shape, arrays[name]) for name, spec in base.items()], base.metadata)


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


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu(u: np.ndarray) -> np.ndarray:
    return 0.5 * u * (1.0 + np.tanh(_GELU_C * (u + _GELU_A * (u * u * u))))


def _dgelu(u: np.ndarray) -> np.ndarray:
    t = np.tanh(_GELU_C * (u + _GELU_A * (u * u * u)))
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * u * u)


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + NORM_EPS)
    return x * inv * gain, inv


def _rmsnorm_backward(dy, x, inv, gain):
    w = dy * gain
    dgain = (dy * x * inv).sum(axis=0)
    dx = w * inv - x * inv**3 * (w * x).mean(axis=-1, keepdims=True)
    return dx, dgain


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


class _LayerCache:
    __slots__ = ("x_in", "n1", "inv1", "q", "k", "v", "probs", "ctx", "x_mid", "n2", "inv2", "u", "a")


class FrozenTrace:
    """Forward activations of `bf_forward_trace`, enough to backprop."""

    def __init__(self, model, tokens: list[int]):
        self.model = model
        self.tokens = tokens
        self.layers: list[_LayerCache] = []
        self.x_final: np.ndarray | None = None
        self.inv_final: np.ndarray | None = None
        self.hidden: np.ndarray | None = None
        self.logits: np.ndarray | None = None

    def backward(self, dlogits: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Add the gradients of sum(dlogits * logits) w.r.t. every parameter
        into ``grads`` (one array per parameter, shaped like it)."""
        m = self.model
        p = m.params
        cfg = m.cfg
        T = len(self.tokens)
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        inv_sqrt_dh = 1.0 / math.sqrt(dh)

        grads["head.out"] += self.hidden.T @ dlogits
        d_hidden = dlogits @ p["head.out"].T
        dx, dgain = _rmsnorm_backward(d_hidden, self.x_final, self.inv_final, p["final_ln.gain"])
        grads["final_ln.gain"] += dgain

        for i in reversed(range(cfg.n_layers)):
            c = self.layers[i]
            w_in, w_out = p[f"layer{i}.ffn.w_in"], p[f"layer{i}.ffn.w_out"]

            df = dx
            grads[f"layer{i}.ffn.w_out"] += c.a.T @ df
            da = df @ w_out.T
            du = da * _dgelu(c.u)
            grads[f"layer{i}.ffn.w_in"] += c.n2.T @ du
            dn2 = du @ w_in.T
            dx_mid_norm, dg2 = _rmsnorm_backward(dn2, c.x_mid, c.inv2, p[f"layer{i}.ln2.gain"])
            grads[f"layer{i}.ln2.gain"] += dg2
            dx_mid = dx + dx_mid_norm

            wq, wk, wv, wo = (p[f"layer{i}.attn.{n}"] for n in "qkvo")
            d_attn = dx_mid
            grads[f"layer{i}.attn.o"] += c.ctx.T @ d_attn
            d_ctx = (d_attn @ wo.T).reshape(T, h, dh).transpose(1, 0, 2)
            dP = d_ctx @ c.v.transpose(0, 2, 1)
            dv = c.probs.transpose(0, 2, 1) @ d_ctx
            dS = c.probs * (dP - (dP * c.probs).sum(axis=-1, keepdims=True))
            dq = dS @ c.k * inv_sqrt_dh
            dk = dS.transpose(0, 2, 1) @ c.q * inv_sqrt_dh

            dQ = dq.transpose(1, 0, 2).reshape(T, cfg.d_model)
            dK = dk.transpose(1, 0, 2).reshape(T, cfg.d_model)
            dV = dv.transpose(1, 0, 2).reshape(T, cfg.d_model)
            grads[f"layer{i}.attn.q"] += c.n1.T @ dQ
            grads[f"layer{i}.attn.k"] += c.n1.T @ dK
            grads[f"layer{i}.attn.v"] += c.n1.T @ dV
            dn1 = dQ @ wq.T + dK @ wk.T + dV @ wv.T
            dx_in_norm, dg1 = _rmsnorm_backward(dn1, c.x_in, c.inv1, p[f"layer{i}.ln1.gain"])
            grads[f"layer{i}.ln1.gain"] += dg1
            dx = dx_mid + dx_in_norm

        # Sum repeated tokens' rows before the single add, so the result is
        # bit-identical to adding a zero-started scatter.
        uniq, inverse = np.unique(self.tokens, return_inverse=True)
        rows = np.zeros((len(uniq), dx.shape[1]), dtype=grads["embed.tok"].dtype)
        np.add.at(rows, inverse, dx)
        grads["embed.tok"][uniq] += rows
        grads["embed.pos"][:T] += dx


def _row_tiles(T: int, size: int) -> list[tuple[int, int]]:
    """[r0, r1) bounds of `size` rows over T rows; a last tile of one row joins the one before it."""
    bounds = list(range(0, T, size)) + [T]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds[:-1], bounds[1:]))


def _frozen_forward(model, tokens, tile: int) -> FrozenTrace:
    tokens = [int(t) for t in tokens]
    cfg, p = model.cfg, model.params
    T = len(tokens)
    h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
    trace = FrozenTrace(model, tokens)

    x = p["embed.tok"][tokens] + p["embed.pos"][:T]
    mask = np.triu(np.full((T, T), -np.inf), k=1)
    for i in range(cfg.n_layers):
        c = _LayerCache()
        c.x_in = x
        c.n1, c.inv1 = _rmsnorm(x, p[f"layer{i}.ln1.gain"])
        q = (c.n1 @ p[f"layer{i}.attn.q"]).reshape(T, h, dh).transpose(1, 0, 2)
        k = (c.n1 @ p[f"layer{i}.attn.k"]).reshape(T, h, dh).transpose(1, 0, 2)
        v = (c.n1 @ p[f"layer{i}.attn.v"]).reshape(T, h, dh).transpose(1, 0, 2)
        c.q, c.k, c.v = q, k, v
        c.probs = np.zeros((h, T, T))
        ctx_tiles = []
        for r0, r1 in _row_tiles(T, tile):  # each row tile sees the keys up to its last row
            scores = q[:, r0:r1] @ k[:, :r1].transpose(0, 2, 1) / math.sqrt(dh) + mask[r0:r1, :r1]
            tile_probs = _softmax_rows(scores)
            c.probs[:, r0:r1, :r1] = tile_probs
            ctx_tiles.append(tile_probs @ v[:, :r1])
        c.ctx = np.concatenate(ctx_tiles, axis=1).transpose(1, 0, 2).reshape(T, cfg.d_model)
        x = x + c.ctx @ p[f"layer{i}.attn.o"]
        c.x_mid = x
        c.n2, c.inv2 = _rmsnorm(x, p[f"layer{i}.ln2.gain"])
        c.u = c.n2 @ p[f"layer{i}.ffn.w_in"]
        c.a = _gelu(c.u)
        x = x + c.a @ p[f"layer{i}.ffn.w_out"]
        trace.layers.append(c)

    trace.x_final = x
    trace.hidden, trace.inv_final = _rmsnorm(x, p["final_ln.gain"])
    trace.logits = trace.hidden @ p["head.out"]
    return trace


def bf_forward_trace(model, tokens) -> FrozenTrace:
    """The model's forward pass with one fresh array per operator, attention in row tiles of TILE."""
    return _frozen_forward(model, tokens, TILE)


def bf_forward_trace_untiled(model, tokens) -> FrozenTrace:
    """The forward pass as first written: attention over the whole (T, T) block at once."""
    return _frozen_forward(model, tokens, len(tokens))


def bf_logprob_dlogits(trace, prompt_len, continuation, coeff) -> np.ndarray:
    """d(coeff * sequence_logprob) / d logits, one fresh array per operator."""
    continuation = list(continuation)
    dlogits = np.zeros_like(trace.logits)
    rows = slice(prompt_len - 1, prompt_len - 1 + len(continuation))
    soft = _softmax_rows(trace.logits[rows])
    block = -coeff * soft
    block[np.arange(len(continuation)), continuation] += coeff
    dlogits[rows] = block
    return dlogits


def bf_greedy_decode(model, prompt, n):
    """Greedy decoding with one frozen full forward pass over the sequence per token."""
    tokens = [int(t) for t in prompt]
    out = []
    for _ in range(n):
        if len(tokens) >= model.cfg.max_seq:
            break
        nxt = int(np.argmax(bf_forward_trace(model, tokens).logits[-1]))
        if nxt == EOS:
            break
        out.append(nxt)
        tokens = tokens + [nxt]
    return out


def check_pair(model, prompt, continuation) -> tuple[list[int], list[int]]:
    """The whole sequence and the continuation, each token checked as one sequence of `model`."""
    if len(continuation) == 0:
        raise PaletteError("empty_continuation", "continuation must be non-empty")
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    full = model._check_tokens(list(prompt) + list(continuation))
    return full, full[len(full) - len(continuation) :]


def sequence_logprob(model, prompt, continuation) -> float:
    """Sum over continuation positions of log softmax(logits)[next token], from one pass over the sequence."""
    full, continuation = check_pair(model, prompt, continuation)
    hidden = model._extend(full[:-1], 0, *model._kv_cache(), rows=len(continuation))
    return _continuation_logprob(hidden @ model.params["head.out"], continuation)


def logprob_trace(model, prompt, continuation):
    """`sequence_logprob` and the training forward's Trace of the whole sequence."""
    full, continuation = check_pair(model, prompt, continuation)
    trace = model.forward_trace(full)
    rows = trace.logits[len(full) - len(continuation) - 1 : -1]
    return _continuation_logprob(rows, continuation), trace


def per_sequence_loss(model, record, lam, score, with_traces):
    """The preference loss and its gradients, one whole sequence at a time."""
    max_seq = model.cfg.max_seq
    seqs = [(record.query, record.preferred)] + [(record.query, r) for r in record.rejected]
    traces, lps, lens, prompts, conts = [], [], [], [], []
    for query, response in seqs:
        prompt, cont = encode_pair(query, response, max_seq)
        lp, trace = logprob_trace(model, prompt, cont)
        traces.append(trace if with_traces else None)
        lps.append(lp)
        lens.append(len(cont))
        prompts.append(len(prompt))
        conts.append(cont)

    sft = -lps[0] / lens[0]
    scored = [_score_and_slope(lp, n, score) for lp, n in zip(lps, lens)]
    score_pref, slope_pref = scored[0]
    ratios = [score_pref - score_rej for score_rej, _ in scored[1:]]
    sig = [_sigmoid(r) for r in ratios]
    contrastive = sum(_softplus(-r) for r in ratios)
    breakdown = LossBreakdown(
        sft=sft,
        contrastive=contrastive,
        total=sft + lam * contrastive,
        per_rejection_ratios=tuple(ratios),
    )
    if not with_traces:
        return breakdown, None

    # d total / d lp_sum for each of the 5 sequences
    coeff_pref = -1.0 / lens[0] + lam * slope_pref * sum(s - 1.0 for s in sig)
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    for idx, trace in enumerate(traces):
        coeff = coeff_pref if idx == 0 else lam * (1.0 - sig[idx - 1]) * scored[idx][1]
        if coeff == 0.0:
            continue
        dlogits = bf_logprob_dlogits(trace, prompts[idx], conts[idx], coeff)
        trace.backward(dlogits, grads)
    return breakdown, grads


def per_sequence_margin(model, dataset) -> float:
    """`mean_margin` with every sequence scored on its own, prompt included."""
    total = 0.0
    for record in dataset:
        prompt, cont = encode_pair(record.query, record.preferred, model.cfg.max_seq)
        lp_pref = sequence_logprob(model, prompt, cont) / len(cont)
        rej = 0.0
        for r in record.rejected:
            prompt, cont = encode_pair(record.query, r, model.cfg.max_seq)
            rej += sequence_logprob(model, prompt, cont) / len(cont)
        total += lp_pref - rej / 4
    return total / len(dataset)


def orpo_loss(
    model: TinyTransformer,
    record: PreferenceRecord,
    lam: float = 0.1,
    *,
    score: str = "mean",
) -> LossBreakdown:
    """Loss breakdown for one preference record, from the pass of `loss_and_grads`."""
    return loss_and_grads(model, record, lam, score=score)[0]


def grad_check(
    params: Checkpoint,
    record: PreferenceRecord,
    lam: float = 0.1,
    epsilon: float = 1e-4,
    n_samples: int = 60,
    seed: int = 0,
    *,
    score: str = "mean",
) -> float:
    """Max relative error between analytic gradients and central differences
    over randomly sampled parameter coordinates.
    """
    if not (1e-5 <= epsilon <= 1e-2):
        raise ValueError(f"epsilon must lie in [1e-5, 1e-2], got {epsilon}")
    model = TinyTransformer.from_checkpoint(params)  # a float64 copy, which the differences perturb
    _, grads = loss_and_grads(model, record, lam, score=score)

    names = sorted(model.params)
    sizes = np.array([model.params[n].size for n in names])
    total = int(sizes.sum())
    rng = np.random.default_rng(seed)
    picks = rng.choice(total, size=min(n_samples, total), replace=False)
    offsets = np.cumsum(sizes)

    worst = 0.0
    for flat in sorted(int(p) for p in picks):
        ti = int(np.searchsorted(offsets, flat, side="right"))
        name = names[ti]
        local = flat - (offsets[ti - 1] if ti else 0)
        arr = model.params[name].reshape(-1)
        orig = arr[local]
        arr[local] = orig + epsilon
        up = orpo_loss(model, record, lam, score=score).total
        arr[local] = orig - epsilon
        down = orpo_loss(model, record, lam, score=score).total
        arr[local] = orig
        numeric = (up - down) / (2.0 * epsilon)
        analytic = float(grads[name].reshape(-1)[local])
        denom = max(abs(analytic), abs(numeric), 1e-6)
        worst = max(worst, abs(analytic - numeric) / denom)
    return worst
