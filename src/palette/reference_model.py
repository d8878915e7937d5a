"""A tiny deterministic decoder-only transformer, written in numpy.

This is the desk-scale stand-in for the base LLM: byte-level tokenizer,
pre-norm causal self-attention with a GELU feed-forward block, RMS norms,
and a hand-written backward pass (validated against finite differences by
the gradient check in ``tests/oracles.py``).

Parameters live in a tensor-store Checkpoint under the naming convention
``layer{i}.attn.{q,k,v,o}``, ``layer{i}.ffn.{w_in,w_out}``,
``layer{i}.ln1.gain``, ``layer{i}.ln2.gain``, ``embed.tok``, ``embed.pos``,
``final_ln.gain``, ``head.out``; the config rides along as JSON metadata
under the key "config". All compute happens in float64 so forward passes
and gradients are reproducible bit-for-bit.

The hot paths write into temporaries they already made rather than
allocating one array per operator, which saves the page faults of fresh
large arrays:
- the attention scores ``q @ kᵀ`` are scaled, masked and turned into
  probabilities in their own buffer, which the trace keeps as ``probs``;
- the causal mask is built once per ``max_seq``, read-only, and sliced;
- GELU builds its tanh argument in one buffer and takes the tanh there;
  the trace keeps that tanh for the GELU derivative;
- RMS norm scales ``x * inv`` by the gain in place;
- backward forms dS in dP's buffer and scales dq and dk in place, and
  ``_continuation_dlogits`` computes its softmax block inside the gradient.
The results stay exact because each buffer receives the same ufunc, on
the same operands, in the same order as the plain expression (``a * b``
and ``b * a`` round alike), and every reduction still runs over a
C-contiguous array of the same shape, so no sum is reordered.
``tests/oracles.py`` keeps the allocating version and a test compares the
bytes.

Every pass runs one kernel, ``_extend``, over a per-call key/value cache.
Inference keeps no ``Trace`` and runs the last layer only on the rows read:
decoding on the prompt, then per new token; option scores and routing
once; margins once on a record's shared prompt, then per reply.
Training (``forward_trace``) passes it a ``Trace`` to fill for the backward
pass, and traces the shared prompt once, as the ``prefix`` of each reply's
trace. BLAS does not promise that some rows of a product equal those rows of
the whole product (OpenBLAS 0.3.31 often differs), and the prompt's gradient is
summed over the replies before it back-propagates, so shared-prompt scores and
gradients may differ from whole sequences' in the last bits; full rows match.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import PaletteError, TooLong
from .tensor_store import Checkpoint, TensorSpec, naming_file

BOS, EOS, PAD, SEP = 256, 257, 258, 259
N_SPECIAL = 4
FFN_MULT = 4
INIT_STD = 0.02
NORM_EPS = 1e-6
_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int = 256 + N_SPECIAL
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq: int = 256
    seed: int = 42

    def validate(self) -> None:
        if min(self.vocab_size, self.d_model, self.n_layers, self.n_heads, self.max_seq) < 1:
            raise PaletteError("bad_config", "all model dimensions must be >= 1")
        if self.vocab_size < 256 + N_SPECIAL:
            raise PaletteError("bad_config", f"vocab_size must cover 256 bytes + {N_SPECIAL} specials")
        if self.d_model % self.n_heads != 0:
            raise PaletteError("bad_config", f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq < 2:
            raise PaletteError("bad_config", "max_seq must be >= 2")
        if self.seed < 0:
            raise PaletteError("bad_config", f"seed must be >= 0, got {self.seed}")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            cfg = cls(**json.loads(text))
        except (TypeError, ValueError) as exc:
            raise PaletteError("bad_config", f"bad config metadata: {exc}") from exc
        cfg.validate()
        return cfg


def param_template(cfg: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes, in deterministic initialization order."""
    d, ff = cfg.d_model, FFN_MULT * cfg.d_model
    template: list[tuple[str, tuple[int, ...]]] = [
        ("embed.tok", (cfg.vocab_size, d)),
        ("embed.pos", (cfg.max_seq, d)),
    ]
    for i in range(cfg.n_layers):
        template += [
            (f"layer{i}.ln1.gain", (d,)),
            (f"layer{i}.attn.q", (d, d)),
            (f"layer{i}.attn.k", (d, d)),
            (f"layer{i}.attn.v", (d, d)),
            (f"layer{i}.attn.o", (d, d)),
            (f"layer{i}.ln2.gain", (d,)),
            (f"layer{i}.ffn.w_in", (d, ff)),
            (f"layer{i}.ffn.w_out", (ff, d)),
        ]
    template += [("final_ln.gain", (d,)), ("head.out", (d, cfg.vocab_size))]
    return template


def init_model(cfg: ModelConfig) -> Checkpoint:
    """Seeded Gaussian init (std 0.02); norm gains start at 1."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    specs = []
    for name, shape in param_template(cfg):
        if name.endswith(".gain"):
            values = np.ones(shape, dtype=np.float64)
        else:
            values = rng.normal(0.0, INIT_STD, size=shape)
        specs.append(TensorSpec.from_array(name, values.astype(np.float32)))
    return Checkpoint(specs, {"config": cfg.to_json()})


# --- tokenizer --------------------------------------------------------------

def detokenize(tokens: Sequence[int]) -> str:
    return bytes(t for t in tokens if t < 256).decode("utf-8", errors="replace")


def encode_pair(query: str, response: str, max_seq: int = ModelConfig.max_seq, **context) -> tuple[list[int], list[int]]:
    """(prompt, continuation) token lists: BOS q SEP | r EOS; ``context`` names the pair in a TooLong."""
    q = query.encode("utf-8")
    r = response.encode("utf-8")
    total = len(q) + len(r) + 3
    if total > max_seq:
        raise TooLong(f"query+response need {total} tokens but max_seq is {max_seq}", **context)
    return [BOS] + list(q) + [SEP], list(r) + [EOS]


# --- numerics ---------------------------------------------------------------
# In place, with the operations of the plain expressions in their order: see
# the module docstring.

@functools.cache
def _causal_mask(max_seq: int) -> np.ndarray:
    """Read-only (max_seq, max_seq) additive mask: -inf above the diagonal.

    Shared by every forward pass of that size; ``[:T, :T]`` is the mask of
    a T-token sequence.
    """
    mask = np.triu(np.full((max_seq, max_seq), -np.inf), k=1)
    mask.flags.writeable = False
    return mask


def _softmax_rows_in_place(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, computed in ``z`` and returned."""
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _gelu(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(gelu(u), t): the tanh approximation and its tanh term, which the
    backward pass reuses."""
    t = u * u
    t *= u
    t *= _GELU_A
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    a = 0.5 * u
    a *= 1.0 + t
    return a, t


def _gelu_backward(da: np.ndarray, u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """da * gelu'(u), with t the tanh term `_gelu` returned; overwrites da.

    gelu'(u) = 0.5 * (1 + t) + 0.5 * u * (1 - t * t) * C * (1 + 3 * A * u * u),
    evaluated left to right as written, in two buffers.
    """
    g = t * t
    np.subtract(1.0, g, out=g)
    w = 0.5 * u
    g *= w
    g *= _GELU_C
    np.multiply(3.0 * _GELU_A, u, out=w)
    w *= u
    w += 1.0
    g *= w
    np.add(1.0, t, out=w)
    w *= 0.5
    g += w
    da *= g
    return da


def _rmsnorm(x: np.ndarray, gain: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    inv = 1.0 / np.sqrt((x * x).mean(axis=-1, keepdims=True) + NORM_EPS)
    out = x * inv
    out *= gain
    return out, inv


def _rmsnorm_backward(dy, x, inv, gain):
    w = dy * gain
    dgain = (dy * x * inv).sum(axis=0)
    dx = w * inv - x * inv**3 * (w * x).mean(axis=-1, keepdims=True)
    return dx, dgain


def _continuation_logprob(logits: np.ndarray, continuation: list[int]) -> float:
    """Sum over rows k of log softmax(logits[k])[continuation[k]]."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1))
    return float((shifted[np.arange(len(continuation)), continuation] - log_norm).sum())


def _continuation_dlogits(logits: np.ndarray, continuation: list[int], coeff: float) -> np.ndarray:
    """d(coeff * _continuation_logprob(logits, continuation)) / d logits."""
    block = _softmax_rows_in_place(logits.copy())
    block *= -coeff
    block[np.arange(len(continuation)), continuation] += coeff
    return block


class _LayerCache:
    __slots__ = ("x_in", "n1", "inv1", "q", "k", "v", "probs", "ctx", "x_mid", "n2", "inv2", "u", "tanh", "a")


class Trace:
    """Forward activations for one token sequence, enough to backprop; with a
    ``prefix`` trace (itself without one), for the tokens that continue it."""

    def __init__(self, model: "TinyTransformer", tokens: list[int], prefix: "Trace | None" = None):
        self.model = model
        self.tokens = tokens
        self.prefix = prefix
        self.d_kv: list[list[np.ndarray]] | None = None  # per layer, the [dK, dV] its continuations hand back
        self.layers: list[_LayerCache] = []
        self.x_final: np.ndarray | None = None
        self.inv_final: np.ndarray | None = None
        self.hidden: np.ndarray | None = None
        self.logits: np.ndarray | None = None

    def backward(self, dlogits: np.ndarray, grads: dict[str, np.ndarray]) -> None:
        """Add the gradients of sum(dlogits * logits) w.r.t. every parameter
        into ``grads`` (one array per parameter, shaped like it). A prefix's own
        backward runs after those of all the traces that continue it."""
        m = self.model
        p = m.params
        cfg = m.cfg
        T, pre = len(self.tokens), self.prefix
        P = 0 if pre is None else len(pre.tokens)
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
            du = _gelu_backward(df @ w_out.T, c.u, c.tanh)
            grads[f"layer{i}.ffn.w_in"] += c.n2.T @ du
            dn2 = du @ w_in.T
            dx_mid_norm, dg2 = _rmsnorm_backward(dn2, c.x_mid, c.inv2, p[f"layer{i}.ln2.gain"])
            grads[f"layer{i}.ln2.gain"] += dg2
            dx_mid = dx + dx_mid_norm

            wq, wk, wv, wo = (p[f"layer{i}.attn.{n}"] for n in "qkvo")
            d_attn = dx_mid
            grads[f"layer{i}.attn.o"] += c.ctx.T @ d_attn
            d_ctx = (d_attn @ wo.T).reshape(T, h, dh).transpose(1, 0, 2)
            dS = d_ctx @ c.v.transpose(0, 2, 1)  # dP, turned into dS in place
            dv = c.probs.transpose(0, 2, 1) @ d_ctx
            dS -= (dS * c.probs).sum(axis=-1, keepdims=True)
            dS *= c.probs
            dq = dS @ c.k
            dq *= inv_sqrt_dh
            dk = dS.transpose(0, 2, 1) @ c.q
            dk *= inv_sqrt_dh
            if self.d_kv is not None:
                dk += self.d_kv[i][0]
                dv += self.d_kv[i][1]
            if pre is not None:  # the prefix's columns go to it, for its own backward
                pre.d_kv[i][0] += dk[:, :P]
                pre.d_kv[i][1] += dv[:, :P]
                dk, dv = dk[:, P:], dv[:, P:]

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
        grads["embed.pos"][P : P + T] += dx


class TinyTransformer:
    """Float64 working view over a parameter checkpoint."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        cfg.validate()
        self.cfg = cfg
        self.params = params

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "TinyTransformer":
        with naming_file(ckpt.path):  # a checkpoint of another kind names its file
            if "config" not in ckpt.metadata:
                raise PaletteError("bad_config", "checkpoint has no 'config' metadata entry")
            cfg = ModelConfig.from_json(ckpt.metadata["config"])
            expected = dict(param_template(cfg))
            if set(ckpt.names) != set(expected):
                missing = sorted(set(expected) - set(ckpt.names))
                extra = sorted(set(ckpt.names) - set(expected))
                raise PaletteError(
                    "shape_mismatch",
                    "checkpoint does not match the model naming convention",
                    missing=missing,
                    extra=extra,
                )
            params = {}
            for name, shape in expected.items():
                spec = ckpt[name]
                if spec.shape != shape:
                    raise PaletteError("shape_mismatch", f"tensor {name!r} has shape {spec.shape}, expected {shape}")
                params[name] = spec.array().astype(np.float64)
            return cls(cfg, params)

    def to_checkpoint(self) -> Checkpoint:
        specs = [TensorSpec.from_array(name, arr.astype(np.float32)) for name, arr in self.params.items()]
        return Checkpoint(specs, {"config": self.cfg.to_json()})

    def clone(self) -> "TinyTransformer":
        return TinyTransformer(self.cfg, {k: v.copy() for k, v in self.params.items()})

    def _check_tokens(self, tokens: Sequence[int], start: int = 0) -> list[int]:
        tokens = [int(t) for t in tokens]
        if not tokens:
            raise ValueError("token sequence must be non-empty")
        if start + len(tokens) > self.cfg.max_seq:
            raise TooLong(f"{start + len(tokens)} tokens exceed max_seq {self.cfg.max_seq}")
        if any(t < 0 or t >= self.cfg.vocab_size for t in tokens):
            raise ValueError("token id outside vocabulary")
        return tokens

    def _check_pair(self, prompt: Sequence[int], continuation: Sequence[int]) -> tuple[list[int], list[int]]:
        if len(continuation) == 0:
            raise PaletteError("empty_continuation", "continuation must be non-empty")
        if len(prompt) == 0:
            raise ValueError("prompt must be non-empty")
        full = self._check_tokens(list(prompt) + list(continuation))
        return full, full[len(full) - len(continuation) :]

    def forward_trace(self, tokens: Sequence[int], prefix: Trace | None = None) -> Trace:
        P = 0 if prefix is None else len(prefix.tokens)
        tokens = self._check_tokens(tokens, P)
        trace = Trace(self, tokens, prefix)
        keys, values = self._kv_cache(P + len(tokens))  # its own cache: a backward reads it later
        if prefix is not None:
            if prefix.d_kv is None:
                prefix.d_kv = [[np.zeros_like(c.k), np.zeros_like(c.v)] for c in prefix.layers]
            for k, v, c in zip(keys, values, prefix.layers):
                k[:, :P], v[:, :P] = c.k, c.v
        trace.hidden = self._extend(tokens, P, keys, values, rows=len(tokens), trace=trace)
        trace.logits = trace.hidden @ self.params["head.out"]
        return trace

    def mean_hidden(self, tokens: Sequence[int]) -> np.ndarray:
        tokens = self._check_tokens(tokens)
        return self._extend(tokens, 0, *self._kv_cache(), rows=len(tokens)).mean(axis=0)

    def sequence_logprobs(self, prompt: Sequence[int], continuations: Sequence[Sequence[int]]) -> list[float]:
        """The summed log-probability of each continuation after the prompt, over one K/V cache of
        the prompt: each continuation overwrites only the positions after the prompt."""
        prompt = self._check_tokens(prompt)
        keys, values = self._kv_cache()
        first = self._extend(prompt, 0, keys, values)
        scores = []
        for cont in continuations:
            _, cont = self._check_pair(prompt, cont)
            rest = self._extend(cont[:-1], len(prompt), keys, values, rows=len(cont) - 1)
            scores.append(_continuation_logprob(np.concatenate([first, rest]) @ self.params["head.out"], cont))
        return scores

    def greedy_decode(self, prompt_tokens: Sequence[int], max_new_tokens: int) -> list[int]:
        """Greedy continuation of the prompt, stopping at EOS, max_seq or max_new_tokens:
        one `_extend` over the prompt fills a K/V cache, then one per new token."""
        tokens = self._check_tokens(prompt_tokens)
        cfg, pos = self.cfg, len(tokens)
        out: list[int] = []
        if max_new_tokens <= 0 or pos >= cfg.max_seq:
            return out
        keys, values = self._kv_cache()
        logits = self._extend(tokens, 0, keys, values) @ self.params["head.out"]
        while True:
            nxt = int(np.argmax(logits))
            if nxt == EOS:
                break
            out.append(nxt)
            if len(out) >= max_new_tokens or pos + 1 >= cfg.max_seq:
                break
            logits = self._extend([nxt], pos, keys, values) @ self.params["head.out"]
            pos += 1
        return out

    def _kv_cache(self, length: int | None = None) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Empty per-layer (keys, values) for `_extend`, `length` (default max_seq) positions each."""
        cfg = self.cfg
        shape = (cfg.n_heads, length or cfg.max_seq, cfg.d_model // cfg.n_heads)
        return [np.empty(shape) for _ in range(cfg.n_layers)], [np.empty(shape) for _ in range(cfg.n_layers)]

    def _extend(self, tokens: list[int], pos: int, keys: list, values: list, rows: int = 1, trace: Trace | None = None) -> np.ndarray:
        """Final-norm hidden states of the last `rows` tokens, placed from `pos` on over the cached
        K/V of the positions before `pos`; writes the tokens' K/V. A `trace` receives each layer's
        activations, given `rows=len(tokens)` and a cache of exactly `pos + len(tokens)` positions."""
        cfg, p = self.cfg, self.params
        n, end = len(tokens), pos + len(tokens)
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        x = p["embed.tok"][tokens] + p["embed.pos"][pos:end]
        mask = _causal_mask(cfg.max_seq)[pos:end, :end] if n > 1 else None
        for i in range(cfg.n_layers):
            x_in = x
            n1, inv1 = _rmsnorm(x, p[f"layer{i}.ln1.gain"])
            keys[i][:, pos:end] = (n1 @ p[f"layer{i}.attn.k"]).reshape(n, h, dh).transpose(1, 0, 2)
            values[i][:, pos:end] = (n1 @ p[f"layer{i}.attn.v"]).reshape(n, h, dh).transpose(1, 0, 2)
            if i == cfg.n_layers - 1:  # only the last `rows` rows are read; the last sees every position
                x, n1 = x[-rows:], n1[-rows:]
                mask = mask[-rows:] if rows > 1 else None
            q = (n1 @ p[f"layer{i}.attn.q"]).reshape(-1, h, dh).transpose(1, 0, 2)
            scores = q @ keys[i][:, :end].transpose(0, 2, 1)
            scores /= math.sqrt(dh)
            if mask is not None:
                scores += mask
            probs = _softmax_rows_in_place(scores)
            ctx = (probs @ values[i][:, :end]).transpose(1, 0, 2).reshape(-1, cfg.d_model)
            x = x_mid = x + ctx @ p[f"layer{i}.attn.o"]
            n2, inv2 = _rmsnorm(x, p[f"layer{i}.ln2.gain"])
            u = n2 @ p[f"layer{i}.ffn.w_in"]
            a, tanh = _gelu(u)
            x = x + a @ p[f"layer{i}.ffn.w_out"]
            if trace is not None:
                c = _LayerCache()
                c.x_in, c.n1, c.inv1, c.q, c.k, c.v, c.probs, c.ctx = x_in, n1, inv1, q, keys[i], values[i], probs, ctx
                c.x_mid, c.n2, c.inv2, c.u, c.tanh, c.a = x_mid, n2, inv2, u, tanh, a
                trace.layers.append(c)
        hidden, inv = _rmsnorm(x, p["final_ln.gain"])
        if trace is not None:
            trace.x_final, trace.inv_final = x, inv
        return hidden
