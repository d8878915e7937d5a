"""A tiny deterministic decoder-only transformer, written in numpy.

This is the desk-scale stand-in for the base LLM: byte-level tokenizer,
pre-norm causal self-attention with a GELU feed-forward block, RMS norms,
and a hand-written backward pass (validated against finite differences by
the trainer's gradient check).

Parameters live in a tensor-store Checkpoint under the naming convention
``layer{i}.attn.{q,k,v,o}``, ``layer{i}.ffn.{w_in,w_out}``,
``layer{i}.ln1.gain``, ``layer{i}.ln2.gain``, ``embed.tok``, ``embed.pos``,
``final_ln.gain``, ``head.out``; the config rides along as JSON metadata
under the key "config". All compute happens in float64 so forward passes
and gradients are reproducible bit-for-bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import BadConfig, EmptyContinuation, ShapeMismatch, TooLong
from .tensor_store import Checkpoint, TensorSpec

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
            raise BadConfig("all model dimensions must be >= 1")
        if self.vocab_size < 256 + N_SPECIAL:
            raise BadConfig(f"vocab_size must cover 256 bytes + {N_SPECIAL} specials")
        if self.d_model % self.n_heads != 0:
            raise BadConfig(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.max_seq < 2:
            raise BadConfig("max_seq must be >= 2")

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ModelConfig":
        try:
            cfg = cls(**json.loads(text))
        except (TypeError, ValueError) as exc:
            raise BadConfig(f"bad config metadata: {exc}") from exc
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


def config_of(params: Checkpoint) -> ModelConfig:
    if "config" not in params.metadata:
        raise BadConfig("checkpoint has no 'config' metadata entry")
    return ModelConfig.from_json(params.metadata["config"])


# --- tokenizer --------------------------------------------------------------

def tokenize(text: str, max_seq: int = ModelConfig.max_seq) -> list[int]:
    """UTF-8 bytes as ids 0..255, wrapped BOS ... EOS."""
    raw = text.encode("utf-8")
    if len(raw) + 2 > max_seq:
        raise TooLong(f"text needs {len(raw) + 2} tokens but max_seq is {max_seq}")
    return [BOS] + list(raw) + [EOS]


def detokenize(tokens: Sequence[int]) -> str:
    return bytes(t for t in tokens if t < 256).decode("utf-8", errors="replace")


def encode_pair(query: str, response: str, max_seq: int = ModelConfig.max_seq) -> tuple[list[int], list[int]]:
    """(prompt, continuation) token lists: BOS q SEP | r EOS."""
    q = query.encode("utf-8")
    r = response.encode("utf-8")
    total = len(q) + len(r) + 3
    if total > max_seq:
        raise TooLong(f"query+response need {total} tokens but max_seq is {max_seq}")
    return [BOS] + list(q) + [SEP], list(r) + [EOS]


# --- numerics ---------------------------------------------------------------

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


def _log_softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class _LayerCache:
    __slots__ = ("x_in", "n1", "inv1", "q", "k", "v", "probs", "ctx", "x_mid", "n2", "inv2", "u", "a")


class Trace:
    """Forward activations for one token sequence, enough to backprop."""

    def __init__(self, model: "TinyTransformer", tokens: list[int]):
        self.model = model
        self.tokens = tokens
        self.layers: list[_LayerCache] = []
        self.x_final: np.ndarray | None = None
        self.inv_final: np.ndarray | None = None
        self.hidden: np.ndarray | None = None
        self.logits: np.ndarray | None = None

    def backward(self, dlogits: np.ndarray) -> dict[str, np.ndarray]:
        """Gradients of sum(dlogits * logits) w.r.t. every parameter."""
        m = self.model
        p = m.params
        cfg = m.cfg
        T = len(self.tokens)
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        inv_sqrt_dh = 1.0 / math.sqrt(dh)
        grads = {name: np.zeros_like(arr) for name, arr in p.items()}

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

        np.add.at(grads["embed.tok"], self.tokens, dx)
        grads["embed.pos"][:T] += dx
        return grads


class TinyTransformer:
    """Float64 working view over a parameter checkpoint."""

    def __init__(self, cfg: ModelConfig, params: dict[str, np.ndarray]):
        cfg.validate()
        self.cfg = cfg
        self.params = params

    @classmethod
    def from_checkpoint(cls, ckpt: Checkpoint) -> "TinyTransformer":
        cfg = config_of(ckpt)
        expected = dict(param_template(cfg))
        if set(ckpt.names) != set(expected):
            missing = sorted(set(expected) - set(ckpt.names))
            extra = sorted(set(ckpt.names) - set(expected))
            raise ShapeMismatch(
                "checkpoint does not match the model naming convention",
                missing=missing,
                extra=extra,
            )
        params = {}
        for name, shape in expected.items():
            spec = ckpt[name]
            if spec.shape != shape:
                raise ShapeMismatch(f"tensor {name!r} has shape {spec.shape}, expected {shape}")
            params[name] = spec.array().astype(np.float64)
        return cls(cfg, params)

    def to_checkpoint(self) -> Checkpoint:
        specs = [TensorSpec.from_array(name, arr.astype(np.float32)) for name, arr in self.params.items()]
        return Checkpoint(specs, {"config": self.cfg.to_json()})

    def clone(self) -> "TinyTransformer":
        return TinyTransformer(self.cfg, {k: v.copy() for k, v in self.params.items()})

    def _check_tokens(self, tokens: Sequence[int]) -> list[int]:
        tokens = [int(t) for t in tokens]
        if not tokens:
            raise ValueError("token sequence must be non-empty")
        if len(tokens) > self.cfg.max_seq:
            raise TooLong(f"{len(tokens)} tokens exceed max_seq {self.cfg.max_seq}")
        if any(t < 0 or t >= self.cfg.vocab_size for t in tokens):
            raise ValueError("token id outside vocabulary")
        return tokens

    def forward_trace(self, tokens: Sequence[int]) -> Trace:
        tokens = self._check_tokens(tokens)
        cfg, p = self.cfg, self.params
        T = len(tokens)
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        trace = Trace(self, tokens)

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
            scores = q @ k.transpose(0, 2, 1) / math.sqrt(dh) + mask
            c.probs = _softmax_rows(scores)
            c.ctx = (c.probs @ v).transpose(1, 0, 2).reshape(T, cfg.d_model)
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

    def hidden_and_logits(self, tokens: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        trace = self.forward_trace(tokens)
        return trace.hidden, trace.logits

    def mean_hidden(self, tokens: Sequence[int]) -> np.ndarray:
        hidden, _ = self.hidden_and_logits(tokens)
        return hidden.mean(axis=0)

    def sequence_logprob(self, prompt: Sequence[int], continuation: Sequence[int]) -> float:
        lp, _ = self.logprob_trace(prompt, continuation)
        return lp

    def logprob_trace(self, prompt: Sequence[int], continuation: Sequence[int]) -> tuple[float, Trace]:
        prompt = list(prompt)
        continuation = list(continuation)
        if not continuation:
            raise EmptyContinuation("continuation must be non-empty")
        if not prompt:
            raise ValueError("prompt must be non-empty")
        full = prompt + continuation
        trace = self.forward_trace(full)
        rows = trace.logits[len(prompt) - 1 : len(full) - 1]
        log_probs = _log_softmax_rows(rows)
        lp = float(log_probs[np.arange(len(continuation)), continuation].sum())
        return lp, trace

    def logprob_dlogits(self, trace: Trace, prompt_len: int, continuation: Sequence[int], coeff: float) -> np.ndarray:
        """d(coeff * sequence_logprob) / d logits for a logprob_trace."""
        continuation = list(continuation)
        dlogits = np.zeros_like(trace.logits)
        rows = slice(prompt_len - 1, prompt_len - 1 + len(continuation))
        soft = _softmax_rows(trace.logits[rows])
        block = -coeff * soft
        block[np.arange(len(continuation)), continuation] += coeff
        dlogits[rows] = block
        return dlogits

    def greedy_decode(self, prompt_tokens: Sequence[int], max_new_tokens: int = 48) -> list[int]:
        """Greedy continuation of the prompt, stopping at EOS, max_seq or max_new_tokens.

        One forward pass over the prompt fills a per-call key/value cache;
        each further token then costs one single-row step over that cache.
        """
        tokens = self._check_tokens(prompt_tokens)
        cfg = self.cfg
        pos = len(tokens)
        out: list[int] = []
        if max_new_tokens <= 0 or pos >= cfg.max_seq:
            return out
        trace = self.forward_trace(tokens)
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        keys, values = [], []
        for c in trace.layers:
            k = np.empty((h, cfg.max_seq, dh))
            v = np.empty((h, cfg.max_seq, dh))
            k[:, :pos], v[:, :pos] = c.k, c.v
            keys.append(k)
            values.append(v)
        logits = trace.logits[-1]
        while True:
            nxt = int(np.argmax(logits))
            if nxt == EOS:
                break
            out.append(nxt)
            if len(out) >= max_new_tokens or pos + 1 >= cfg.max_seq:
                break
            logits = self._decode_step(nxt, pos, keys, values)
            pos += 1
        return out

    def _decode_step(self, token: int, pos: int, keys: list[np.ndarray], values: list[np.ndarray]) -> np.ndarray:
        """Logits after `token` at position `pos`, given cached K/V for positions < pos.

        Writes the token's K/V at `pos`; attending over 0..pos needs no mask.
        """
        cfg, p = self.cfg, self.params
        h, dh = cfg.n_heads, cfg.d_model // cfg.n_heads
        x = p["embed.tok"][[token]] + p["embed.pos"][pos : pos + 1]
        for i in range(cfg.n_layers):
            n1, _ = _rmsnorm(x, p[f"layer{i}.ln1.gain"])
            q = (n1 @ p[f"layer{i}.attn.q"]).reshape(h, 1, dh)
            keys[i][:, pos] = (n1 @ p[f"layer{i}.attn.k"]).reshape(h, dh)
            values[i][:, pos] = (n1 @ p[f"layer{i}.attn.v"]).reshape(h, dh)
            k, v = keys[i][:, : pos + 1], values[i][:, : pos + 1]
            probs = _softmax_rows(q @ k.transpose(0, 2, 1) / math.sqrt(dh))
            ctx = (probs @ v).reshape(1, cfg.d_model)
            x = x + ctx @ p[f"layer{i}.attn.o"]
            n2, _ = _rmsnorm(x, p[f"layer{i}.ln2.gain"])
            x = x + _gelu(n2 @ p[f"layer{i}.ffn.w_in"]) @ p[f"layer{i}.ffn.w_out"]
        hidden, _ = _rmsnorm(x, p["final_ln.gain"])
        return (hidden @ p["head.out"])[0]


# --- checkpoint-level operations -------------------------------------------

def forward(params: Checkpoint, tokens: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """(hidden seq x d_model, logits seq x vocab) for one token sequence."""
    return TinyTransformer.from_checkpoint(params).hidden_and_logits(tokens)


def sequence_logprob(params: Checkpoint, prompt: Sequence[int], continuation: Sequence[int]) -> float:
    """Sum over continuation positions of log softmax(logits)[next token]."""
    return TinyTransformer.from_checkpoint(params).sequence_logprob(prompt, continuation)


def encode_prompt(params: Checkpoint, text: str) -> np.ndarray:
    """Mean-pooled final hidden state of the tokenized text."""
    model = TinyTransformer.from_checkpoint(params)
    return model.mean_hidden(tokenize(text, model.cfg.max_seq))
