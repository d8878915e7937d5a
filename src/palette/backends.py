"""Pluggable text backends used by the agent pipeline and the synthesis loop.

Every backend exposes `complete(prompt) -> str` and records each prompt it
receives in `calls`, which the tests use to assert call patterns. The local
backend additionally exposes `score_options` so answer distributions can be
read off sequence log-probabilities instead of parsed from generated text.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

import numpy as np

from .common import post_json
from .errors import BackendFailure, EndpointUnreachable
from .reference_model import BOS, SEP, TinyTransformer, detokenize
from .tensor_store import Checkpoint

MAX_NEW_TOKENS = 48  # the most tokens a local backend decodes for one prompt


class ScriptedMock:
    """Deterministic canned backend.

    Reply resolution order: `echo` (return the prompt itself), an exact
    prompt -> reply map, an ordered script consumed one reply per call, then
    the `default` reply. A call that matches nothing raises BackendFailure.
    """

    kind = "mock"

    def __init__(
        self,
        default: str | None = None,
        exact: Mapping[str, str] | None = None,
        script: Sequence[str] | None = None,
        echo: bool = False,
        label: str = "mock",
    ):
        self.default = default
        self.exact = dict(exact or {})
        self.script = list(script or [])
        self._cursor = 0
        self.echo = echo
        self.label = label
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        if self.echo:
            return prompt
        if prompt in self.exact:
            return self.exact[prompt]
        if self._cursor < len(self.script):
            reply = self.script[self._cursor]
            self._cursor += 1
            return reply
        if self.default is not None:
            return self.default
        raise BackendFailure(f"scripted mock {self.label!r} has no reply for this prompt", self.label)

    def describe(self) -> dict:
        return {"kind": self.kind, "label": self.label}


class RemoteChat:
    """Client for a chat-completions endpoint.

    Wire contract: POST {base_url}/v1/chat/completions with JSON
    {"model": ..., "messages": [{"role", "content"}...], "temperature": 0};
    the reply text is choices[0].message.content, which must be a string.
    `common.post_json` sends it, with a bearer token from PALETTE_API_KEY and retries.
    """

    kind = "remote"

    def __init__(self, base_url: str, model: str | None, label: str = "remote"):
        self.base_url = base_url.rstrip("/")
        self.model = "default" if model is None else model
        self.label = label
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        message = {"role": "user", "content": prompt}
        payload = {"model": self.model, "messages": [message], "temperature": 0}
        try:
            body = post_json(
                f"{self.base_url}/v1/chat/completions", payload,
                auth_env="PALETTE_API_KEY", timeout=60.0,
            )
        except EndpointUnreachable as exc:
            raise BackendFailure(f"chat request failed: {exc}", self.label, **exc.context) from exc
        try:
            content = json.loads(body)["choices"][0]["message"]["content"]
            if not isinstance(content, str):
                raise TypeError(f"content is {type(content).__name__}, not a string")
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendFailure(f"malformed chat response: {exc}", self.label) from exc
        return content

    def describe(self) -> dict:
        return {"kind": self.kind, "label": self.label, "model": self.model}


class LocalReference:
    """Greedy deterministic decoding of up to MAX_NEW_TOKENS tokens over the tiny reference model.

    Prompts longer than the context window are truncated to their byte tail
    (the question and options sit at the end of pipeline prompts). In
    `score_options`, options are scored as continuations of one prompt, cut
    once to leave room for the longest option.
    """

    kind = "local"

    def __init__(self, params: Checkpoint, label: str = "local"):
        self.model = TinyTransformer.from_checkpoint(params)
        self.label = label
        self.calls: list[str] = []

    def _prompt_tokens(self, prompt: str, reserve: int) -> list[int]:
        budget = self.model.cfg.max_seq - reserve - 2
        raw = prompt.encode("utf-8")
        raw = raw[max(len(raw) - budget, 0):]
        return [BOS] + list(raw) + [SEP]

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        tokens = self._prompt_tokens(prompt, MAX_NEW_TOKENS)
        return detokenize(self.model.greedy_decode(tokens, MAX_NEW_TOKENS))

    def score_options(self, prompt: str, options: Sequence[str]) -> list[float]:
        """Length-normalized log-probability of each option continuing the prompt."""
        self.calls.append(prompt)
        conts = [list(option.encode("utf-8"))[: self.model.cfg.max_seq // 2] or [SEP] for option in options]
        if not conts:
            return []
        tokens = self._prompt_tokens(prompt, max(map(len, conts)))
        return [lp / len(c) for lp, c in zip(self.model.sequence_logprobs(tokens, conts), conts)]

    def describe(self) -> dict:
        return {"kind": self.kind, "label": self.label}


def option_distribution_from_scores(scores: Sequence[float]) -> list[float]:
    """Softmax over per-option scores (used by local final decisions)."""
    z = np.asarray(scores, dtype=np.float64)
    e = np.exp(z - z.max())
    return [float(x) for x in e / e.sum()]
