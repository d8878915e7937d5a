"""Pluggable text backends used by the agent pipeline and the synthesis loop.

Every backend exposes `complete(prompt) -> str` and records each prompt it
receives in `calls`, which the tests use to assert call patterns. The local
backend additionally exposes `score_options` so answer distributions can be
read off sequence log-probabilities instead of parsed from generated text.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

import numpy as np
import requests

from .errors import BackendFailure
from .reference_model import BOS, SEP, TinyTransformer, detokenize
from .tensor_store import Checkpoint

API_KEY_ENV = "PALETTE_API_KEY"


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
    the reply text is choices[0].message.content. A bearer token is read
    from the configured environment variable when set.
    """

    kind = "remote"

    def __init__(
        self,
        base_url: str,
        model: str,
        auth_env: str = API_KEY_ENV,
        timeout: float = 60.0,
        label: str = "remote",
        session: requests.Session | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.auth_env = auth_env
        self.timeout = timeout
        self.label = label
        self.session = session
        self.calls: list[str] = []

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        headers = {}
        token = os.environ.get(self.auth_env, "")
        if token:
            headers["Authorization"] = f"Bearer {token}"
        http = self.session or requests
        try:
            resp = http.post(
                f"{self.base_url}/v1/chat/completions",
                json={
                    "model": self.model,
                    "messages": [{"role": "user", "content": prompt}],
                    "temperature": 0,
                },
                headers=headers,
                timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise BackendFailure(f"chat request failed: {exc}", self.label) from exc
        if resp.status_code != 200:
            raise BackendFailure(
                f"chat endpoint returned HTTP {resp.status_code}", self.label,
                status=resp.status_code,
            )
        try:
            return resp.json()["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendFailure(f"malformed chat response: {exc}", self.label) from exc

    def describe(self) -> dict:
        return {"kind": self.kind, "label": self.label, "model": self.model}


class LocalReference:
    """Greedy deterministic decoding over the tiny reference model.

    Prompts longer than the context window are truncated to their byte tail
    (the question and options sit at the end of pipeline prompts).
    """

    kind = "local"

    def __init__(self, params: Checkpoint, max_new_tokens: int = 48, label: str = "local"):
        self.params = params
        self.model = TinyTransformer.from_checkpoint(params)
        self.max_new_tokens = max_new_tokens
        self.label = label
        self.calls: list[str] = []

    def _prompt_tokens(self, prompt: str, reserve: int) -> list[int]:
        budget = self.model.cfg.max_seq - reserve - 2
        raw = prompt.encode("utf-8")
        raw = raw[max(len(raw) - budget, 0):]
        return [BOS] + list(raw) + [SEP]

    def complete(self, prompt: str) -> str:
        self.calls.append(prompt)
        tokens = self._prompt_tokens(prompt, self.max_new_tokens)
        return detokenize(self.model.greedy_decode(tokens, self.max_new_tokens))

    def score_options(self, prompt: str, options: Sequence[str]) -> list[float]:
        """Length-normalized log-probability of each option continuing the prompt."""
        self.calls.append(prompt)
        scores = []
        for option in options:
            cont = list(option.encode("utf-8"))
            if not cont:
                cont = [SEP]
            cont = cont[: self.model.cfg.max_seq // 2]
            tokens = self._prompt_tokens(prompt, len(cont))
            lp = self.model.sequence_logprob(tokens, cont)
            scores.append(lp / len(cont))
        return scores

    def describe(self) -> dict:
        return {"kind": self.kind, "label": self.label}


def option_distribution_from_scores(scores: Sequence[float]) -> list[float]:
    """Softmax over per-option scores (used by local final decisions)."""
    z = np.asarray(scores, dtype=np.float64)
    e = np.exp(z - z.max())
    return [float(x) for x in e / e.sum()]
