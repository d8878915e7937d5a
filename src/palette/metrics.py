"""Evaluation metrics: KL divergence and the Jensen-Shannon alignment score
(base-2 logs so the score lands in [0, 1]), Pearson correlation, and an HTTP
client for an external entailment scorer with a bundled offline mock.
"""

from __future__ import annotations

import json
import math
import re
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Sequence
from urllib.parse import urlparse

import numpy as np

from .common import post_json, round9
from .errors import (
    AllZero,
    EmptyText,
    LengthMismatch,
    MalformedScorerResponse,
    NegativeEntry,
    SupportViolation,
)

DISTRIBUTION_SUM_TOL = 1e-9
NLI_TOKEN_ENV = "PALETTE_NLI_TOKEN"


def check_distribution(p: Sequence[float], name: str = "distribution") -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"{name} must be a vector with at least 2 entries")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(arr < 0):
        raise NegativeEntry(f"{name} contains negative entries")
    if abs(float(arr.sum()) - 1.0) > DISTRIBUTION_SUM_TOL:
        raise ValueError(f"{name} sums to {float(arr.sum())!r}, expected 1")
    return arr


def normalize_distribution(raw: Sequence[float]) -> list[float]:
    """Divide by the sum; a -0.0 entry comes out as 0.0."""
    arr = np.asarray(raw, dtype=np.float64) + 0.0
    if np.any(arr < 0):
        raise NegativeEntry("raw vector contains negative entries")
    total = float(arr.sum())
    if total <= 0.0:
        raise AllZero("raw vector has no positive mass")
    return [float(x) for x in arr / total]


def kl(p: Sequence[float], q: Sequence[float]) -> float:
    """Kullback-Leibler divergence in bits, with 0*log(0/.) = 0."""
    p = check_distribution(p, "p")
    q = check_distribution(q, "q")
    if p.shape != q.shape:
        raise LengthMismatch(f"p has {p.size} entries, q has {q.size}")
    support = p > 0
    if np.any(support & (q == 0)):
        raise SupportViolation("p has mass where q is zero")
    return float(np.sum(p[support] * np.log2(p[support] / q[support])))


def alignment_score(p_gen: Sequence[float], p_gold: Sequence[float]) -> float:
    """1 - JSD(p_gen, p_gold) with base-2 logs; 1 means identical."""
    p = check_distribution(p_gen, "p_gen")
    q = check_distribution(p_gold, "p_gold")
    if p.shape != q.shape:
        raise LengthMismatch(f"p_gen has {p.size} entries, p_gold has {q.size}")
    m = (p + q) / 2.0
    return 1.0 - 0.5 * kl(p, m) - 0.5 * kl(q, m)


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Sample Pearson r; returns None (an explicit undefined marker, never
    NaN) when either input has zero variance."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise LengthMismatch(f"x has shape {xa.shape}, y has shape {ya.shape}")
    if xa.size < 2:
        raise LengthMismatch("need at least 2 points")
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return None
    return float(dx @ dy) / denom


# --- external entailment scorer ---------------------------------------------

@dataclass(frozen=True)
class NliScorerEndpoint:
    base_url: str
    timeout: float = 10.0
    auth_env: str = NLI_TOKEN_ENV

    def __post_init__(self):
        parts = urlparse(self.base_url)
        if not (parts.scheme and parts.netloc):
            raise ValueError(f"base_url must be an absolute URL, got {self.base_url!r}")


def semantic_score(
    endpoint: NliScorerEndpoint,
    r_gold: str,
    r_llm: str,
    retries: int = 3,
    backoff: float = 0.25,
) -> float:
    """POST the text pair to {base_url}/score and return the consistency
    probability; connection errors and 5xx replies are retried (`common.post_json`)."""
    if not r_gold or not r_llm:
        raise EmptyText("both texts must be non-empty")
    url = endpoint.base_url.rstrip("/") + "/score"
    body = post_json(
        url, {"premise": r_gold, "hypothesis": r_llm},
        auth_env=endpoint.auth_env, timeout=endpoint.timeout, retries=retries, backoff=backoff,
    )
    try:
        score = json.loads(body)["score"]
    except (ValueError, KeyError, TypeError) as exc:
        raise MalformedScorerResponse(f"bad scorer response: {exc}", url=url) from exc
    if not isinstance(score, (int, float)) or isinstance(score, bool) or not (0.0 <= score <= 1.0):
        raise MalformedScorerResponse(f"score {score!r} is not a float in [0, 1]", url=url)
    return float(score)


# --- offline mock scorer -----------------------------------------------------

def token_overlap_score(premise: str, hypothesis: str) -> float:
    """Deterministic Jaccard overlap of lowercase word sets; 1.0 for equal texts."""
    a = set(re.findall(r"\w+", premise.lower()))
    b = set(re.findall(r"\w+", hypothesis.lower()))
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union)


class MockScorerServer:
    """In-process HTTP server implementing the scorer wire contract, for
    offline tests and demos. Use as a context manager; `base_url` points at
    the live server."""

    def __init__(self, score_fn: Callable[[str, str], float] | None = None):
        self.score_fn = score_fn or token_overlap_score
        self.requests_seen: list[dict] = []
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def base_url(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self) -> "MockScorerServer":
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                if self.path != "/score":
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", 0))
                try:
                    body = json.loads(self.rfile.read(length))
                    premise, hypothesis = body["premise"], body["hypothesis"]
                except (ValueError, KeyError):
                    self.send_error(400)
                    return
                outer.requests_seen.append(
                    {"body": body, "auth": self.headers.get("Authorization")}
                )
                payload = json.dumps({"score": round9(outer.score_fn(premise, hypothesis))})
                data = payload.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()
