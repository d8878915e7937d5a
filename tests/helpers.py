"""Shared test helpers: an error-code check, append descriptors that close, the tokenizer and
whole-sequence forward pass of the model's tests, checkpoint builders, toy datasets, fixture
records, loopback HTTP servers with scripted replies and an entailment scorer on one."""

from __future__ import annotations

import contextlib
import json
import os
import re
import signal
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from palette.align_trainer import PreferenceRecord
from palette.common import CONTINENTS, round9
from palette.errors import PaletteError, TooLong
from palette.reference_model import BOS, EOS, ModelConfig, TinyTransformer, init_model
from palette.tensor_store import Checkpoint, TensorSpec


@contextlib.contextmanager
def raises_code(code: str, match: str | None = None):
    """``pytest.raises(PaletteError, match=match)`` that also asserts the error's exact ``code``."""
    with pytest.raises(PaletteError, match=match) as info:
        yield info
    assert info.value.code == code, f"code {info.value.code!r}: {info.value}"


@contextlib.contextmanager
def appending():
    """The ``fds`` of `append_jsonl` and `StepStore`, as `run_synthesis` keeps them: closed on exit."""
    fds = {}
    try:
        yield fds
    finally:
        for fd in fds.values():
            os.close(fd)


def tokenize(text: str, max_seq: int = ModelConfig.max_seq) -> list[int]:
    """UTF-8 bytes as ids 0..255, wrapped BOS ... EOS."""
    raw = text.encode("utf-8")
    if len(raw) + 2 > max_seq:
        raise TooLong(f"text needs {len(raw) + 2} tokens but max_seq is {max_seq}")
    return [BOS] + list(raw) + [EOS]


def forward(params: Checkpoint, tokens) -> tuple[np.ndarray, np.ndarray]:
    """(hidden seq x d_model, logits seq x vocab) for one token sequence."""
    model = TinyTransformer.from_checkpoint(params)
    tokens = model._check_tokens(tokens)
    hidden = model._extend(tokens, 0, *model._kv_cache(), rows=len(tokens))
    return hidden, hidden @ model.params["head.out"]


def ckpt(metadata=None, **tensors) -> Checkpoint:
    """Checkpoint from name -> array-like kwargs."""
    return Checkpoint(
        [TensorSpec.from_array(name, np.asarray(data, dtype=np.float32)) for name, data in tensors.items()],
        metadata,
    )


def random_checkpoint(rng: np.random.Generator, n_tensors=3, max_elems=16, prefix="") -> Checkpoint:
    specs = []
    for i in range(n_tensors):
        size = int(rng.integers(1, max_elems + 1))
        specs.append(TensorSpec.from_array(f"{prefix}t{i:02d}", rng.normal(size=size)))
    return Checkpoint(specs)


def like(base: Checkpoint, rng: np.random.Generator) -> Checkpoint:
    """A random checkpoint with the same schema as `base`."""
    return Checkpoint(
        [TensorSpec.from_array(name, rng.normal(size=spec.shape)) for name, spec in base.items()],
        base.metadata,
    )


def tiny_config(**overrides) -> ModelConfig:
    defaults = dict(d_model=16, n_layers=1, n_heads=2, max_seq=160, seed=3)
    defaults.update(overrides)
    return ModelConfig(**defaults)


def tiny_model(**overrides) -> Checkpoint:
    return init_model(tiny_config(**overrides))


GRAD_CHECK_RECORD = PreferenceRecord(
    query="why is the sky blue",
    preferred="light scatters",
    rejected=("dragons", "magnets", "no reason", "paint"),
    continent="Europe",
)


# Three fixed records evaluated on the seed-42 default model; the expected
# loss values are frozen in the trainer tests.
FIXTURE_RECORDS = [
    PreferenceRecord(
        query="What matters most at a family meal?",
        preferred="Sharing food and stories with elders first.",
        rejected=(
            "Eating quickly to return to work.",
            "Keeping conversation to a minimum.",
            "Serving each person separately.",
            "Starting before everyone arrives.",
        ),
        continent="Africa",
    ),
    PreferenceRecord(
        query="How should disagreements be settled?",
        preferred="Openly, with each side stating its case.",
        rejected=(
            "Quietly, through an intermediary.",
            "By deferring to the eldest person.",
            "By avoiding the topic entirely.",
            "Through a formal written complaint.",
        ),
        continent="America",
    ),
    PreferenceRecord(
        query="What makes a good neighbour?",
        preferred="Respecting privacy while staying ready to help.",
        rejected=(
            "Visiting unannounced every day.",
            "Never speaking across the fence.",
            "Competing over garden size.",
            "Reporting every small noise.",
        ),
        continent="Europe",
    ),
]

_STYLES = {
    "Africa": "community comes first",
    "America": "individual choice leads",
    "Asia": "harmony guides the group",
    "Europe": "tradition meets civic rules",
    "Oceania": "land and sea bind people",
}

_TOPICS = ["meals", "greetings", "weddings", "markets", "music", "elders", "rain", "harvest"]


def toy_preference_dataset(n_queries=50, seed=42) -> list[PreferenceRecord]:
    """Continent-tagged toy set: 5 records per query, one per continent.

    The query carries the continent cue, so preferred responses are
    predictable from the query and the margin is not symmetric-by-construction.
    """
    rng = np.random.default_rng(seed)
    records = []
    for q in range(n_queries):
        topic = _TOPICS[int(rng.integers(len(_TOPICS)))]
        finals = {c: f"In {c}, {_STYLES[c]} for {topic}." for c in CONTINENTS}
        for c in CONTINENTS:
            records.append(
                PreferenceRecord(
                    query=f"q{q} ({c}): how do people approach {topic}?",
                    preferred=finals[c],
                    rejected=tuple(finals[o] for o in CONTINENTS if o != c),
                    continent=c,
                )
            )
    return records


def chat_body(text):
    """A chat-completions reply whose one choice says ``text``."""
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()


class ReplyServer:
    """Loopback HTTP server for client tests. The n-th POST gets the n-th
    ``(status, body)`` of ``replies``, and the last one repeats. Each request's
    path, JSON body, Authorization header and all its headers go to
    ``requests_seen``, and ``connections`` counts the connections accepted.

    It speaks HTTP/1.0, closing the connection after each reply, unless
    ``keep_alive`` is set: then it speaks HTTP/1.1 and keeps connections open.
    With ``hang_up`` as well, it closes each connection after its first reply
    without announcing it, as a server that drops idle connections does.

    With ``kill_at`` = k, the k-th request is recorded and not answered: the
    server sends SIGKILL to the process in ``child`` instead, so a client is
    killed at an exact point of its run."""

    def __init__(self, replies, keep_alive=False, hang_up=False, kill_at=None):
        self.replies = list(replies)
        self.keep_alive = keep_alive
        self.hang_up = hang_up
        self.kill_at = kill_at
        self.child = None  # the subprocess.Popen that kill_at kills
        self.requests_seen = []
        self._sockets = []
        self._server = None
        self._thread = None

    @property
    def connections(self):
        return len(self._sockets)

    @property
    def base_url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def respond(self):
        """The ``(status, body)`` for the request just recorded."""
        return self.replies[min(len(self.requests_seen), len(self.replies)) - 1]

    def __enter__(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1" if outer.keep_alive else "HTTP/1.0"
            disable_nagle_algorithm = True  # headers and body go in two writes

            def setup(self):
                super().setup()
                outer._sockets.append(self.connection)

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                outer.requests_seen.append({
                    "path": self.path,
                    "body": json.loads(self.rfile.read(length)),
                    "auth": self.headers.get("Authorization"),
                    "headers": dict(self.headers),
                })
                if len(outer.requests_seen) == outer.kill_at:
                    os.kill(outer.child.pid, signal.SIGKILL)
                    self.close_connection = True
                    return
                status, body = outer.respond()
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)
                self.close_connection = self.close_connection or outer.hang_up

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
        for sock in self._sockets:  # ends handlers still waiting on a kept-alive connection
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass


class RawReplyServer:
    """Loopback server for replies that ReplyServer cannot produce: the n-th
    request gets the n-th of ``replies``, bytes sent as they are, and the last
    one repeats. A reply given as a tuple of parts is sent one part at a time,
    50 ms apart, so that the client reads them apart. Each request's bytes go
    to ``requests_seen``, and ``connections`` counts the connections accepted.
    It serves one connection at a time and closes each after its first reply,
    unless ``keep_alive`` is set: then it reads the next request on it until
    the client closes it."""

    def __init__(self, replies, keep_alive=False):
        self.replies = list(replies)
        self.keep_alive = keep_alive
        self.requests_seen = []
        self.connections = 0
        self._listener = self._thread = self._conn = None

    @property
    def base_url(self):
        host, port = self._listener.getsockname()
        return f"http://{host}:{port}"

    def _serve(self):
        while True:
            try:
                self._conn, _ = self._listener.accept()
            except OSError:  # the listener was shut down
                return
            self.connections += 1
            try:
                with self._conn, self._conn.makefile("rb") as rfile:
                    while request := _read_request(rfile):
                        self.requests_seen.append(request)
                        reply = self.replies[min(len(self.requests_seen), len(self.replies)) - 1]
                        for k, part in enumerate(reply if isinstance(reply, tuple) else (reply,)):
                            threading.Event().wait(0.05 if k else 0)  # not time.sleep, which tests patch
                            self._conn.sendall(part)
                        if not self.keep_alive:
                            break
            except OSError:  # the client hung up on a reply it refused
                pass

    def __enter__(self):
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        # shutdown, not close, wakes a thread waiting in accept or on a kept-alive connection
        for sock in filter(None, (self._listener, self._conn)):
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        self._thread.join(timeout=10)
        self._listener.close()


def _read_request(rfile) -> bytes:
    """One request's head and Content-Length body, or b"" once the client closed."""
    head = b""
    while (line := rfile.readline()) not in (b"\r\n", b""):
        head += line
    length = re.search(rb"(?im)^content-length: *(\d+)", head)
    return head + b"\r\n" + rfile.read(int(length[1])) if length else head


def token_overlap_score(premise: str, hypothesis: str) -> float:
    """Deterministic Jaccard overlap of lowercase word sets; 1.0 for equal texts."""
    a = set(re.findall(r"\w+", premise.lower()))
    b = set(re.findall(r"\w+", hypothesis.lower()))
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


class MockScorerServer(ReplyServer):
    """Entailment scorer: each request gets ``{"score": score_fn(premise,
    hypothesis)}`` for its body, at 9 significant digits."""

    def __init__(self, score_fn=token_overlap_score):
        super().__init__([])
        self.score_fn = score_fn

    def respond(self):
        body = self.requests_seen[-1]["body"]
        return 200, json.dumps({"score": round9(self.score_fn(body["premise"], body["hypothesis"]))}).encode()
