"""Deterministic loopback chat-completions server for the ``synth`` workload.

Run as a child process: ``python3 bench/chat_stub.py`` binds 127.0.0.1 on a
free port, prints ``port <n>`` on its first stdout line and serves until its
stdin closes, so it also ends when the process that started it dies.

``POST /v1/chat/completions`` follows the wire contract of
``palette.backends.RemoteChat``. Each reply is derived from the sha256 of the
prompt, so equal prompts always get equal replies, and every reply kind has
a fixed size: ``REPLY_BYTES``, the reply length of the package's own local
backend (``LocalReference`` decodes at most 48 byte tokens). Self-judge
prompts get ``[Approved]`` or ``[Revise] ...`` by one hash bit each, so the
judge loop runs one to three rounds.

``GET /stats`` returns the server-side counters: chat requests, request and
response bytes, and seconds spent inside the chat handler.

Each response is sent with one write on a socket with Nagle's algorithm off;
writing headers and body separately makes keep-alive clients wait on a
delayed ACK for tens of milliseconds per call.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

REPLY_BYTES = 48
JUDGE_MARKER = "You are a cultural self-judge."
WORDS = (
    "custom", "elders", "harvest", "market", "family", "song", "river", "festival",
    "respect", "village", "coast", "story", "shared", "meal", "season", "craft",
)


def reply_for(prompt: str) -> str:
    """The stub's deterministic reply to one prompt."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    if JUDGE_MARKER in prompt:
        if digest[0] & 1:
            return "[Approved]"
        return "[Revise] " + _text(digest, REPLY_BYTES // 2)
    return _text(digest, REPLY_BYTES)


def _text(digest: bytes, size: int) -> str:
    words = []
    stream = digest
    while sum(len(w) + 1 for w in words) < size:
        words.extend(WORDS[b % len(WORDS)] for b in stream)
        stream = hashlib.sha256(stream).digest()
    return " ".join(words)[:size]


class Stats:
    def __init__(self):
        self.lock = threading.Lock()
        self.requests = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.handler_s = 0.0

    def add(self, bytes_in: int, bytes_out: int, seconds: float) -> None:
        with self.lock:
            self.requests += 1
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out
            self.handler_s += seconds

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "bytes_in": self.bytes_in,
                "bytes_out": self.bytes_out,
                "handler_s": self.handler_s,
            }


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    stats: Stats

    def _response(self, status: int, payload: bytes) -> bytes:
        head = (
            f"HTTP/1.1 {status} {self.responses.get(status, ('',))[0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode("ascii")
        return head + payload

    def _send(self, status: int, payload: bytes) -> None:
        self.wfile.write(self._response(status, payload))

    def do_GET(self):
        if self.path != "/stats":
            self._send(404, b"{}")
            return
        self._send(200, json.dumps(self.stats.snapshot()).encode("utf-8"))

    def do_POST(self):
        started = time.perf_counter()
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        if self.path != "/v1/chat/completions":
            self._send(404, b"{}")
            return
        try:
            request = json.loads(body)
            prompt = request["messages"][-1]["content"]
            if not isinstance(prompt, str) or not isinstance(request["model"], str):
                raise TypeError("prompt and model must be strings")
        except (ValueError, KeyError, IndexError, TypeError):
            self._send(400, b"{}")
            return
        payload = json.dumps(
            {"choices": [{"message": {"role": "assistant", "content": reply_for(prompt)}}]}
        ).encode("utf-8")
        response = self._response(200, payload)
        # Counted before the write, so a client that has its reply also
        # sees the request in /stats.
        self.stats.add(length, len(response), time.perf_counter() - started)
        self.wfile.write(response)

    def log_message(self, *args):
        pass


def main() -> int:
    Handler.stats = Stats()
    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=lambda: (sys.stdin.read(), server.shutdown()), daemon=True).start()
    print(f"port {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
