import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from palette.backends import LocalReference, RemoteChat, ScriptedMock, option_distribution_from_scores
from palette.errors import BackendFailure
from palette.reference_model import BOS, SEP, TinyTransformer

from helpers import tiny_model


class MockChatServer:
    """Minimal chat-completions endpoint used to exercise the wire contract."""

    def __init__(self, reply="pong", status=200):
        self.reply = reply
        self.status = status
        self.requests_seen = []
        self._server = None
        self._thread = None

    @property
    def base_url(self):
        host, port = self._server.server_address
        return f"http://{host}:{port}"

    def __enter__(self):
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                if self.path != "/v1/chat/completions":
                    self.send_error(404)
                    return
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length))
                outer.requests_seen.append(
                    {"body": body, "auth": self.headers.get("Authorization")}
                )
                if outer.status != 200:
                    self.send_error(outer.status)
                    return
                payload = json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": outer.reply}}]}
                ).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._thread.join()
        self._server.server_close()


def test_scripted_mock_resolution_order():
    mock = ScriptedMock(default="dflt", exact={"hi": "exact"}, script=["s1", "s2"])
    assert mock.complete("hi") == "exact"
    assert mock.complete("other") == "s1"
    assert mock.complete("other") == "s2"
    assert mock.complete("other") == "dflt"
    assert len(mock.calls) == 4


def test_scripted_mock_echo():
    mock = ScriptedMock(echo=True)
    assert mock.complete("repeat me") == "repeat me"


def test_scripted_mock_no_reply_raises():
    mock = ScriptedMock(label="Asia")
    with pytest.raises(BackendFailure) as exc:
        mock.complete("anything")
    assert exc.value.label == "Asia"


def test_remote_chat_wire_contract(monkeypatch):
    monkeypatch.setenv("PALETTE_API_KEY", "key123")
    with MockChatServer(reply="hello back") as server:
        backend = RemoteChat(server.base_url, model="toy-model", label="meta")
        reply = backend.complete("hello there")
    assert reply == "hello back"
    seen = server.requests_seen[-1]
    assert seen["auth"] == "Bearer key123"
    assert seen["body"]["model"] == "toy-model"
    assert seen["body"]["temperature"] == 0
    assert seen["body"]["messages"] == [{"role": "user", "content": "hello there"}]
    assert backend.calls == ["hello there"]


def test_remote_chat_http_error():
    with MockChatServer(status=500) as server:
        backend = RemoteChat(server.base_url, model="toy", label="meta")
        with pytest.raises(BackendFailure):
            backend.complete("x")


def test_remote_chat_connection_error():
    backend = RemoteChat("http://127.0.0.1:1", model="toy", timeout=0.2)
    with pytest.raises(BackendFailure):
        backend.complete("x")


def test_local_reference_deterministic():
    params = tiny_model()
    b1 = LocalReference(params, max_new_tokens=8)
    b2 = LocalReference(params, max_new_tokens=8)
    assert b1.complete("a question") == b2.complete("a question")


def test_local_reference_truncates_long_prompts():
    params = tiny_model(max_seq=48)
    backend = LocalReference(params, max_new_tokens=8)
    out = backend.complete("x" * 500)
    assert isinstance(out, str)


@pytest.mark.parametrize("max_new_tokens, kept", [(28, 2), (29, 1), (30, 0), (31, 0), (40, 0)])
def test_local_reference_prompt_budget_at_and_below_zero(max_new_tokens, kept):
    # max_seq 32 leaves 32 - max_new_tokens - 2 prompt bytes: 2, 1, 0, then below 0.
    backend = LocalReference(tiny_model(max_seq=32), max_new_tokens=max_new_tokens)
    prompt = "abcdefghij" * 10
    tokens = backend._prompt_tokens(prompt, max_new_tokens)
    assert tokens == [BOS] + list(prompt.encode()[len(prompt) - kept:]) + [SEP]
    assert isinstance(backend.complete(prompt), str)


def test_local_reference_score_options_matches_logprobs():
    params = tiny_model()
    backend = LocalReference(params, max_new_tokens=8)
    model = TinyTransformer.from_checkpoint(params)
    prompt = "pick one"
    options = ["yes", "no", "maybe"]
    scores = backend.score_options(prompt, options)
    for got, option in zip(scores, options):
        tokens = [BOS] + list(prompt.encode()) + [SEP]
        cont = list(option.encode())
        expected = model.sequence_logprob(tokens, cont) / len(cont)
        assert got == pytest.approx(expected, abs=1e-12)


def test_option_distribution_softmax():
    dist = option_distribution_from_scores([0.0, 0.0])
    assert dist == [0.5, 0.5]
    dist = option_distribution_from_scores([-1.0, -2.0, -3.0])
    assert abs(sum(dist) - 1.0) < 1e-12
    assert dist[0] > dist[1] > dist[2]
