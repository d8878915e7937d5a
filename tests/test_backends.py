import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from palette.backends import LocalReference, RemoteChat, ScriptedMock, option_distribution_from_scores
from palette.errors import BackendFailure
from palette.reference_model import BOS, SEP, TinyTransformer

from helpers import ReplyServer, tiny_model


def chat_body(text):
    return json.dumps({"choices": [{"message": {"role": "assistant", "content": text}}]}).encode()


class MockChatServer(ReplyServer):
    """Chat-completions endpoint that answers every call with `reply` and `status`."""

    def __init__(self, reply="pong", status=200):
        super().__init__([(status, chat_body(reply))])


@pytest.fixture
def sleeps(monkeypatch):
    """The seconds of every `time.sleep` call, which returns at once."""
    seen = []
    monkeypatch.setattr(time, "sleep", seen.append)
    return seen


@pytest.fixture
def attempts(monkeypatch):
    """One entry per `urlopen` call: None, or the error it raised."""
    seen = []
    urlopen = urllib.request.urlopen

    def recording_urlopen(*args, **kwargs):
        try:
            response = urlopen(*args, **kwargs)
        except OSError as exc:  # URLError and HTTPError
            seen.append(exc)
            raise
        seen.append(None)
        return response

    monkeypatch.setattr(urllib.request, "urlopen", recording_urlopen)
    return seen


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
    assert seen["path"] == "/v1/chat/completions"
    assert seen["auth"] == "Bearer key123"
    assert seen["body"]["model"] == "toy-model"
    assert seen["body"]["temperature"] == 0
    assert seen["body"]["messages"] == [{"role": "user", "content": "hello there"}]
    assert backend.calls == ["hello there"]


def test_remote_chat_http_error(sleeps):
    with MockChatServer(status=500) as server:
        backend = RemoteChat(server.base_url, model="toy", label="meta")
        with pytest.raises(BackendFailure):
            backend.complete("x")
    assert sleeps == [0.25, 0.5]


def test_remote_chat_connection_error(sleeps):
    backend = RemoteChat("http://127.0.0.1:1", model="toy", timeout=0.2)
    with pytest.raises(BackendFailure):
        backend.complete("x")
    assert sleeps == [0.25, 0.5]


def test_remote_chat_retries_a_5xx_reply(sleeps):
    with ReplyServer([(503, b"{}"), (200, chat_body("pong"))]) as server:
        reply = RemoteChat(server.base_url, model="toy", label="meta").complete("x")
    assert reply == "pong"
    assert len(server.requests_seen) == 2
    assert sleeps == [0.25]


def test_remote_chat_4xx_fails_at_once(sleeps, attempts):
    with MockChatServer(status=404) as server:
        backend = RemoteChat(server.base_url, model="toy", label="meta")
        with pytest.raises(BackendFailure) as exc:
            backend.complete("x")
    assert exc.value.code == "backend_failure"
    assert exc.value.label == "meta"
    assert exc.value.context["status"] == 404
    assert len(server.requests_seen) == 1
    assert sleeps == []
    assert len(attempts) == 1
    assert isinstance(attempts[0], urllib.error.HTTPError) and attempts[0].fp.closed


def test_remote_chat_5xx_to_the_end_keeps_the_status(sleeps):
    with MockChatServer(status=503) as server:
        with pytest.raises(BackendFailure) as exc:
            RemoteChat(server.base_url, model="toy", label="meta").complete("x")
    assert exc.value.context["status"] == 503
    assert len(server.requests_seen) == 3
    assert sleeps == [0.25, 0.5]


def test_remote_chat_refused_connection_fails_after_three_attempts(sleeps, attempts):
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))  # bound but not listening: connections are refused
        url = f"http://127.0.0.1:{sock.getsockname()[1]}"
        with pytest.raises(BackendFailure) as exc:
            RemoteChat(url, model="toy", label="Asia", timeout=2.0).complete("x")
    assert exc.value.label == "Asia"
    assert "status" not in exc.value.context
    assert len(attempts) == 3
    assert sleeps == [0.25, 0.5]


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
