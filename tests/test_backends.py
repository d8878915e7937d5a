import http.client
import io
import json
import random
import socket
import sys
import threading

import pytest

from palette import common
from palette.common import post_json
from palette.backends import LocalReference, RemoteChat, ScriptedMock, option_distribution_from_scores
from palette.errors import BackendFailure, EndpointUnreachable
from palette.metrics import semantic_score
from palette.reference_model import BOS, SEP, TinyTransformer

from helpers import RawReplyServer, ReplyServer, chat_body, tiny_model
from oracles import sequence_logprob


class MockChatServer(ReplyServer):
    """Chat-completions endpoint that answers every call with `reply` and `status`."""

    def __init__(self, reply="pong", status=200):
        super().__init__([(status, chat_body(reply))])


@pytest.fixture
def attempts(monkeypatch):
    """One entry per connection the client opens: None, or the error it raised."""
    seen = []
    connect = http.client.HTTPConnection.connect

    def recording_connect(self):
        try:
            connect(self)
        except OSError as exc:
            seen.append(exc)
            raise
        seen.append(None)

    monkeypatch.setattr(http.client.HTTPConnection, "connect", recording_connect)
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
    backend = RemoteChat("http://127.0.0.1:1", model="toy")
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
    with ReplyServer([(404, b"{}"), (200, chat_body("pong"))], keep_alive=True) as server:
        backend = RemoteChat(server.base_url, model="toy", label="meta")
        with pytest.raises(BackendFailure) as exc:
            backend.complete("x")
        assert len(server.requests_seen) == 1
        # The 404 was read to its end: the next call goes out on the same connection.
        assert backend.complete("y") == "pong"
    assert exc.value.code == "backend_failure"
    assert exc.value.label == "meta"
    assert exc.value.context["status"] == 404
    assert sleeps == []
    assert attempts == [None]
    assert server.connections == 1


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
            RemoteChat(url, model="toy", label="Asia").complete("x")
    assert exc.value.label == "Asia"
    assert "status" not in exc.value.context
    assert len(attempts) == 3
    assert all(isinstance(a, ConnectionRefusedError) for a in attempts)
    assert sleeps == [0.25, 0.5]


def test_remote_and_scorer_calls_to_one_host_share_one_connection(sleeps, attempts):
    body = json.dumps({"choices": [{"message": {"content": "pong"}}], "score": 0.5}).encode()
    with ReplyServer([(200, body)], keep_alive=True) as server:
        backend = RemoteChat(server.base_url, model="toy")
        for k in range(5):
            assert backend.complete(f"q{k}") == "pong"
            assert semantic_score(server.base_url, "gold", f"answer {k}") == 0.5
    assert len(server.requests_seen) == 10
    assert server.connections == 1
    assert attempts == [None]
    assert sleeps == []


def test_a_connection_the_server_dropped_is_reopened_without_a_retry(sleeps):
    with ReplyServer([(200, chat_body("pong"))], keep_alive=True, hang_up=True) as server:
        backend = RemoteChat(server.base_url, model="toy")
        assert [backend.complete(f"q{k}") for k in range(3)] == ["pong"] * 3
    assert sleeps == []
    assert [seen["body"]["messages"][0]["content"] for seen in server.requests_seen] == ["q0", "q1", "q2"]
    assert server.connections == 3


def test_threads_never_share_a_connection_and_hand_each_one_back():
    n_threads, n_calls = 8, 25
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ReplyServer([(200, chat_body("pong"))], keep_alive=True) as server:
            backend = RemoteChat(server.base_url, model="toy")
            replies = []

            def work():
                for _ in range(n_calls):
                    replies.append(backend.complete("x"))

            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            port = server._server.server_address[1]
            idle = [c for key, conns in common._idle.items() if key[1:3] == ("127.0.0.1", port) for c in conns]
    finally:
        sys.setswitchinterval(switch)
    assert replies == ["pong"] * (n_threads * n_calls)
    assert len(server.requests_seen) == n_threads * n_calls
    # No more connections than calls in flight, and every one of them is back and idle once.
    assert 1 <= server.connections <= n_threads
    assert len({id(c) for c in idle}) == len(idle) == server.connections


def test_remote_chat_goes_through_the_http_proxy_of_the_environment(monkeypatch):
    for name in ("no_proxy", "NO_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with ReplyServer([(200, chat_body("via proxy"))]) as proxy:
        monkeypatch.setenv("http_proxy", proxy.base_url)
        reply = RemoteChat("http://example.invalid", model="toy").complete("x")
    assert reply == "via proxy"
    assert [seen["path"] for seen in proxy.requests_seen] == ["http://example.invalid/v1/chat/completions"]


@pytest.mark.parametrize("proxied", [False, True], ids=["direct", "via_http_proxy"])
def test_remote_chat_request_headers(monkeypatch, proxied):
    for name in ("no_proxy", "NO_PROXY", "http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("PALETTE_API_KEY", "key123")
    with ReplyServer([(200, chat_body("pong"))]) as server:
        url = "http://example.invalid:8080" if proxied else server.base_url
        if proxied:
            monkeypatch.setenv("http_proxy", server.base_url)
        assert RemoteChat(url, model="toy").complete("x") == "pong"
    body = json.dumps({"model": "toy", "messages": [{"role": "user", "content": "x"}], "temperature": 0})
    seen = server.requests_seen[-1]
    # The proxy gets the absolute URL; either way Host names the origin.
    assert seen["path"] == ("http://example.invalid:8080" if proxied else "") + "/v1/chat/completions"
    assert seen["headers"] == {
        "Host": url.removeprefix("http://"),
        "Accept-Encoding": "identity",
        "Content-Type": "application/json",
        "Content-Length": str(len(body)),
        "Authorization": "Bearer key123",
    }


def test_remote_chat_sends_each_request_in_one_write_without_http_client_requests(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("http.client built a request or read a reply")

    for cls, name in ((http.client.HTTPConnection, "request"), (http.client.HTTPConnection, "getresponse"),
                      (http.client.HTTPResponse, "begin")):
        monkeypatch.setattr(cls, name, refuse)
    sent, sendall = [], socket.socket.sendall

    def recording_sendall(sock, data, *args):
        if threading.current_thread() is threading.main_thread():  # the client's, not the server's
            sent.append(bytes(data))
        return sendall(sock, data, *args)

    monkeypatch.setattr(socket.socket, "sendall", recording_sendall)
    with ReplyServer([(200, chat_body("pong"))], keep_alive=True) as server:
        backend = RemoteChat(server.base_url, model="toy")
        assert [backend.complete(f"q{k}") for k in range(3)] == ["pong"] * 3
    assert len(sent) == 3
    for k, request in enumerate(sent):
        assert request.startswith(b"POST /v1/chat/completions HTTP/1.1\r\n")
        assert request.endswith(b"\r\n\r\n" + json.dumps(server.requests_seen[k]["body"]).encode())


OK_REPLY = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npong"


@pytest.mark.parametrize("replies, keep_alive, body, connections, sleeps_seen", [
    pytest.param([(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                   b"4;name=value\r\npong\r\n3\r\n!!!\r\n0\r\n", b"X-Trailer: t\r\n\r\n")],
                 True, b"pong!!!", 1, [], id="chunked-extension-trailer"),
    pytest.param([b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\nto the close"],
                 False, b"to the close", 2, [], id="http10-read-to-close"),
    pytest.param([b"HTPT/1.1 2OO OK\r\nContent-Length: 4\r\n\r\npong", OK_REPLY],
                 True, b"pong", 2, [0.25], id="garbled-status-line-retried"),
])
def test_post_json_reads_replies_of_each_framing(sleeps, replies, keep_alive, body, connections, sleeps_seen):
    # Two calls: a reply read to its exact end leaves a kept-alive connection usable.
    with RawReplyServer(replies, keep_alive=keep_alive) as server:
        for _ in range(2):
            assert post_json(server.base_url + "/x", {}, auth_env="UNSET_TOKEN", timeout=5.0) == body
        key = ("http", "127.0.0.1", int(server.base_url.rsplit(":", 1)[1]), None)
    assert server.connections == connections
    assert len(common._idle.get(key, [])) == keep_alive  # an HTTP/1.0 reply without keep-alive closes
    assert sleeps == sleeps_seen


@pytest.mark.parametrize("reply, error", [
    (b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort", "IncompleteRead"),
    (b"HTTP/1.1 200 OK\r\nX-Long: " + b"a" * 70000 + b"\r\nContent-Length: 4\r\n\r\npong", "LineTooLong"),
    (b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\nabcd", "Content-Length headers that differ"),
], ids=["body-shorter-than-content-length", "over-long-header-line", "content-lengths-that-differ"])
def test_post_json_retries_a_broken_reply_then_fails(sleeps, reply, error):
    with RawReplyServer([reply]) as server:
        with pytest.raises(EndpointUnreachable) as exc:
            post_json(server.base_url + "/x", {}, auth_env="UNSET_TOKEN", timeout=5.0)
    assert error in str(exc.value)
    assert len(server.requests_seen) == 3
    assert sleeps == [0.25, 0.5]


class _Reader(io.BufferedReader):
    def close(self):  # http.client closes its file after a body; the test then reads what is left
        pass


class _Socket:
    """What http.client.HTTPResponse reads a reply from: bytes, through one reader."""

    def __init__(self, data: bytes):
        self.rfile = _Reader(io.BytesIO(data))

    def makefile(self, mode):
        return self.rfile


def _well_formed_reply(rng: random.Random) -> bytes:
    """One HTTP/1.x reply: 100 Continue replies first or not, then a status, some headers in any case
    and order, each Connection form, and a body framed by chunked coding (with extensions, leading
    zeros and trailers), Content-Length, the close, or the status (204, 304)."""
    def eol():
        return rng.choice([b"\r\n", b"\r\n", b"\n"])

    def header(name: bytes, value: bytes) -> bytes:
        return rng.choice([name, name.lower(), name.upper()]) + b":" + rng.choice([b" ", b"", b"\t"]) + value + eol()

    head = b"".join(b"HTTP/1.1 100 Continue" + eol() + rng.choice([b"", header(b"X-Info", b"1")]) + eol()
                    for _ in range(rng.choice([0, 0, 0, 1, 2])))
    version = rng.choice([b"HTTP/1.0", b"HTTP/1.1"])
    status = rng.choice([200, 200, 200, 201, 204, 304, 404, 500, 503])
    head += version + b" %d" % status + rng.choice([b" OK", b"", b" Some Reason"]) + eol()
    headers = [header(b"X-H%d" % k, b"v%d" % rng.randrange(1000)) for k in range(rng.randrange(4))]
    connection = rng.choice([None, b"close", b"keep-alive", b"Keep-Alive", b"CLOSE", b"Upgrade, close",
                             b"te, keep-alive"])
    if connection is not None:
        headers.append(header(b"Connection", connection))
    body = rng.randbytes(rng.choice([0, 1, 5, 40, 300]))
    if status in (204, 304):
        framing = rng.choice(["none", "length"])
        body = b""  # a 304 may give the length of the body it does not send
    else:
        framing = rng.choice(["length", "chunked", "close"] if version == b"HTTP/1.1" else ["length", "close"])
    if framing == "length":
        headers.append(header(b"Content-Length", b"%d" % (rng.randrange(100) if status == 304 else len(body))))
    if framing == "chunked":
        headers.append(header(b"Transfer-Encoding", b"chunked"))
        chunks, pos = [], 0
        while pos < len(body):
            n = rng.randint(1, len(body) - pos)
            size = rng.choice([b"%x" % n, b"%X" % n, b"00%x" % n]) + rng.choice([b"", b";a=b", b'; name="v;x"'])
            chunks.append(size + b"\r\n" + body[pos:pos + n] + b"\r\n")
            pos += n
        trailer = b"X-Trailer: t\r\n" * rng.choice([0, 0, 1, 2])
        body = b"".join(chunks) + rng.choice([b"0", b"000"]) + rng.choice([b"", b";last"]) + b"\r\n" + trailer + b"\r\n"
    rng.shuffle(headers)
    return head + b"".join(headers) + eol() + body


def test_read_reply_agrees_with_http_client_on_well_formed_replies():
    rng = random.Random(19)
    sentinel = b"HTTP/1.1 299 NEXT\r\n"  # the next reply on a kept-alive connection
    for _ in range(3000):
        data = _well_formed_reply(rng) + sentinel
        socket_ = _Socket(data)
        theirs = http.client.HTTPResponse(socket_, method="POST")
        theirs.begin()
        want = (theirs.status, theirs.read(), not theirs.will_close)
        ours = io.BufferedReader(io.BytesIO(data))
        assert common._read_reply(ours) == want, data
        assert ours.read() == socket_.rfile.read(), data


def test_read_reply_keeps_no_connection_after_a_chunked_reply_with_a_content_length():
    # RFC 9112 6.3: the transfer coding frames the body, and the connection closes after it.
    data = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nTransfer-Encoding: chunked\r\n\r\n4\r\npong\r\n0\r\n\r\nNEXT"
    rfile = io.BufferedReader(io.BytesIO(data))
    assert common._read_reply(rfile) == (200, b"pong", False)
    assert rfile.read() == b"NEXT"


@pytest.mark.parametrize("base_url", ["127.0.0.1:9", "http:///nohost", "file://localhost/x", "http://127.0.0.1:99999",
                                      "http://127.0.0.1:9/a b", "http://127.0.0.1:9/caf\u00e9"])
def test_remote_chat_bad_url_fails_at_once(base_url, sleeps, attempts):
    with pytest.raises(BackendFailure) as exc:
        RemoteChat(base_url, model="toy", label="Asia").complete("x")
    assert exc.value.code == "backend_failure"
    assert "bad URL" in str(exc.value)
    assert exc.value.context == {"label": "Asia", "url": base_url + "/v1/chat/completions"}
    assert sleeps == []
    assert attempts == []


def test_remote_chat_token_that_cannot_go_in_a_header_fails_at_once(monkeypatch, sleeps, attempts):
    monkeypatch.setenv("PALETTE_API_KEY", "key\r\nX-Injected: 1")
    with pytest.raises(BackendFailure) as exc:
        RemoteChat("http://127.0.0.1:9", model="toy", label="Asia").complete("x")
    assert "PALETTE_API_KEY is not printable ASCII" in str(exc.value)
    assert sleeps == []
    assert attempts == []


@pytest.mark.parametrize("base_url", ["ftp://127.0.0.1:9", "http://:80", "http://127.0.0.1:99999", "not-a-url"])
def test_scorer_bad_url_fails_at_once(base_url, sleeps, attempts):
    with pytest.raises(EndpointUnreachable) as exc:
        semantic_score(base_url, "a", "b")
    assert exc.value.code == "endpoint_unreachable"
    assert "bad URL" in str(exc.value)
    assert sleeps == []
    assert attempts == []


def test_local_reference_deterministic():
    params = tiny_model()
    b1 = LocalReference(params)
    b2 = LocalReference(params)
    assert b1.complete("a question") == b2.complete("a question")


def test_local_reference_truncates_long_prompts():
    params = tiny_model(max_seq=48)
    backend = LocalReference(params)
    out = backend.complete("x" * 500)
    assert isinstance(out, str)


@pytest.mark.parametrize("reserve, kept", [(28, 2), (29, 1), (30, 0), (31, 0), (40, 0)])
def test_local_reference_prompt_budget_at_and_below_zero(reserve, kept):
    # max_seq 32 leaves 32 - reserve - 2 prompt bytes: 2, 1, 0, then below 0. Decoding
    # reserves MAX_NEW_TOKENS = 48, so complete() runs from a budget below 0.
    backend = LocalReference(tiny_model(max_seq=32))
    prompt = "abcdefghij" * 10
    tokens = backend._prompt_tokens(prompt, reserve)
    assert tokens == [BOS] + list(prompt.encode()[len(prompt) - kept:]) + [SEP]
    assert isinstance(backend.complete(prompt), str)


def test_local_reference_score_options_matches_logprobs():
    params = tiny_model()
    backend = LocalReference(params)
    model = TinyTransformer.from_checkpoint(params)
    prompt = "pick one"
    options = ["yes", "no", "maybe"]
    scores = backend.score_options(prompt, options)
    for got, option in zip(scores, options):
        tokens = [BOS] + list(prompt.encode()) + [SEP]
        cont = list(option.encode())
        expected = sequence_logprob(model, tokens, cont) / len(cont)
        assert got == pytest.approx(expected, abs=1e-12)


# A prompt longer than the window, and options of 0, 1, 7 and (capped at
# max_seq // 2 = 24) 40 bytes.
LONG_PROMPT = "Which answer fits best? " * 20
UNEVEN_OPTIONS = ["", "y", "perhaps", "z" * 40]


def _option_tokens(backend, options):
    return [list(o.encode())[: backend.model.cfg.max_seq // 2] or [SEP] for o in options]


def test_local_reference_scores_options_over_one_cut_prompt():
    backend = LocalReference(tiny_model(max_seq=48))
    conts = _option_tokens(backend, UNEVEN_OPTIONS)
    common = backend._prompt_tokens(LONG_PROMPT, max(map(len, conts)))
    assert len(common) + 24 == 48
    # Cut for its own length, a shorter option would keep more of the prompt.
    assert backend._prompt_tokens(LONG_PROMPT, 1) != common
    model = backend.model
    scores = backend.score_options(LONG_PROMPT, UNEVEN_OPTIONS)
    assert len(scores) == len(UNEVEN_OPTIONS)
    for got, cont in zip(scores, conts):
        assert got == pytest.approx(sequence_logprob(model, common, cont) / len(cont), rel=1e-12, abs=0)


def test_local_reference_score_options_passes_over_the_prompt_once(monkeypatch):
    backend = LocalReference(tiny_model(max_seq=48))
    calls = []
    extend = TinyTransformer._extend

    def recording_extend(self, tokens, pos, keys, values, rows=1, trace=None):
        calls.append((list(tokens), pos))
        return extend(self, tokens, pos, keys, values, rows, trace)

    monkeypatch.setattr(TinyTransformer, "_extend", recording_extend)
    conts = _option_tokens(backend, UNEVEN_OPTIONS)
    common = backend._prompt_tokens(LONG_PROMPT, max(map(len, conts)))
    backend.score_options(LONG_PROMPT, UNEVEN_OPTIONS)
    assert calls == [(common, 0)] + [(c[:-1], len(common)) for c in conts]


def test_local_reference_scores_no_options_without_the_model(monkeypatch):
    backend = LocalReference(tiny_model())

    def no_extend(self, *args, **kwargs):
        raise AssertionError("no option needs a model pass")

    monkeypatch.setattr(TinyTransformer, "_extend", no_extend)
    assert backend.score_options("pick one", []) == []
    assert backend.calls == ["pick one"]


def test_option_distribution_softmax():
    dist = option_distribution_from_scores([0.0, 0.0])
    assert dist == [0.5, 0.5]
    dist = option_distribution_from_scores([-1.0, -2.0, -3.0])
    assert abs(sum(dist) - 1.0) < 1e-12
    assert dist[0] > dist[1] > dist[2]
