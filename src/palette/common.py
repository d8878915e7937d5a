"""Shared constants, deterministic serialization, the JSONL format and the HTTP client."""

from __future__ import annotations

import contextlib
import functools
import hashlib
import http.client
import json
import logging
import math
import os
import threading
import time
import urllib.request
from pathlib import Path
from typing import Sequence
from urllib.parse import urlsplit, urlunsplit

from .errors import EndpointUnreachable, PaletteError

# Fixed continental order used everywhere a 5-way label axis appears.
CONTINENTS = ("Africa", "America", "Asia", "Europe", "Oceania")

logger = logging.getLogger(__name__)


def round9(x: float) -> float:
    """Round to 9 significant digits (the float-serialization contract)."""
    if not math.isfinite(x):
        return x
    return float(f"{x:.9g}")


def _canonical(obj):
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, float):
        return round9(obj)
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def dumps_canonical(obj, indent: int | None = 2) -> str:
    """JSON with sorted keys and floats rounded to 9 significant digits.

    Byte-deterministic for equal inputs; floats print as the shortest
    round-trip representation of their 9-digit rounding.
    """
    return json.dumps(_canonical(obj), sort_keys=True, indent=indent)


def fingerprint(obj) -> str:
    """Short stable hash of a JSON-serializable object."""
    return hashlib.sha256(dumps_canonical(obj, indent=None).encode("utf-8")).hexdigest()[:16]


def atomic_write_bytes(path, chunks: Sequence) -> None:
    """Write the buffers in `chunks`, in order, via temp file + rename so
    failures never leave partial output. The file gets the mode ``open(path, "w")``
    would give a new file: 0o666 less the umask. Any OSError, from creating the
    temp file to the rename, removes the temp file and raises io_failure naming ``path``."""
    path = Path(path)
    tmp = None
    try:
        name = path.parent / f"{path.name}.{os.urandom(4).hex()}.tmp"
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # mkstemp would make it 0o600
        tmp = name
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):
            raise unwritable(path, exc) from exc
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])


# --- JSONL: one JSON object per line, keys sorted -------------------------------

def _jsonl_line(row) -> str:
    return json.dumps(row, sort_keys=True) + "\n"


def bad_line(path, index: int, message: str, **context) -> PaletteError:
    """bad_input for the 0-based line ``index`` of ``path``, named ``file:line`` (1-based)."""
    return PaletteError("bad_input", f"{path}:{index + 1}: {message}", path=str(path), line=index + 1, **context)


def bad_file(path, message: str, **context) -> PaletteError:
    """bad_input for the whole file ``path``, named at the start of the message."""
    return PaletteError("bad_input", f"{path}: {message}", path=str(path), **context)


def unreadable(path, exc: OSError) -> PaletteError:
    """io_failure for a file that cannot be opened or read, naming ``path``."""
    return PaletteError("io_failure", f"cannot read {path}: {exc}", path=str(path))


def unwritable(path, exc: OSError) -> PaletteError:
    """io_failure for a file or directory that cannot be created or written, naming ``path``."""
    return PaletteError("io_failure", f"cannot write {path}: {exc}", path=str(path))


def row_id(path, index: int, row, seen: dict, default: str | None = None, keys: Sequence[str] = ("id",)) -> str:
    """The key of the row at 0-based line ``index`` of ``path``, added to ``seen`` ({key: 1-based line}): its first id
    under ``keys`` that is present, not null and not "", else ``default``; a string, or an integer (not a bool) as its
    decimal string. bad_input names the line of any other id, of a missing one with no default, and of a repeat."""
    qid = next((row[key] for key in keys if row.get(key) not in (None, "")), default)
    if qid is None:
        raise bad_line(path, index, f"missing key {keys[0]!r}", key=keys[0])
    if isinstance(qid, bool) or not isinstance(qid, (str, int)):
        raise bad_line(path, index, f"an id must be a string or an integer, got {type(qid).__name__}")
    qid = str(qid)
    if qid in seen:
        raise bad_line(path, index, f"query id {qid!r} repeats line {seen[qid]}")
    seen[qid] = index + 1
    return qid


def iter_jsonl(path, required: Sequence[str] = ()):
    """Yield ``(index, row)`` for each non-blank line of a JSONL file.

    ``index`` is the 0-based position of the line in the file, blank lines
    included (what ``enumerate`` over the file gives). A line that is not
    valid UTF-8, does not parse, is not a JSON object or lacks one of the
    ``required`` keys raises bad_input naming the file and the 1-based line.
    A file that cannot be opened raises io_failure naming the path.
    """
    try:
        # surrogateescape defers a decoding error to the line that holds it.
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise unreadable(path, exc) from exc
    with fh:
        for index, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    raise bad_line(path, index, "not valid UTF-8") from exc
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise bad_line(path, index, str(exc)) from exc
            if not isinstance(row, dict):
                raise bad_line(path, index, f"expected a JSON object, got {type(row).__name__}")
            for key in required:
                if key not in row:
                    raise bad_line(path, index, f"missing key {key!r}", key=key)
            yield index, row


def write_jsonl(path, rows) -> None:
    """Write all rows as a whole file, atomically."""
    atomic_write_text(path, "".join(_jsonl_line(row) for row in rows))


def append_jsonl(fds: dict, path, row) -> None:
    """Append one row and its newline to a JSONL file in one write, on the O_APPEND descriptor
    ``fds[path]``, which the first append to ``path`` opens and the caller closes. Any
    OSError, or a write cut short, raises io_failure naming ``path``."""
    data = _jsonl_line(row).encode("utf-8")
    try:
        if (fd := fds.get(path)) is None:
            fd = fds[path] = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        if (written := os.write(fd, data)) < len(data):
            raise OSError(f"wrote {written} of {len(data)} bytes")
    except OSError as exc:
        raise unwritable(path, exc) from exc


def drop_torn_tail(path) -> None:
    """Cut a final line that has no newline off an append-only JSONL file.

    `append_jsonl` writes a row and its newline in one write, so such a line
    is an append that a crash cut short. The file is truncated to the end
    of its last complete line, with a warning naming the file and the
    dropped byte count, so that it loads and the next append starts on a
    line of its own. A missing file is left alone.
    """
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        return
    except OSError as exc:
        raise unreadable(path, exc) from exc
    with fh:
        size = keep = fh.seek(0, os.SEEK_END)
        while keep:  # back to the last newline, 64 KiB at a time
            start = max(keep - 65536, 0)
            fh.seek(start)
            newline = fh.read(keep - start).rfind(b"\n")
            if newline >= 0:
                keep = start + newline + 1
                break
            keep = start
        if keep < size:
            fh.truncate(keep)
            logger.warning("%s: dropped a torn final line of %d bytes", path, size - keep)


# --- HTTP: one JSON POST with retries, on kept-alive connections ---------------

_idle: dict[tuple, list[tuple]] = {}  # (connection, its reader), by (scheme, host, port, proxy)
_idle_lock = threading.Lock()
ATTEMPTS = 3  # tries per post_json call
BACKOFF = 0.25  # seconds before the first retry, doubled before each later one
_MAX_LINE, _MAX_HEADERS = 65536, 100  # http.client's limits on a reply's head


def _line(rfile) -> bytes:
    if len(line := rfile.readline(_MAX_LINE + 1)) > _MAX_LINE:
        raise http.client.LineTooLong("reply line")
    return line


def _exact(rfile, size: int) -> bytes:
    if len(data := rfile.read(size)) < size:
        raise http.client.IncompleteRead(data, size - len(data))
    return data


def _read_reply(rfile) -> tuple[int, bytes, bool]:
    """One HTTP/1.x reply after any 1xx ones, ``(status, body, keep_alive)``, its body framed
    by chunked coding, Content-Length or the close. A bad reply, or one with Content-Length
    headers that differ, raises http.client.HTTPException. A chunked reply that also has a
    Content-Length is not kept alive."""
    status = 100
    while status < 200:
        head = (line := _line(rfile)).split(None, 2)
        if len(head) < 2 or head[0] not in (b"HTTP/1.0", b"HTTP/1.1") or not (len(head[1]) == 3 and head[1].isdigit()):
            raise http.client.BadStatusLine(repr(line)) if line else http.client.RemoteDisconnected("closed without a reply")
        status, headers = int(head[1]), {}
        while (line := _line(rfile)) not in (b"\r\n", b"\n", b""):
            if len(headers) == _MAX_HEADERS:
                raise http.client.HTTPException(f"got more than {_MAX_HEADERS} headers")
            name, _, value = line.partition(b":")
            name, value = name.strip().lower(), value.strip()
            if name == b"content-length" and headers.get(name, value) != value:
                raise http.client.HTTPException("Content-Length headers that differ")
            headers[name] = value
    connection = headers.get(b"connection", b"").lower()
    keep_alive = b"close" not in connection if head[0] == b"HTTP/1.1" else b"keep-alive" in connection
    if headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        chunks = []  # up to the last chunk, whose size is 0; an extension follows a ";"
        while (size := _line(rfile).split(b";", 1)[0].strip()).lstrip(b"0") or not size:
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise http.client.IncompleteRead(b"".join(chunks))
            chunks.append(_exact(rfile, int(size, 16) + 2)[:-2])  # the data, then its CRLF
        while _line(rfile) not in (b"\r\n", b"\n", b""):  # the trailer
            pass
        return status, b"".join(chunks), keep_alive and b"content-length" not in headers  # RFC 9112 6.3
    length = b"0" if status in (204, 304) else headers.get(b"content-length")
    if length is None:
        return status, rfile.read(), False
    if not length.isdigit():
        raise http.client.HTTPException(f"bad Content-Length {length!r}")
    return status, _exact(rfile, int(length)), keep_alive


def _exchange(key, request: bytes, timeout: float, reuse: bool = True):
    """Send ``request`` in one write on an idle connection to ``key``, with the reader it keeps, or
    a new one that http.client opens, and read the whole reply: ``(status, body)``. A reused
    one that fails with a ConnectionError before any reply byte came is reopened once."""
    with _idle_lock:
        conn, rfile = _idle[key].pop() if reuse and _idle.get(key) else (None, None)
    reused = conn is not None
    if not reused:
        scheme, host, port, proxy = key
        via = urlsplit(proxy if "://" in proxy else "//" + proxy) if proxy else None
        cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        conn = cls(via.hostname, via.port, timeout=timeout) if via else cls(host, port, timeout=timeout)
        if via and scheme == "https":
            conn.set_tunnel(host, port)
    replied = b""
    try:
        if not reused:
            conn.connect()  # with TLS and a proxy's CONNECT tunnel, as the key asks
            rfile = conn.sock.makefile("rb")
        if conn.sock.gettimeout() != timeout:
            conn.sock.settimeout(timeout)
        conn.sock.sendall(request)
        replied = rfile.peek(1)
        status, data, keep_alive = _read_reply(rfile)
    except BaseException as exc:
        if rfile is not None:
            rfile.close()  # the reader holds the socket's descriptor open until it closes
        conn.close()
        if reused and not replied and isinstance(exc, ConnectionError):
            return _exchange(key, request, timeout, reuse=False)
        raise
    if keep_alive:
        with _idle_lock:
            _idle.setdefault(key, []).append((conn, rfile))
    else:
        rfile.close()
        conn.close()
    return status, data


@functools.lru_cache(maxsize=64)
def _split(url: str) -> tuple[tuple, str, str]:
    """``((scheme, host, port), netloc, request path)`` of an ``http(s)://host...`` URL in printable ASCII."""
    try:
        parts = urlsplit(url)
        key = (parts.scheme, parts.hostname, parts.port)
    except ValueError:  # a bad port or IPv6 literal
        key = ("", None, None)
    if key[0] not in ("http", "https") or not key[1] or not (url.isascii() and url.isprintable()) or " " in url:
        raise EndpointUnreachable(f"bad URL {url!r}: expected http(s)://host...", url=url)
    return key, parts.netloc, urlunsplit(("", "", parts.path, parts.query, "")) or "/"


def post_json(url: str, payload, *, auth_env: str, timeout: float) -> bytes:
    """POST ``payload`` as JSON and return the body of a 200 reply.

    Sends a bearer token from ``auth_env`` if set, via the environment's ``http(s)_proxy``
    unless ``no_proxy`` names the host, on a kept-alive connection. Up to ``ATTEMPTS``
    attempts; connection errors, malformed and 5xx replies are retried after ``BACKOFF *
    2**(attempt - 1)`` seconds. Any other status (3xx too), the last failure, a URL not of
    the form ``http(s)://host...``, or a URL or token that is not printable ASCII raises
    EndpointUnreachable (``url``, ``status``).
    """
    key, netloc, path = _split(url)
    token = os.environ.get(auth_env, "")
    if not (token.isascii() and token.isprintable()):
        raise EndpointUnreachable(f"{auth_env} is not printable ASCII, as a header must be", url=url)
    name = key[0] + "_proxy"  # as urllib.request.getproxies() reads it, without a scan of os.environ
    proxy = os.environ[name] if name in os.environ else os.environ.get(name.upper())
    proxy = None if not proxy or urllib.request.proxy_bypass(netloc) else proxy
    target = url if proxy and key[0] == "http" else path
    body = json.dumps(payload).encode("utf-8")
    auth = f"Authorization: Bearer {token}\r\n" if token else ""
    request = (f"POST {target} HTTP/1.1\r\nHost: {netloc.rpartition('@')[2]}\r\nAccept-Encoding: identity\r\n"
               f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n{auth}\r\n").encode("ascii") + body
    failure, context = "no attempts made", {}
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF * 2 ** (attempt - 1))
        try:
            status, data = _exchange((*key, proxy), request, timeout)
        except (OSError, http.client.HTTPException) as exc:
            failure, context = f"{type(exc).__name__}: {exc}", {}
            continue
        if status == 200:
            return data
        if status < 500:
            raise EndpointUnreachable(f"{url} returned HTTP {status}", url=url, status=status)
        failure, context = f"HTTP {status}", {"status": status}
    raise EndpointUnreachable(f"{url}: {failure} after {ATTEMPTS} attempts", url=url, **context)
