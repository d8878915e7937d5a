"""Shared constants, deterministic serialization, the JSONL format and the HTTP client."""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import os
import tempfile
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Sequence

from .errors import BadInput, EndpointUnreachable, IoFailure

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


def atomic_write_bytes(path, data: bytes) -> None:
    """Write via temp file + rename so failures never leave partial output."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# --- JSONL: one JSON object per line, keys sorted -------------------------------

def _jsonl_line(row) -> str:
    return json.dumps(row, sort_keys=True) + "\n"


def bad_line(path, index: int, message: str, **context) -> BadInput:
    """BadInput for the 0-based line ``index`` of ``path``, named ``file:line`` (1-based)."""
    return BadInput(f"{path}:{index + 1}: {message}", path=str(path), line=index + 1, **context)


def unreadable(path, exc: OSError) -> IoFailure:
    """IoFailure for a file that cannot be opened or read, naming ``path``."""
    return IoFailure(f"cannot read {path}: {exc}", path=str(path))


def iter_jsonl(path, required: Sequence[str] = ()):
    """Yield ``(index, row)`` for each non-blank line of a JSONL file.

    ``index`` is the 0-based position of the line in the file, blank lines
    included (what ``enumerate`` over the file gives). A line that is not
    valid UTF-8, does not parse, is not a JSON object or lacks one of the
    ``required`` keys raises BadInput naming the file and the 1-based line.
    A file that cannot be opened raises IoFailure naming the path.
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


def append_jsonl(path, row) -> None:
    """Append one row to a JSONL file."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_jsonl_line(row))


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


# --- HTTP: one JSON POST with retries -------------------------------------------

def post_json(
    url: str, payload, *, auth_env: str, timeout: float, retries: int = 3, backoff: float = 0.25
) -> bytes:
    """POST ``payload`` as JSON and return the body of a 200 reply.

    Sends a bearer token from ``auth_env`` when that variable is set. Makes up
    to ``retries`` attempts, one connection each, and retries connection errors
    and 5xx replies after ``backoff * 2**(attempt - 1)`` seconds. Any other
    status, or the last failure, raises EndpointUnreachable (``url``, ``status``).
    """
    headers = {"Content-Type": "application/json"}
    token = os.environ.get(auth_env, "")
    if token:
        headers["Authorization"] = f"Bearer {token}"
    try:
        request = urllib.request.Request(url, json.dumps(payload).encode("utf-8"), headers)
    except ValueError as exc:
        raise EndpointUnreachable(f"bad URL {url!r}: {exc}", url=url) from exc
    failure, context = "no attempts made", {}
    for attempt in range(retries):
        if attempt:
            time.sleep(backoff * 2 ** (attempt - 1))
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                if resp.status == 200:
                    return resp.read()
                status = resp.status
        except urllib.error.HTTPError as exc:
            exc.close()
            status = exc.code
        except (OSError, http.client.HTTPException) as exc:
            failure, context = f"{type(exc).__name__}: {exc}", {}
            continue
        if status is None or status < 500:
            raise EndpointUnreachable(f"{url} returned HTTP {status}", url=url, status=status)
        failure, context = f"HTTP {status}", {"status": status}
    raise EndpointUnreachable(f"{url}: {failure} after {retries} attempts", url=url, **context)
