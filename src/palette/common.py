"""Shared constants, deterministic serialization and the JSONL file format."""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
from pathlib import Path

from .errors import BadInput

# Fixed continental order used everywhere a 5-way label axis appears.
CONTINENTS = ("Africa", "America", "Asia", "Europe", "Oceania")


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


def iter_jsonl(path):
    """Yield ``(index, row)`` for each non-blank line of a JSONL file.

    ``index`` is the 0-based position of the line in the file, blank lines
    included (what ``enumerate`` over the file gives). A line that does not
    parse, or is not a JSON object, raises BadInput naming the file and the
    1-based line.
    """
    with open(path, encoding="utf-8") as fh:
        for index, line in enumerate(fh):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise BadInput(f"{path}:{index + 1}: {exc}", path=str(path), line=index + 1) from exc
            if not isinstance(row, dict):
                raise BadInput(
                    f"{path}:{index + 1}: expected a JSON object, got {type(row).__name__}",
                    path=str(path),
                    line=index + 1,
                )
            yield index, row


def write_jsonl(path, rows) -> None:
    """Write all rows as a whole file, atomically."""
    atomic_write_text(path, "".join(_jsonl_line(row) for row in rows))


def append_jsonl(path, row) -> None:
    """Append one row to a JSONL file."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_jsonl_line(row))
