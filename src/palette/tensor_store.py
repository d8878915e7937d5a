"""Named-tensor checkpoints: a minimal safetensors-compatible container.

File layout: an 8-byte little-endian unsigned header length N, then N bytes
of UTF-8 JSON mapping tensor name -> {"dtype": "F32", "shape": [...],
"data_offsets": [begin, end]} plus an optional "__metadata__" string map,
then the raw little-endian tensor buffer. Offsets are relative to the
buffer start and must be non-overlapping and ascending in lexicographic
name order. Only F32 tensors are supported.

Saving is byte-deterministic: the same checkpoint always produces an
identical file. Loading reads the tensor buffer once, and each loaded tensor
is a writable view of its range in that buffer, so keeping any one tensor
keeps the whole file's data alive.
"""

from __future__ import annotations

import json
import math
import os
import struct
from collections.abc import Iterable, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .common import atomic_write_bytes, unreadable
from .errors import DuplicateName, MalformedHeader, PaletteError

F32_BYTES = 4


@dataclass
class TensorSpec:
    """One named dense tensor: flat row-major float32 data plus its shape."""

    name: str
    shape: tuple[int, ...]
    data: np.ndarray

    def __post_init__(self):
        self.shape = tuple(int(s) for s in self.shape)
        self.data = np.ascontiguousarray(self.data, dtype=np.float32).reshape(-1)
        self.validate()

    @classmethod
    def from_array(cls, name: str, array) -> "TensorSpec":
        arr = np.asarray(array, dtype=np.float32)
        return cls(name=name, shape=arr.shape, data=arr.reshape(-1))

    def validate(self) -> None:
        if not self.name:
            raise PaletteError("shape_mismatch", "tensor name must be non-empty")
        if any(s <= 0 for s in self.shape):
            raise PaletteError("shape_mismatch", f"non-positive dimension in shape {self.shape} of {self.name!r}")
        if math.prod(self.shape) != self.data.size:
            raise PaletteError(
                "shape_mismatch",
                f"tensor {self.name!r}: shape {self.shape} implies {math.prod(self.shape)} "
                f"elements but data has {self.data.size}"
            )

    def array(self) -> np.ndarray:
        """Data viewed in its declared shape."""
        return self.data.reshape(self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TensorSpec):
            return NotImplemented
        return (
            self.name == other.name
            and self.shape == other.shape
            and np.array_equal(self.data.view(np.uint32), other.data.view(np.uint32))
        )


class Checkpoint(Mapping):
    """An immutable-by-convention map of tensors, iterated lexicographically.
    ``path`` is the file it was loaded from (None if it was not loaded)."""

    def __init__(self, tensors: Iterable[TensorSpec] = (), metadata: Mapping[str, str] | None = None,
                 path: str | None = None):
        by_name: dict[str, TensorSpec] = {}
        for spec in tensors:
            if spec.name in by_name:
                raise DuplicateName(f"duplicate tensor name {spec.name!r}")
            by_name[spec.name] = spec
        self._tensors = {name: by_name[name] for name in sorted(by_name)}
        self.metadata: dict[str, str] = {str(k): str(v) for k, v in (metadata or {}).items()}
        self.path = path

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def __getitem__(self, name: str) -> TensorSpec:
        return self._tensors[name]

    def specs(self):
        return self._tensors.values()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        return (
            self.metadata == other.metadata
            and self.names == other.names
            and all(self[n] == other[n] for n in self.names)
        )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Serialize deterministically; same checkpoint -> identical bytes."""
    for spec in ckpt.specs():
        spec.validate()

    header: dict[str, object] = {}
    offset = 0
    blobs = []
    for name, spec in ckpt.items():
        end = offset + spec.data.size * F32_BYTES
        header[name] = {"dtype": "F32", "shape": list(spec.shape), "data_offsets": [offset, end]}
        blobs.append(spec.data.astype("<f4", copy=False))
        offset = end
    if ckpt.metadata:
        header["__metadata__"] = dict(sorted(ckpt.metadata.items()))

    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode("utf-8")
    atomic_write_bytes(path, [struct.pack("<Q", len(header_bytes)), header_bytes, *blobs])


def _reject_duplicate_keys(pairs):
    seen = set()
    out = {}
    for key, value in pairs:
        if key in seen:
            raise DuplicateName(f"duplicate tensor name {key!r} in header")
        seen.add(key)
        out[key] = value
    return out


@contextmanager
def naming_file(path):
    """Name ``path`` at the start of the message and in the context of a PaletteError
    raised in the block, unless ``path`` is None or the error names a path already."""
    try:
        yield
    except PaletteError as exc:
        if path is not None and "path" not in exc.context:
            exc.args = (f"{path}: {exc}",)
            exc.context["path"] = str(path)
        raise


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file, validating the header and all offsets. A
    refusal names ``path`` in its context and at the start of its message."""
    with naming_file(path):
        return _read_checkpoint(path)


def _read_checkpoint(path) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            size = fh.seek(0, os.SEEK_END)
            fh.seek(0)
            prefix = fh.read(8)
            if len(prefix) < 8:
                raise MalformedHeader(f"file too short for length prefix ({len(prefix)} bytes)")
            (header_len,) = struct.unpack("<Q", prefix)
            if 8 + header_len > size:
                raise MalformedHeader(f"declared header length {header_len} exceeds file size {size}")
            header_raw = fh.read(header_len)
            # Read apart from the header, so that tensors at multiples of 4 are aligned views.
            buffer = np.fromfile(fh, dtype=np.uint8)
    except OSError as exc:
        raise unreadable(path, exc) from exc

    try:
        header = json.loads(header_raw.decode("utf-8"), object_pairs_hook=_reject_duplicate_keys)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeader(f"header is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeader("header JSON must be an object")

    metadata = header.pop("__metadata__", {})
    if not isinstance(metadata, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
    ):
        raise MalformedHeader("__metadata__ must be a string-to-string map")

    specs = []
    prev_end = 0
    for name in sorted(header):
        entry = header[name]
        if not name:
            raise MalformedHeader("empty tensor name in header")
        if not isinstance(entry, dict):
            raise MalformedHeader(f"entry for {name!r} must be an object")
        dtype = entry.get("dtype")
        if dtype != "F32":
            raise MalformedHeader(f"tensor {name!r}: unsupported dtype {dtype!r} (only F32)")
        shape = entry.get("shape")
        if (
            not isinstance(shape, list)
            or not shape
            or not all(isinstance(s, int) and not isinstance(s, bool) and s > 0 for s in shape)
        ):
            raise MalformedHeader(f"tensor {name!r}: shape must be a list of positive integers")
        offsets = entry.get("data_offsets")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(isinstance(o, int) and not isinstance(o, bool) and o >= 0 for o in offsets)
            or offsets[0] > offsets[1]
        ):
            raise MalformedHeader(f"tensor {name!r}: bad data_offsets {offsets!r}")
        begin, end = offsets
        if begin < prev_end:
            raise MalformedHeader(
                f"tensor {name!r}: offsets overlap or are out of lexicographic order"
            )
        if end > len(buffer):
            raise MalformedHeader(f"tensor {name!r}: offsets extend past the data buffer")
        expected = math.prod(shape) * F32_BYTES
        if end - begin != expected:
            raise PaletteError(
                "shape_mismatch",
                f"tensor {name!r}: offsets span {end - begin} bytes but shape {shape} needs {expected}"
            )
        data = buffer[begin:end].view("<f4")
        if not data.flags.aligned:
            data = data.copy()
        specs.append(TensorSpec(name=name, shape=tuple(shape), data=data))
        prev_end = end

    return Checkpoint(specs, metadata, str(path))
