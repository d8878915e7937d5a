import errno
import io
import json
import os
import re
import struct
import tracemalloc

import numpy as np
import pytest

from palette.common import atomic_write_bytes
from palette.errors import DuplicateName, MalformedHeader
from palette.reference_model import ModelConfig, init_model
from palette.tensor_store import (
    Checkpoint,
    TensorSpec,
    load_checkpoint,
    save_checkpoint,
)

from helpers import ckpt, raises_code, random_checkpoint


def test_single_tensor_round_trip(tmp_path):
    c = ckpt(w=np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = tmp_path / "one.st"
    save_checkpoint(c, path)
    loaded = load_checkpoint(path)
    assert loaded["w"].shape == (2, 2)
    assert list(loaded["w"].data) == [1.0, 2.0, 3.0, 4.0]
    assert loaded == c


def test_round_trip_100_random_checkpoints(tmp_path):
    rng = np.random.default_rng(1234)
    for i in range(100):
        c = random_checkpoint(rng, n_tensors=int(rng.integers(1, 6)))
        if rng.random() < 0.5:
            c = Checkpoint(c.specs(), {**c.metadata, "run": str(i), "note": "x" * int(rng.integers(1, 9))})
        path = tmp_path / f"ck{i}.st"
        save_checkpoint(c, path)
        assert load_checkpoint(path) == c


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    c = Checkpoint(random_checkpoint(rng).specs(), {"tag": "a"})
    p1, p2 = tmp_path / "a.st", tmp_path / "b.st"
    save_checkpoint(c, p1)
    save_checkpoint(c, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_empty_checkpoint_round_trips(tmp_path):
    path = tmp_path / "empty.st"
    save_checkpoint(Checkpoint(), path)
    loaded = load_checkpoint(path)
    assert len(loaded) == 0 and loaded.metadata == {}


def test_save_rejects_shape_data_mismatch(tmp_path):
    spec = TensorSpec.from_array("w", np.zeros(4))
    spec.shape = (3, 3)  # corrupt after construction
    path = tmp_path / "bad.st"
    with raises_code("shape_mismatch"):
        save_checkpoint(Checkpoint([spec]), path)
    assert not path.exists()


def _write_raw(path, header: dict, buffer: bytes):
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + buffer)


def test_load_rejects_short_file(tmp_path):
    path = tmp_path / "short.st"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(MalformedHeader) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: file too short for length prefix (2 bytes)"
    assert exc.value.context == {"path": str(path)}


def test_load_rejects_oversized_length_prefix(tmp_path):
    path = tmp_path / "len.st"
    path.write_bytes(struct.pack("<Q", 10_000) + b"{}")
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_load_rejects_garbage_header(tmp_path):
    path = tmp_path / "garbage.st"
    blob = b"not json at all"
    path.write_bytes(struct.pack("<Q", len(blob)) + blob)
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_load_rejects_overlapping_offsets(tmp_path):
    path = tmp_path / "overlap.st"
    buf = np.zeros(4, dtype="<f4").tobytes()
    _write_raw(
        path,
        {
            "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
        },
        buf,
    )
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_load_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dup.st"
    entry = '{"dtype":"F32","shape":[1],"data_offsets":[0,4]}'
    blob = ('{"w":' + entry + ',"w":' + entry + "}").encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + np.zeros(1, dtype="<f4").tobytes())
    with pytest.raises(DuplicateName, match=f"^{re.escape(str(path))}: duplicate tensor name 'w' in header$") as exc:
        load_checkpoint(path)
    assert exc.value.context == {"path": str(path)}


def test_load_rejects_unsupported_dtype(tmp_path):
    path = tmp_path / "dtype.st"
    _write_raw(
        path,
        {"w": {"dtype": "F16", "shape": [2], "data_offsets": [0, 4]}},
        np.zeros(1, dtype="<f4").tobytes(),
    )
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


def test_load_rejects_offsets_vs_shape_mismatch(tmp_path):
    path = tmp_path / "span.st"
    _write_raw(
        path,
        {"w": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}},
        np.zeros(2, dtype="<f4").tobytes(),
    )
    with raises_code("shape_mismatch", match=f"^{re.escape(str(path))}: tensor 'w': offsets span 8 bytes") as exc:
        load_checkpoint(path)
    assert exc.value.context == {"path": str(path)}


def test_duplicate_name_at_construction():
    with pytest.raises(DuplicateName):
        Checkpoint([TensorSpec.from_array("w", [1.0]), TensorSpec.from_array("w", [2.0])])


def test_iteration_is_lexicographic():
    c = ckpt(zeta=[1.0], alpha=[2.0], mid=[3.0])
    assert c.names == ("alpha", "mid", "zeta")


def test_metadata_survives_round_trip(tmp_path):
    c = ckpt({"config": '{"d":1}', "gate": "0.2,0.8"}, w=[1.0])
    path = tmp_path / "md.st"
    save_checkpoint(c, path)
    assert load_checkpoint(path).metadata == {"config": '{"d":1}', "gate": "0.2,0.8"}


def _f32(*words):
    return np.array(words, dtype=np.uint32).view(np.float32)


def test_tensor_equality_is_bitwise():
    assert TensorSpec("w", (1,), _f32(0x00000000)) != TensorSpec("w", (1,), _f32(0x80000000))  # 0.0, -0.0
    quiet_nan = _f32(0x7FC00000, 0x7FC00001)
    assert TensorSpec("w", (2,), quiet_nan) == TensorSpec("w", (2,), quiet_nan.copy())
    assert TensorSpec("w", (2,), quiet_nan) != TensorSpec("w", (2,), _f32(0x7FC00000, 0x7FC00002))


def test_load_and_save_copy_no_tensor(tmp_path):
    # Header lengths of every residue mod 4: a loaded tensor is an aligned,
    # writable view of one buffer per file, and a save writes the tensors as they are.
    model = init_model(ModelConfig(d_model=256, n_layers=1))
    residues = set()
    for pad in range(4):
        path = tmp_path / f"m{pad}.st"
        c = Checkpoint(model.specs(), {**model.metadata, "note": "x" * pad})
        tracemalloc.start()
        try:
            save_checkpoint(c, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_checkpoint(path)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert save_peak <= 0.1 * size and load_peak <= 1.1 * size, (save_peak, load_peak, size)
        residues.add((8 + struct.unpack("<Q", path.read_bytes()[:8])[0]) % 4)
        assert all(spec.data.flags.aligned and spec.data.flags.writeable for spec in loaded.specs())
        assert loaded == c
    assert residues == {0, 1, 2, 3}


def test_load_copies_a_tensor_at_an_unaligned_offset(tmp_path):
    path = tmp_path / "gap.st"
    a, b = np.array([1.5], dtype="<f4"), np.array([-2.25, 3.0e-38], dtype="<f4")
    _write_raw(
        path,
        {
            "a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},
            "b": {"dtype": "F32", "shape": [2], "data_offsets": [5, 13]},
        },
        a.tobytes() + b"\xff" + b.tobytes(),
    )
    loaded = load_checkpoint(path)
    assert loaded["a"].data.tobytes() == a.tobytes() and loaded["b"].data.tobytes() == b.tobytes()
    assert loaded["b"].data.flags.aligned and loaded["b"].data.flags.writeable


def test_load_rejects_a_file_cut_inside_its_data(tmp_path):
    path = tmp_path / "cut.st"
    save_checkpoint(ckpt(a=[1.0, 2.0], b=[3.0, 4.0]), path)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(MalformedHeader, match="past the data buffer"):
        load_checkpoint(path)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_from_a_pipe_is_an_io_failure(tmp_path):
    path = tmp_path / "p.st"
    save_checkpoint(ckpt(w=[1.0]), path)
    r, w = os.pipe()
    try:
        os.write(w, path.read_bytes())
        os.close(w)
        with raises_code("io_failure", match=f"/dev/fd/{r}"):
            load_checkpoint(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_writing_a_loaded_tensor_leaves_the_others_alone(tmp_path):
    path = tmp_path / "w.st"
    c = ckpt(a=[1.0, 2.0], b=[3.0, 4.0, 5.0], c=[6.0])
    save_checkpoint(c, path)
    loaded = load_checkpoint(path)
    loaded["b"].data[:] = 9.0
    assert loaded["a"] == c["a"] and loaded["c"] == c["c"]
    assert list(loaded["b"].data) == [9.0, 9.0, 9.0]
    assert load_checkpoint(path) == c


class _SecondWriteFails(io.BufferedWriter):
    writes = 0

    def write(self, chunk):
        self.writes += 1
        if self.writes == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(chunk)


def test_a_failed_chunk_write_keeps_the_old_file(tmp_path, monkeypatch):
    target = tmp_path / "m.st"
    target.write_bytes(b"old bytes")
    monkeypatch.setattr(os, "fdopen", lambda fd, mode: _SecondWriteFails(io.FileIO(fd, "w")))
    with raises_code("io_failure", match=re.escape(str(target))) as failure:
        atomic_write_bytes(target, [b"new", b"bytes"])
    assert failure.value.context == {"path": str(target)}
    assert target.read_bytes() == b"old bytes"
    with raises_code("io_failure", match=re.escape(str(target))):
        save_checkpoint(ckpt(w=[1.0, 2.0]), target)
    assert target.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.st"]
