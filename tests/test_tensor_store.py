import json
import struct

import numpy as np
import pytest

from palette.errors import (
    DuplicateName,
    EmptySelectionWarning,
    MalformedHeader,
    ShapeMismatch,
)
from palette.tensor_store import (
    Checkpoint,
    TensorSpec,
    load_checkpoint,
    save_checkpoint,
    select_ffn,
)

from helpers import ckpt, random_checkpoint


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
            c = c.with_metadata(run=str(i), note="x" * int(rng.integers(1, 9)))
        path = tmp_path / f"ck{i}.st"
        save_checkpoint(c, path)
        assert load_checkpoint(path) == c


def test_save_is_byte_deterministic(tmp_path):
    rng = np.random.default_rng(7)
    c = random_checkpoint(rng).with_metadata(tag="a")
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
    with pytest.raises(ShapeMismatch):
        save_checkpoint(Checkpoint([spec]), path)
    assert not path.exists()


def _write_raw(path, header: dict, buffer: bytes):
    blob = json.dumps(header).encode()
    path.write_bytes(struct.pack("<Q", len(blob)) + blob + buffer)


def test_load_rejects_short_file(tmp_path):
    path = tmp_path / "short.st"
    path.write_bytes(b"\x01\x02")
    with pytest.raises(MalformedHeader):
        load_checkpoint(path)


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
    with pytest.raises(DuplicateName):
        load_checkpoint(path)


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
    with pytest.raises(ShapeMismatch):
        load_checkpoint(path)


def test_duplicate_name_at_construction():
    with pytest.raises(DuplicateName):
        Checkpoint([TensorSpec.from_array("w", [1.0]), TensorSpec.from_array("w", [2.0])])


def test_iteration_is_lexicographic():
    c = ckpt(zeta=[1.0], alpha=[2.0], mid=[3.0])
    assert c.names == ("alpha", "mid", "zeta")


def test_select_ffn_matches():
    c = ckpt(**{"layer0.ffn.w": [1.0], "layer0.attn.w": [1.0], "layer1.ffn.w": [1.0]})
    sub = select_ffn(c, "*.ffn.*")
    assert tuple(sub) == ("layer0.ffn.w", "layer1.ffn.w")


def test_select_ffn_universal_glob():
    c = ckpt(b=[1.0], a=[1.0])
    assert tuple(select_ffn(c, "*")) == ("a", "b")


def test_select_ffn_empty_warns():
    c = ckpt(w=[1.0])
    with pytest.warns(EmptySelectionWarning):
        sub = select_ffn(c, "nomatch*")
    assert len(sub) == 0


def test_select_ffn_brackets_are_literal():
    c = ckpt(**{"a[0]": [1.0], "a0": [2.0]})
    assert tuple(select_ffn(c, "a[?]")) == ("a[0]",)


def test_metadata_survives_round_trip(tmp_path):
    c = ckpt(w=[1.0]).with_metadata(config='{"d":1}', gate="0.2,0.8")
    path = tmp_path / "md.st"
    save_checkpoint(c, path)
    assert load_checkpoint(path).metadata == {"config": '{"d":1}', "gate": "0.2,0.8"}
