"""Checkpoint container: bitwise round trips, full-audit loading, and
corruption detection."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptgraph import checkpoint
from adaptgraph.checkpoint import (FORMAT_VERSION, load_checkpoint, load_state,
                                   save_checkpoint, state_dict)
from adaptgraph.errors import ConfigError, DataError
from adaptgraph.network import ModelConfig, build
from adaptgraph.tensor import Tensor

CFG = ModelConfig(in_channels=3, k=3, stage_widths=(4, 4, 6, 6), emb_dims=8,
                  fc_widths=(8,), num_classes=3, mak_mid_channels=4)


def some_state():
    return {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "running": np.array([1.5, -2.5], dtype=np.float64)}


def test_state_dict_copies_not_views():
    model = build(CFG, seed=0)
    state = state_dict(model)
    state["head.bias"][:] = 123.0
    assert not np.any(model.head.bias.value.data == 123.0)
    assert "fuse_bn.running_mean" in state  # buffers travel with parameters


def test_load_state_transfers_model_exactly():
    a, b = build(CFG, seed=1), build(CFG, seed=2)
    x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8)).astype(np.float32))
    assert not np.array_equal(a.eval()(x).data, b.eval()(x).data)
    load_state(b, state_dict(a))
    np.testing.assert_array_equal(a.eval()(x).data, b.eval()(x).data)


def test_load_state_audits_before_mutating():
    model = build(CFG, seed=3)
    before = state_dict(model)
    good = state_dict(model)

    broken = dict(good)
    del broken["head.bias"]
    with pytest.raises(ConfigError, match="missing.*head.bias"):
        load_state(model, broken)

    broken = dict(good)
    broken["martian"] = np.zeros(1, dtype=np.float32)
    with pytest.raises(ConfigError, match="unexpected.*martian"):
        load_state(model, broken)

    broken = dict(good)
    broken["head.bias"] = np.zeros(99, dtype=np.float32)
    with pytest.raises(ConfigError, match="shape"):
        load_state(model, broken)

    broken = dict(good)
    broken["head.bias"] = broken["head.bias"].astype(np.float64)
    with pytest.raises(ConfigError, match="dtype"):
        load_state(model, broken)

    # a failed audit must leave every array untouched
    after = state_dict(model)
    for name in before:
        np.testing.assert_array_equal(before[name], after[name])


def test_file_round_trip_is_bitwise(tmp_path):
    path = tmp_path / "ck.bin"
    state = some_state()
    save_checkpoint(path, state, {"kind": "checkpoint", "note": "hello"})
    manifest, loaded = load_checkpoint(path)
    assert manifest["note"] == "hello"
    assert manifest["format_version"] == FORMAT_VERSION
    assert set(loaded) == set(state)
    for name in state:
        assert loaded[name].dtype == state[name].dtype
        np.testing.assert_array_equal(loaded[name], state[name])
        assert loaded[name].tobytes() == state[name].tobytes()


def test_save_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_checkpoint(p1, some_state(), {"kind": "checkpoint", "b": 1, "a": 2})
    save_checkpoint(p2, some_state(), {"a": 2, "kind": "checkpoint", "b": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_saved_bytes_match_the_byte_string_writer(tmp_path):
    # the writer streams each array's buffer; the file must hold exactly
    # what joining every blob's tobytes() after the manifest gives, for a
    # model state plus a non-contiguous, a 0-d and an empty array
    state = state_dict(build(CFG, seed=2))
    state["strided"] = np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2]
    state["scalar"] = np.array(2.5, dtype=np.float32)
    state["empty"] = np.zeros((0, 3), dtype=np.float64)
    path = tmp_path / "ck.bin"
    save_checkpoint(path, state, {"kind": "checkpoint"})
    blobs, payload = [], b""
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        tag = "f32" if arr.dtype == np.float32 else "f64"
        raw = arr.astype("<f4" if tag == "f32" else "<f8").tobytes()
        blobs.append({"name": name, "dtype": tag, "shape": list(arr.shape),
                      "nbytes": len(raw)})
        payload += raw
    header = {"kind": "checkpoint", "format_version": FORMAT_VERSION, "blobs": blobs}
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    assert path.read_bytes() == struct.pack("<I", len(encoded)) + encoded + payload


def test_model_round_trip_preserves_logits(tmp_path):
    path = tmp_path / "model.bin"
    model = build(CFG, seed=5)
    x = Tensor(np.random.default_rng(1).normal(size=(2, 3, 9)).astype(np.float32))
    want = model.eval()(x).data
    save_checkpoint(path, state_dict(model), {"kind": "checkpoint"})
    fresh = build(CFG, seed=6)
    manifest, state = load_checkpoint(path)
    load_state(fresh, state)
    np.testing.assert_array_equal(fresh.eval()(x).data, want)


def test_failing_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, some_state(), {"kind": "checkpoint"})
    before = path.read_bytes()

    class FailingFile:
        """A file whose third write raises, as a full disk would."""

        def __init__(self, f):
            self.f, self.writes = f, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.writes += 1
            if self.writes == 3:
                raise OSError("no space left on device")
            return self.f.write(data)

    monkeypatch.setattr(checkpoint, "open", lambda *a: FailingFile(open(*a)), raising=False)
    bigger = {**some_state(), "extra": np.ones(1000, dtype=np.float32)}
    with pytest.raises(OSError, match="no space"):
        save_checkpoint(path, bigger, {"kind": "checkpoint"})
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]
    # a save that succeeds replaces the file with exactly its own bytes
    save_checkpoint(path, bigger, {"kind": "checkpoint"})
    fresh = tmp_path / "fresh.bin"
    save_checkpoint(fresh, bigger, {"kind": "checkpoint"})
    assert path.read_bytes() == fresh.read_bytes() != before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin", "fresh.bin"]


def test_unsupported_blob_dtype_rejected(tmp_path):
    with pytest.raises(ConfigError, match="dtype"):
        save_checkpoint(tmp_path / "x.bin", {"w": np.zeros(2, dtype=np.int32)}, {})


def test_truncation_is_detected(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, some_state(), {"kind": "checkpoint"})
    raw = path.read_bytes()
    for cut in (2, len(raw) // 2, len(raw) - 3):
        clipped = tmp_path / f"cut{cut}.bin"
        clipped.write_bytes(raw[:cut])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(clipped)


def test_garbage_manifest_is_detected(tmp_path):
    path = tmp_path / "bad.bin"
    body = b"this is not json"
    path.write_bytes(struct.pack("<I", len(body)) + body)
    with pytest.raises(DataError, match="bad manifest"):
        load_checkpoint(path)


def test_version_mismatch_is_detected(tmp_path):
    path = tmp_path / "old.bin"
    body = json.dumps({"format_version": 999, "blobs": []}).encode()
    path.write_bytes(struct.pack("<I", len(body)) + body)
    with pytest.raises(DataError, match="version"):
        load_checkpoint(path)


# ---------------------------------------------------------------------
# header schema: every malformed header is a DataError, never a traceback
# ---------------------------------------------------------------------

def write_raw(path, header, payload=b""):
    body = json.dumps(header).encode()
    path.write_bytes(struct.pack("<I", len(body)) + body + payload)
    return path


def good_header(**blob):
    entry = {"name": "w", "dtype": "f32", "shape": [2, 3], "nbytes": 24}
    entry.update(blob)
    return {"format_version": FORMAT_VERSION, "blobs": [entry]}


PAYLOAD = np.arange(6, dtype="<f4").tobytes()


def test_well_formed_raw_header_loads(tmp_path):
    _, state = load_checkpoint(write_raw(tmp_path / "ok.bin", good_header(), PAYLOAD))
    np.testing.assert_array_equal(state["w"], np.arange(6, dtype=np.float32).reshape(2, 3))


def test_unknown_blob_dtype_is_a_data_error(tmp_path):
    path = write_raw(tmp_path / "x.bin", good_header(dtype="i8"), PAYLOAD)
    with pytest.raises(DataError, match=r"x\.bin.*unknown dtype 'i8'"):
        load_checkpoint(path)


def test_shape_disagreeing_with_nbytes_is_a_data_error(tmp_path):
    path = write_raw(tmp_path / "x.bin", good_header(shape=[4, 3]), PAYLOAD)
    with pytest.raises(DataError, match=r"x\.bin.*nbytes 24 does not match shape"):
        load_checkpoint(path)


def test_blobs_that_are_not_a_list_are_a_data_error(tmp_path):
    path = write_raw(tmp_path / "x.bin", {"format_version": FORMAT_VERSION, "blobs": 5})
    with pytest.raises(DataError, match=r"x\.bin.*\"blobs\" must be a list"):
        load_checkpoint(path)


def test_manifest_that_is_not_an_object_is_a_data_error(tmp_path):
    path = write_raw(tmp_path / "x.bin", [FORMAT_VERSION, []])
    with pytest.raises(DataError, match=r"x\.bin.*expected a JSON object, got list"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["name", "dtype", "shape", "nbytes"])
def test_blob_missing_a_key_is_a_data_error(tmp_path, key):
    header = good_header()
    del header["blobs"][0][key]
    path = write_raw(tmp_path / "x.bin", header, PAYLOAD)
    with pytest.raises(DataError, match=rf"x\.bin: blob 0 has no '{key}'"):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", [
    {"name": 7}, {"dtype": ["f32"]}, {"shape": "2x3"}, {"shape": [2, -3]},
    {"shape": [2.0, 3]}, {"nbytes": "24"}, {"nbytes": True}, {"nbytes": -24}])
def test_blob_with_a_mistyped_key_is_a_data_error(tmp_path, blob):
    path = write_raw(tmp_path / "x.bin", good_header(**blob), PAYLOAD)
    with pytest.raises(DataError, match=r"x\.bin: blob 0"):
        load_checkpoint(path)


def test_blob_that_is_not_an_object_is_a_data_error(tmp_path):
    path = write_raw(tmp_path / "x.bin", {"format_version": FORMAT_VERSION, "blobs": [3]})
    with pytest.raises(DataError, match="not a JSON object"):
        load_checkpoint(path)


def test_repeated_blob_name_is_a_data_error(tmp_path):
    header = good_header()
    header["blobs"].append(dict(header["blobs"][0]))
    path = write_raw(tmp_path / "x.bin", header, PAYLOAD + PAYLOAD)
    with pytest.raises(DataError, match="appears twice"):
        load_checkpoint(path)


def test_trailing_bytes_are_a_data_error(tmp_path):
    path = tmp_path / "ck.bin"
    save_checkpoint(path, some_state(), {"kind": "checkpoint"})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(DataError, match=r"ck\.bin: trailing bytes"):
        load_checkpoint(path)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=3),
    max_leaves=6)


@st.composite
def mutated_checkpoint(draw):
    """A valid two-blob checkpoint whose header has one key replaced or
    deleted, and whose payload may be cut or extended."""
    header = {"format_version": FORMAT_VERSION, "kind": "checkpoint", "blobs": [
        {"name": "a", "dtype": "f32", "shape": [2, 3], "nbytes": 24},
        {"name": "b", "dtype": "f64", "shape": [2], "nbytes": 16}]}
    payload = PAYLOAD + np.array([1.5, -2.5], dtype="<f8").tobytes()
    where = draw(st.sampled_from(["top", "blob", "whole blob", "payload"]))
    if where == "top":
        key = draw(st.sampled_from(["format_version", "kind", "blobs"]))
    elif where in ("blob", "whole blob"):
        pos = draw(st.integers(0, 1))
        target = header["blobs"] if where == "whole blob" else header["blobs"][pos]
        key = pos if where == "whole blob" else draw(
            st.sampled_from(["name", "dtype", "shape", "nbytes"]))
    if where == "payload":
        cut = draw(st.integers(-len(payload), 8))
        payload = payload[:cut] if cut < 0 else payload + b"\1" * cut
    else:
        target = header if where == "top" else target
        if draw(st.booleans()) and where != "whole blob":
            del target[key]
        else:
            target[key] = draw(_JSON)
    return header, payload


@settings(max_examples=200, deadline=None)
@given(mutated_checkpoint())
def test_mutated_header_loads_or_raises_data_error(tmp_path_factory, case):
    header, payload = case
    path = write_raw(tmp_path_factory.mktemp("fuzz") / "ck.bin", header, payload)
    try:
        _, state = load_checkpoint(path)
    except DataError:
        return
    for blob in header["blobs"]:
        assert state[blob["name"]].shape == tuple(blob["shape"])
