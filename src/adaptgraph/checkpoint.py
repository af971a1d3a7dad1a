"""Single-file model checkpoints: length-prefixed JSON manifest + raw blobs.

Layout: 4-byte little-endian manifest length, the UTF-8 JSON manifest, then
every array's bytes back to back. The manifest's "blobs" list records name,
dtype tag, shape and byte count in payload order, so reads are sequential and
round-trips are bitwise exact. Payloads are little-endian regardless of host.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Dict, Tuple

import numpy as np

from .errors import ConfigError, DataError
from .nn import Module

_BLOB_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
FORMAT_VERSION = 1


def state_dict(model: Module) -> Dict[str, np.ndarray]:
    """Copy every parameter and buffer into a flat name -> array mapping."""
    state = {}
    for name, p in model.named_parameters():
        state[name] = np.array(p.value.data, copy=True)
    for name, b in model.named_buffers():
        state[name] = np.array(b, copy=True)
    return state


def load_state(model: Module, state: Dict[str, np.ndarray]) -> None:
    """Copy a state mapping into the model, auditing names/shapes/dtypes first.

    Nothing is mutated unless the audit passes in full, and the audit reads
    no parameter's value, so a model built by ``network.build`` has not
    drawn its initial weights yet. ``Module.overwrite`` then drops the
    model's held eval-mode constants, which makes its parameters and
    buffers writable again, copies the state in and drops the draws the
    build still owed: ``build`` + ``load_state`` draws nothing. After a
    failed audit the build's draws are still owed, and run on first read.
    """
    targets = dict(model.named_parameters())  # Parameter.shape and .dtype do not draw
    targets.update(model.named_buffers())

    missing = sorted(set(targets) - set(state))
    unexpected = sorted(set(state) - set(targets))
    problems = []
    if missing:
        problems.append(f"missing entries: {', '.join(missing)}")
    if unexpected:
        problems.append(f"unexpected entries: {', '.join(unexpected)}")
    for name in sorted(set(targets) & set(state)):
        src, dst = state[name], targets[name]
        if src.shape != dst.shape:
            problems.append(f"{name}: shape {src.shape} != expected {dst.shape}")
        elif src.dtype != dst.dtype:
            problems.append(f"{name}: dtype {src.dtype} != expected {dst.dtype}")
    if problems:
        raise ConfigError("checkpoint does not fit this model; " + "; ".join(problems))

    model.overwrite(state)


def save_checkpoint(path, state: Dict[str, np.ndarray], manifest: dict) -> None:
    """Write via ``<path>.tmp``, renamed over ``path`` once complete, so a
    failed save leaves the previous file intact and no temporary behind."""
    blobs = []
    payloads = []
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name])
        if arr.dtype == np.float32:
            tag = "f32"
        elif arr.dtype == np.float64:
            tag = "f64"
        else:
            raise ConfigError(f"blob {name!r} has unsupported dtype {arr.dtype}")
        # written through its buffer: no bytes copy of the state is held
        raw = arr.astype(_BLOB_DTYPES[tag], copy=False).reshape(-1).view(np.uint8)
        blobs.append({"name": name, "dtype": tag,
                      "shape": list(arr.shape), "nbytes": raw.size})
        payloads.append(raw)

    header = dict(manifest)
    header["format_version"] = FORMAT_VERSION
    header["blobs"] = blobs
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(struct.pack("<I", len(encoded)) + encoded)
            for raw in payloads:
                f.write(raw)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _blob_header(path, blob, pos: int) -> Tuple[str, np.dtype, tuple, int]:
    """Check one "blobs" entry: (name, dtype, shape, nbytes) or DataError."""
    where = f"{path}: blob {pos}"
    if not isinstance(blob, dict):
        raise DataError(f"{where} is not a JSON object")
    for key in ("name", "dtype", "shape", "nbytes"):
        if key not in blob:
            raise DataError(f"{where} has no {key!r}")
    name, tag, shape, nbytes = blob["name"], blob["dtype"], blob["shape"], blob["nbytes"]
    if not isinstance(name, str):
        raise DataError(f"{where}: name must be a string, got {name!r}")
    if not isinstance(tag, str) or tag not in _BLOB_DTYPES:
        raise DataError(f"{where} ({name!r}): unknown dtype {tag!r}, "
                        f"expected one of {sorted(_BLOB_DTYPES)}")

    def count(v):
        return isinstance(v, int) and not isinstance(v, bool) and v >= 0

    if not isinstance(shape, list) or not all(count(d) for d in shape):
        raise DataError(f"{where} ({name!r}): shape must be a list of integers >= 0, "
                        f"got {shape!r}")
    if not count(nbytes):
        raise DataError(f"{where} ({name!r}): nbytes must be an integer >= 0, got {nbytes!r}")
    dtype = _BLOB_DTYPES[tag]
    expected = int(np.prod(shape, dtype=object)) * dtype.itemsize
    if nbytes != expected:
        raise DataError(f"{where} ({name!r}): nbytes {nbytes} does not match shape "
                        f"{shape} of {tag} ({expected} bytes)")
    return name, dtype, tuple(shape), nbytes


def _finite(arr: np.ndarray) -> bool:
    """No NaN and no infinity in ``arr``. Its dot with itself is finite when
    every value is; it is not when one is, or when it overflows, which the
    exact test of min and max then tells apart. Allocates nothing the size
    of ``arr``."""
    flat = arr.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(np.dot(flat, flat)):
            return True
    return bool(np.isfinite(flat.min()) and np.isfinite(flat.max()))


def load_checkpoint(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a checkpoint file back into (manifest, state). Bitwise faithful.

    The header is checked before any payload is read: a manifest that is not
    a JSON object, a "blobs" entry with a missing or mistyped key, an unknown
    dtype tag, an nbytes that disagrees with the shape, a repeated name, and
    bytes after the last blob all raise DataError naming the file, as does a
    blob holding a NaN or an infinity, which names the blob too. Each blob
    is read straight into its array."""
    with open(path, "rb") as f:
        prefix = f.read(4)
        if len(prefix) != 4:
            raise DataError(f"{path}: truncated manifest length prefix")
        (mlen,) = struct.unpack("<I", prefix)
        encoded = f.read(mlen)
        if len(encoded) != mlen:
            raise DataError(f"{path}: truncated manifest")
        try:
            manifest = json.loads(encoded.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise DataError(f"{path}: bad manifest: {e}") from None
        if not isinstance(manifest, dict):
            raise DataError(
                f"{path}: bad manifest: expected a JSON object, got {type(manifest).__name__}")
        version = manifest.get("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise DataError(
                f"{path}: unsupported format version {version!r}")
        blobs = manifest.get("blobs")
        if not isinstance(blobs, list):
            raise DataError(f"{path}: manifest \"blobs\" must be a list, got {blobs!r}")
        headers = [_blob_header(path, blob, pos) for pos, blob in enumerate(blobs)]
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        state = {}
        for name, dtype, shape, nbytes in headers:
            if name in state:
                raise DataError(f"{path}: blob {name!r} appears twice")
            if nbytes > remaining:
                raise DataError(f"{path}: truncated blob {name!r}")
            remaining -= nbytes
            arr = np.empty(shape, dtype)  # read in place: one copy of each blob
            if f.readinto(arr.reshape(-1).view(np.uint8)) != nbytes:
                raise DataError(f"{path}: truncated blob {name!r}")
            if not _finite(arr):
                raise DataError(f"{path}: blob {name!r} holds a NaN or infinite value")
            if not arr.dtype.isnative:  # a big-endian host
                arr = arr.byteswap(inplace=True).view(arr.dtype.newbyteorder("="))
            state[name] = arr
        if f.read(1):
            raise DataError(f"{path}: trailing bytes after the last blob")
    return manifest, state
