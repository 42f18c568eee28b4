"""Slow references for the codecs and the content hash in ``checkpoint``:
the library's formulas before decoding and rounding were done in place,
and the tree hash computed from the canonical container bytes alone.  The
differential tests require bit-equal output from the library.

``encode`` has no range check: a value beyond the dtype's range becomes
inf, and a NaN is rounded like any other bit pattern.  Tests build input
checkpoints with it, including ones that hold a NaN or inf on purpose."""

import hashlib
import json
import struct

import numpy as np


def bf16_to_f32(buf: bytes) -> np.ndarray:
    bits = np.frombuffer(buf, dtype="<u2").astype(np.uint32) << 16
    return bits.view(np.float32).copy()


def f32_to_bf16(arr: np.ndarray) -> bytes:
    # Round to nearest even on the dropped 16 mantissa bits.
    bits = np.ascontiguousarray(arr, dtype="<f4").view(np.uint32)
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
    return rounded.astype("<u2").tobytes()


def encode(dtype: str, arr) -> bytes:
    """Float32 values in the dtype's little-endian encoding, rounded to
    nearest even."""
    arr = np.ascontiguousarray(arr, dtype="<f4")
    if dtype == "f32":
        return arr.tobytes()
    if dtype == "f16":
        with np.errstate(over="ignore"):
            return arr.astype("<f2").tobytes()
    return f32_to_bf16(arr)


def tree_hash(blob: bytes) -> str:
    """sha256 of a container's header prefix (the length field and the
    JSON) followed by the sha256 of each tensor's data slice, in the order
    of the slices."""
    (header_len,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8 : 8 + header_len])
    start = 8 + header_len
    slices = sorted(entry["data_offsets"] for name, entry in header.items() if name != "__metadata__")
    h = hashlib.sha256(blob[:start])
    for begin, end in slices:
        h.update(hashlib.sha256(blob[start + begin : start + end]).digest())
    return h.hexdigest()
