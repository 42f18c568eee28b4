"""Slow references for the codecs, the content hash and the layer
partition in ``checkpoint``: the library's formulas before decoding and
rounding were done in place, the tree hash computed from the canonical
container bytes alone, and the partition in two passes.  The differential
tests require bit-equal output from the library.

``encode`` has no range check: a value beyond the dtype's range becomes
inf, and a NaN is rounded like any other bit pattern.  Tests build input
checkpoints with it, including ones that hold a NaN or inf on purpose."""

import hashlib
import json
import re
import struct

import numpy as np

from himerge import POST, PRE, ConfigError


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


def partition(names, rule):
    """The layer assignment of sorted ``names`` in two passes: first each
    matching name's captured index, then each other name PRE if it sorts
    before the first match (or nothing matches), else POST.  A match
    without its capture, or a capture that is not an integer, is a
    ConfigError naming the rule (by its repr: short rules only) and the
    first such name."""
    pattern = re.compile(rule)
    captured = {}
    for name in names:
        m = pattern.search(name)
        if m is None:
            continue
        if m.group(1) is None:
            raise ConfigError(f"layer rule {rule!r} matched {name!r} without its capture group")
        try:
            captured[name] = int(m.group(1))
        except ValueError:
            raise ConfigError(
                f"layer rule {rule!r} captured non-integer {m.group(1)!r} on {name!r}"
            ) from None
    first_match = next((i for i, n in enumerate(names) if n in captured), None)
    assignment = {}
    for i, name in enumerate(names):
        if name in captured:
            assignment[name] = captured[name]
        elif first_match is None or i < first_match:
            assignment[name] = PRE
        else:
            assignment[name] = POST
    return assignment
