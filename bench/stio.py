"""Safetensors reading and writing in plain numpy, independent of himerge.

The benchmark writes its inputs and checks the program's outputs with this
module, so a defect in himerge's own container code cannot hide itself.
"""

from __future__ import annotations

import json
import struct

import numpy as np

_WIRE = {"F32": ("<f4", 4), "BF16": ("<u2", 2)}


def bf16_bits(arr: np.ndarray) -> np.ndarray:
    """float32 -> bf16 bit patterns, rounding to nearest even."""
    bits = np.ascontiguousarray(arr, dtype="<f4").view(np.uint32)
    return ((bits + 0x7FFF + ((bits >> 16) & 1)) >> 16).astype("<u2")


def bf16_to_f32(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.uint32) << 16).view(np.float32)


class BF16Writer:
    """Write a canonical all-BF16 safetensors file one tensor at a time.

    ``shapes`` maps every tensor name to its shape; tensors must then be
    written in sorted name order.
    """

    def __init__(self, path, shapes: dict[str, tuple[int, ...]]):
        header: dict[str, object] = {}
        offset = 0
        for name in sorted(shapes):
            size = 2 * int(np.prod(shapes[name], dtype=np.int64))
            header[name] = {
                "dtype": "BF16",
                "shape": list(shapes[name]),
                "data_offsets": [offset, offset + size],
            }
            offset += size
        self._pending = iter(header.items())
        self._fh = open(path, "wb")
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        self._fh.write(struct.pack("<Q", len(head)))
        self._fh.write(head)

    def write(self, name: str, arr: np.ndarray) -> None:
        expected, entry = next(self._pending)
        if name != expected or list(arr.shape) != entry["shape"]:
            raise ValueError(f"expected tensor {expected!r} of shape {entry['shape']}")
        self._fh.write(bf16_bits(arr).tobytes())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def read_file(path, names=None) -> tuple[dict, dict[str, np.ndarray]]:
    """Header and raw element arrays (BF16 as uint16 bits), optionally only ``names``."""
    with open(path, "rb") as fh:
        blob = fh.read()
    (head_len,) = struct.unpack_from("<Q", blob)
    header = json.loads(blob[8 : 8 + head_len])
    header.pop("__metadata__", None)
    data = memoryview(blob)[8 + head_len :]
    raw = {}
    for name in header if names is None else names:
        entry = header[name]
        dtype, size = _WIRE[entry["dtype"]]
        begin, end = entry["data_offsets"]
        if end - begin != size * int(np.prod(entry["shape"], dtype=np.int64)):
            raise ValueError(f"{path}: tensor {name!r} has a wrong data size")
        raw[name] = np.frombuffer(data[begin:end], dtype=dtype).reshape(entry["shape"])
    return header, raw


def as_f32(header: dict, raw: dict[str, np.ndarray], name: str) -> np.ndarray:
    wire = header[name]["dtype"]
    if wire == "BF16":
        return bf16_to_f32(raw[name])
    return raw[name].astype(np.float32)
