"""Slow references for the bf16 codec in ``checkpoint``: the library's
formulas before decoding and rounding were done in place.  The
differential tests require bit-equal output from the library."""

import numpy as np


def bf16_to_f32(buf: bytes) -> np.ndarray:
    bits = np.frombuffer(buf, dtype="<u2").astype(np.uint32) << 16
    return bits.view(np.float32).copy()


def f32_to_bf16(arr: np.ndarray) -> bytes:
    # Round to nearest even on the dropped 16 mantissa bits.
    bits = np.ascontiguousarray(arr, dtype="<f4").view(np.uint32)
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) >> 16
    return rounded.astype("<u2").tobytes()
