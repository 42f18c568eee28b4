"""Slow reference for ``delta.prune_topp``: a full stable argsort on
descending magnitude, the library's implementation before threshold
selection.  The differential tests require byte-equal output from the
library."""

from decimal import Decimal

import numpy as np


def retain_count(p, n):
    """ceil(p * n) in integers, with p read as the decimal it prints as."""
    num, den = Decimal(str(p)).as_integer_ratio()
    return -(-num * n // den)


def prune_topp(delta, p, *, partition=None, layers=None):
    if layers is None:
        scope = delta.names
    else:
        wanted = set(layers)
        scope = [n for n in delta.names if partition.layer_of(n) in wanted]
    if not scope:
        return delta.replace({})

    flats = [delta.array(name).reshape(-1) for name in scope]
    joined = np.concatenate(flats) if len(flats) > 1 else flats[0].copy()
    k = retain_count(p, joined.size)

    if k >= joined.size:
        return delta.replace({})
    kept = np.zeros_like(joined)
    if k > 0:
        # Stable sort on descending magnitude; equal magnitudes keep their
        # ascending canonical-flattened-index order.
        order = np.argsort(-np.abs(joined), kind="stable")
        idx = order[:k]
        kept[idx] = joined[idx]

    out = {}
    offset = 0
    for name in scope:
        arr = delta.array(name)
        out[name] = kept[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return delta.replace(out)


def scale(delta, s, names=None):
    """Every entry of ``names`` (default: all) times float32(s), as new arrays."""
    factor = np.float32(s)
    names = delta.names if names is None else names
    return delta.replace({name: delta.array(name) * factor for name in names})
