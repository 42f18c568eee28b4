"""Delta vectors and model-wise pruning and scaling.

A delta vector holds per-tensor float32 differences of a fine-tuned model
against its base checkpoint; every entry is finite.  Pruning keeps the
``ceil(p * N)`` entries of largest magnitude within a scope (the whole
model, or a set of layers) and zeros the rest; ties at the cut are broken
by ascending position in the canonical flattened order.  Scaling
multiplies every entry by ``s``.
"""

from __future__ import annotations

import math
import types
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checkpoint import (
    Checkpoint,
    LayerPartition,
    TensorRecord,
    _encodes_finite,
    array_bytes,
    encode_record,
    fingerprint,
    save_checkpoint,
    validate_compat,
)
from .errors import CompatError, ConfigError


class DeltaVector(Checkpoint):
    """Per-tensor float32 parameter differences against a base checkpoint:
    a checkpoint whose every record is f32, and whose metadata is what a
    delta file holds (``kind=delta``, ``base_fingerprint``, ``provenance``).

    A tensor held in memory is a record viewing its array (``_f32_record``);
    one read from a delta file is its ``FileRecord``, read on each use.
    """

    def __init__(self, base_fingerprint: str, records, provenance: str = ""):
        meta = {"kind": "delta", "base_fingerprint": base_fingerprint, "provenance": provenance}
        super().__init__(records, meta)

    @property
    def base_fingerprint(self) -> str:
        return self.metadata["base_fingerprint"]

    @property
    def provenance(self) -> str:
        return self.metadata["provenance"]

    @property
    def deltas(self) -> types.MappingProxyType:
        """Tensor name -> record, read-only (the bench's tracer reads it)."""
        return types.MappingProxyType(self._records)

    @property
    def num_params(self) -> int:
        return sum(rec.size for rec in self)

    def array(self, name: str) -> np.ndarray:
        """Tensor ``name`` as a read-only float32 array: a view of the array
        held in memory, or a fresh read from the file."""
        rec = self.record(name)
        return np.frombuffer(rec.data, "<f4").reshape(rec.shape)

    def replace(self, arrays: dict[str, np.ndarray]) -> "DeltaVector":
        """New DeltaVector with some tensors replaced by arrays (the others
        shared, in memory or in their file)."""
        merged = dict(self._records)
        for name, arr in arrays.items():
            if name not in merged:
                raise CompatError(f"delta has no tensor named {name!r}")
            merged[name] = _f32_record(name, arr)
        return DeltaVector(self.base_fingerprint, merged.values(), self.provenance)


def _f32_record(name: str, arr: np.ndarray) -> TensorRecord:
    """An f32 record viewing ``arr``'s bytes, with no copy for a contiguous
    little-endian float32 array; the array must not change afterwards."""
    return TensorRecord(name, "f32", np.shape(arr), array_bytes(np.ascontiguousarray(arr, "<f4")))


@dataclass(frozen=True)
class PruneScaleParams:
    """Pruning threshold p and scaling factor s, both in [0, 1]."""

    p: float
    s: float

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise ConfigError(f"pruning threshold p={self.p} outside [0, 1]")
        if not (0.0 <= self.s <= 1.0):
            raise ConfigError(f"scaling factor s={self.s} outside [0, 1]")


def _retain_count(p: float, n: int) -> int:
    """ceil(p * n) exactly, with p read as the decimal it prints as (so 0.1
    is one tenth, not the nearest binary float)."""
    return math.ceil(Fraction(str(p)) * n)


def compute_delta(model: Checkpoint, base: Checkpoint, provenance: str = "") -> DeltaVector:
    """Elementwise model - base in float32.  Each difference is checked as
    it is computed, by the rule ``encode_record`` applies to an f32 tensor:
    the first one with a NaN or inf is a CompatError naming it."""
    validate_compat(model, base)
    records = []
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        for name in base.names:
            diff = model.as_f32(name)  # a fresh array, so it can take the difference in place
            diff -= base.as_f32(name)
            if not _encodes_finite("f32", diff):
                raise CompatError(f"delta of {provenance or 'model'} against the base: "
                                  f"tensor {name!r} holds a NaN or inf delta")
            records.append(_f32_record(name, diff))
    return DeltaVector(fingerprint(base), records, provenance)


def prune_topp(
    delta: DeltaVector,
    p: float,
    s: float = 1.0,
    *,
    partition: LayerPartition | None = None,
    layers=None,
) -> DeltaVector:
    """s * Top_p: keep the ceil(p * N_scope) largest-|value| entries in
    scope, zero the rest, and multiply the scope by s in float32.

    ``layers=None`` means the global scope (all tensors).  Otherwise
    ``layers`` is a collection of layer ids and ``partition`` maps tensor
    names onto them; tensors outside the scope are untouched (shared).
    When every entry in scope is kept (or the scope is empty) and s = 1,
    ``delta`` itself is returned; otherwise every array in scope is a fresh
    one.

    An entry's key is its bit pattern without the sign, which sorts as |x|
    does.  The threshold t is the k-th largest key, from one uint32 key
    buffer over the scope partitioned in place (none for k = 0 or k = N).
    Keys above t are kept, then ties at t in flat index order.  Each kept
    tensor is its bits times its keep mask (a dropped entry is +0.0, a kept
    -0.0 stays -0.0), scaled in place.
    """
    PruneScaleParams(p, s)  # the domain check
    if layers is not None and partition is None:
        raise ConfigError("layer-scoped pruning requires a partition")

    wanted = None if layers is None else set(layers)
    scope = [n for n in delta.names if wanted is None or partition.layer_of(n) in wanted]
    n = sum(delta.record(name).size for name in scope)
    k = _retain_count(p, n)
    if k >= n and s == 1.0:
        return delta
    bits = [delta.array(name).reshape(-1).view(np.uint32) for name in scope]
    if k == 0:
        t, need = 0xFFFFFFFF, 0  # above every key
    elif k >= n:
        t, need = 0, n
    else:
        keys = np.empty(n, dtype=np.uint32)
        offset = 0
        for flat in bits:
            np.bitwise_and(flat, 0x7FFFFFFF, out=keys[offset : offset + flat.size])
            offset += flat.size
        keys.partition(n - k)
        t = int(keys[n - k])
        # After the partition every key above t lies right of n - k.
        need = k - int(np.count_nonzero(keys[n - k + 1 :] > t))
        del keys
    kept = {}
    for name, flat in zip(scope, bits):
        key = flat & 0x7FFFFFFF
        keep = key > t
        if need:
            ties = np.flatnonzero(key == t)[:need]
            keep[ties] = True
            need -= ties.size
        out = np.multiply(flat, keep, dtype=np.uint32).view(np.float32)
        if s != 1.0:
            out *= np.float32(s)
        kept[name] = out.reshape(delta.record(name).shape)
    return delta.replace(kept)


def model_wise_process(delta: DeltaVector, params: PruneScaleParams) -> DeltaVector:
    """Global prune-then-scale: s * Top_p(delta)."""
    return prune_topp(delta, params.p, params.s)


def _check_delta_compat(base: Checkpoint, deltas: list[DeltaVector]) -> None:
    base_fp = fingerprint(base)
    for delta in deltas:
        if delta.base_fingerprint != base_fp:
            raise CompatError(
                f"delta {delta.provenance or '<unnamed>'} was computed against "
                f"{delta.base_fingerprint[:12]}..., not this base ({base_fp[:12]}...)"
            )
        if delta.names != base.names:
            raise CompatError("delta tensor names do not match the base checkpoint")


def combine(
    ref,
    terms,
    weights=None,
    *,
    like: Checkpoint | None = None,
    names=None,
) -> Checkpoint:
    """ref + sum of w_i * term_i, tensor by tensor, in ``like``'s dtypes.

    Each term is a function from tensor name to a float32 array, or to None
    where the term does not touch that tensor.  ``ref`` is a checkpoint, a
    function from tensor name to a fresh float32 array (then ``like`` is
    required), or None.  Sums are accumulated in float64 starting from
    ``ref`` itself (so a -0.0 in ``ref`` survives zero terms), or from +0.0
    when ``ref`` is None, and rounded once to float32.  Only ``names``
    (default: all of ``like``'s) are recomputed; the other tensors are
    shared with ``like``, which defaults to ``ref``.
    Each sum is encoded as soon as it is done, so only one tensor's
    float32 temporaries are alive at a time.

    Where exactly one term of weight +1 or -1 touches a tensor, the sum is
    taken in float32 instead, with the same bits.  The float64 path rounds
    twice, ``f32(f64(x + y))``, and for addition that equals the correctly
    rounded ``f32(x + y)`` whenever 53 >= 2 * 24 + 2 (Figueroa, "When is
    double rounding innocuous?", 1995); a sum in the subnormal range is
    exact in both.  Signed zeros and overflow to inf come out the same.
    """
    like = ref if like is None else like
    ref = ref.as_f32 if isinstance(ref, Checkpoint) else ref
    weights = [1.0] * len(terms) if weights is None else [float(w) for w in weights]
    # like.record raises a FormatError on an unknown name.
    wanted = set(like.names) if names is None else {like.record(n).name for n in names}
    # A sum that overflows, or adds infs of opposite sign, is rejected by
    # encode_record, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        records = [
            encode_record(rec, _sum(ref, rec, terms, weights)) if rec.name in wanted else rec
            for rec in like
        ]
    return Checkpoint(records, {})


def _sum(ref, rec: TensorRecord, terms, weights) -> np.ndarray:
    """One tensor of ``combine``, as a fresh float32 array, from ``ref`` (a
    function like a term's, or None) and the terms; its temporaries
    are freed on return.  A weight of -1 subtracts: the bits of adding the
    negated term."""
    # A fresh array, to take the sum in place; read before the terms for a lower peak RSS.
    acc = np.zeros(rec.shape, dtype=np.float32) if ref is None else ref(rec.name)
    parts = [(arr, w) for term, w in zip(terms, weights) if (arr := term(rec.name)) is not None]
    if len(parts) != 1 or parts[0][1] not in (1.0, -1.0):
        acc = acc.astype(np.float64)
    for arr, weight in parts:
        # A float32 term is widened to float64 chunk by chunk, not as a whole.
        if weight == 1.0:
            acc += arr
        elif weight == -1.0:
            acc -= arr
        else:
            acc += np.multiply(arr, weight, dtype=np.float64)
    return acc.astype(np.float32, copy=False)


def apply_delta(base: Checkpoint, deltas: list[DeltaVector]) -> Checkpoint:
    """base + sum of deltas; float64 accumulation, rounded once to float32."""
    _check_delta_compat(base, deltas)
    return combine(base, [dv.array for dv in deltas])


def layer_arrays(
    delta: DeltaVector, partition: LayerPartition, layer
) -> dict[str, np.ndarray]:
    """The sub-delta for one layer: tensor name -> float32 array."""
    return {name: delta.array(name) for name in partition.names_in(layer)}


# ---------------------------------------------------------------------------
# Delta files (container format with provenance metadata)
# ---------------------------------------------------------------------------


def save_delta(delta: DeltaVector, path) -> DeltaVector:
    """Write a delta file, one tensor at a time, its metadata included: the
    base's ``fingerprint`` is the key of the base's lines in the evaluation
    cache.  Returns the delta re-opened from the file: its tensors are the
    file's records, read on each use."""
    return DeltaVector(delta.base_fingerprint, save_checkpoint(delta, path), delta.provenance)
