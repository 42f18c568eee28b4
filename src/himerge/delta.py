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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .checkpoint import (
    Checkpoint,
    LayerPartition,
    TensorRecord,
    array_bytes,
    encode_record,
    fingerprint,
    save_checkpoint,
    validate_compat,
)
from .errors import CompatError, ConfigError


@dataclass
class DeltaVector:
    """Per-tensor float32 parameter differences against a base checkpoint.

    Each tensor in ``deltas`` is a float32 array held in memory, or an f32
    ``TensorRecord``: a ``FileRecord`` of a delta file is read from the file
    on each use.  ``array`` gives either as an array.
    """

    base_fingerprint: str
    deltas: dict[str, np.ndarray | TensorRecord]
    provenance: str = ""

    def __post_init__(self):
        self.deltas = {name: self.deltas[name] for name in sorted(self.deltas)}

    @property
    def names(self) -> list[str]:
        return list(self.deltas)

    @property
    def num_params(self) -> int:
        return sum(entry.size for entry in self.deltas.values())

    def array(self, name: str) -> np.ndarray:
        """Tensor ``name`` as a float32 array: the held array itself, which
        must not be changed, or a fresh one read from the record."""
        entry = self.deltas[name]
        return entry if isinstance(entry, np.ndarray) else entry.as_f32()

    def replace(self, arrays: dict[str, np.ndarray]) -> "DeltaVector":
        """New DeltaVector with some tensors replaced by arrays (the others
        shared, in memory or in their file)."""
        merged = dict(self.deltas)
        for name, arr in arrays.items():
            if name not in merged:
                raise CompatError(f"delta has no tensor named {name!r}")
            merged[name] = np.asarray(arr, dtype=np.float32)
        return DeltaVector(self.base_fingerprint, merged, self.provenance)


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


def _require_finite(deltas: dict[str, np.ndarray], what: str) -> None:
    """Raise CompatError naming the first tensor with a NaN or inf."""
    for name, arr in deltas.items():
        if not np.isfinite(arr).all():
            raise CompatError(f"{what}: tensor {name!r} holds a NaN or inf delta")


def compute_delta(model: Checkpoint, base: Checkpoint, provenance: str = "") -> DeltaVector:
    """Elementwise model - base in float32; every difference must be finite."""
    validate_compat(model, base)
    deltas = {}
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        for name in base.names:
            diff = model.as_f32(name)  # a fresh array, so it can take the difference in place
            diff -= base.as_f32(name)
            deltas[name] = diff
    _require_finite(deltas, f"delta of {provenance or 'model'} against the base")
    return DeltaVector(fingerprint(base), deltas, provenance)


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
    one, and the kept arrays, fresh already, are scaled in place.

    The threshold comes from one float32 magnitude buffer over the scope,
    partitioned in place and freed before the kept tensors are built one at
    a time, so no joined copy of the scope is made.
    """
    PruneScaleParams(p, s)  # the domain check
    if layers is not None and partition is None:
        raise ConfigError("layer-scoped pruning requires a partition")

    if layers is None:
        scope = delta.names
    else:
        wanted = set(layers)
        scope = [n for n in delta.names if partition.layer_of(n) in wanted]
    n = sum(delta.deltas[name].size for name in scope)
    k = _retain_count(p, n)
    if k >= n and s == 1.0:
        return delta
    shapes = {name: delta.deltas[name].shape for name in scope}
    if k == 0:
        return delta.replace({name: np.zeros(shape, np.float32) for name, shape in shapes.items()})
    flats = [delta.array(name).reshape(-1) for name in scope]
    factor = np.float32(s)
    if k >= n:
        scaled = {name: (flat * factor).reshape(shapes[name]) for name, flat in zip(scope, flats)}
        return delta.replace(scaled)

    # Threshold selection: t is the k-th largest magnitude.  Keep every
    # entry above it, then fill the remaining ``need`` slots with the
    # entries equal to t in ascending canonical-flattened-index order.
    mag = np.empty(n, dtype=np.float32)
    offset = 0
    for flat in flats:
        np.abs(flat, out=mag[offset : offset + flat.size])
        offset += flat.size
    mag.partition(n - k)
    t = mag[n - k]
    # After the partition every magnitude above t lies right of n - k.
    need = k - int(np.count_nonzero(mag[n - k + 1 :] > t))
    del mag
    kept = {}
    for name, flat in zip(scope, flats):
        mag = np.abs(flat)
        keep = mag > t
        if need:
            ties = np.flatnonzero(mag == t)[:need]
            keep[ties] = True
            need -= ties.size
        kept[name] = np.where(keep, flat, np.float32(0.0)).reshape(shapes[name])
        if s != 1.0:
            kept[name] *= factor
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
    ref: Checkpoint | None,
    terms,
    weights=None,
    *,
    like: Checkpoint | None = None,
    names=None,
) -> Checkpoint:
    """ref + sum of w_i * term_i, tensor by tensor, in ``like``'s dtypes.

    Each term is a function from tensor name to a float32 array, or to None
    where the term does not touch that tensor.  Sums are accumulated in
    float64 starting from ``ref`` itself (so a -0.0 in ``ref`` survives
    zero terms), or from +0.0 when ``ref`` is None, and rounded once to
    float32.  Only ``names`` (default: all of ``like``'s) are recomputed;
    the other tensors are shared with ``like``, which defaults to ``ref``.
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


def _sum(ref: Checkpoint | None, rec: TensorRecord, terms, weights) -> np.ndarray:
    """One tensor of ``combine``, as a fresh float32 array; its temporaries
    are freed on return."""
    if ref is None:
        start = np.zeros(rec.shape, dtype=np.float32)
    else:
        start = ref.as_f32(rec.name)  # a fresh array, so it can take a sum in place
    parts = [(term(rec.name), weight) for term, weight in zip(terms, weights)]
    parts = [(arr, weight) for arr, weight in parts if arr is not None]
    if len(parts) == 1 and parts[0][1] in (1.0, -1.0):
        arr, weight = parts[0]
        return (np.add if weight == 1.0 else np.subtract)(start, arr, out=start)
    acc = start.astype(np.float64)
    del start
    for arr, weight in parts:
        # A float32 term is widened to float64 chunk by chunk, not as a whole.
        acc += arr if weight == 1.0 else np.multiply(arr, weight, dtype=np.float64)
    return acc.astype(np.float32)


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
    """Write a delta file, one tensor at a time: an array is written
    unencoded through a view of it, a record is read from its file.  Its
    metadata holds ``kind=delta``, the provenance, and the base's
    ``fingerprint`` under ``base_fingerprint``: the key of the base's lines
    in the evaluation cache.  Returns the delta re-opened from the file: its
    tensors are the file's records, read on each use."""
    records = [
        entry if isinstance(entry, TensorRecord) else
        TensorRecord(name, "f32", entry.shape, array_bytes(np.ascontiguousarray(entry, "<f4")))
        for name, entry in delta.deltas.items()
    ]
    meta = {
        "kind": "delta",
        "base_fingerprint": delta.base_fingerprint,
        "provenance": delta.provenance,
    }
    saved = save_checkpoint(Checkpoint(records, meta), path)
    return DeltaVector(delta.base_fingerprint, {rec.name: rec for rec in saved}, delta.provenance)
