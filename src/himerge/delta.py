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

import numpy as np

from .checkpoint import (
    Checkpoint,
    LayerPartition,
    TensorRecord,
    checkpoint_from_f32,
    encode_from_f32,
    fingerprint,
    load_checkpoint,
    save_checkpoint,
    validate_compat,
)
from .errors import CompatError, ConfigError, FormatError


@dataclass
class DeltaVector:
    """Per-tensor float32 parameter differences against a base checkpoint."""

    base_fingerprint: str
    deltas: dict[str, np.ndarray]
    provenance: str = ""

    def __post_init__(self):
        self.deltas = {name: self.deltas[name] for name in sorted(self.deltas)}

    @property
    def names(self) -> list[str]:
        return list(self.deltas)

    @property
    def num_params(self) -> int:
        return sum(arr.size for arr in self.deltas.values())

    def replace(self, arrays: dict[str, np.ndarray]) -> "DeltaVector":
        """New DeltaVector with some tensors replaced (others shared)."""
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
    """ceil(p * n), guarding against float noise when p * n is integral."""
    t = p * n
    nearest = round(t)
    if abs(t - nearest) <= 1e-9 + 1e-12 * n:
        return int(nearest)
    return int(math.ceil(t))


def _require_finite(deltas: dict[str, np.ndarray], what: str) -> None:
    """Raise CompatError naming the first tensor with a NaN or inf."""
    for name, arr in deltas.items():
        if not np.isfinite(arr).all():
            raise CompatError(f"{what}: tensor {name!r} holds a NaN or inf delta")


def compute_delta(model: Checkpoint, base: Checkpoint, provenance: str = "") -> DeltaVector:
    """Elementwise model - base in float32; every difference must be finite."""
    validate_compat(model, base)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        deltas = {
            name: model.as_f32(name) - base.as_f32(name) for name in base.names
        }
    _require_finite(deltas, f"delta of {provenance or 'model'} against the base")
    return DeltaVector(fingerprint(base), deltas, provenance)


def prune_topp(
    delta: DeltaVector,
    p: float,
    *,
    partition: LayerPartition | None = None,
    layers=None,
) -> DeltaVector:
    """Keep the ceil(p * N_scope) largest-|value| entries in scope, zero the rest.

    ``layers=None`` means the global scope (all tensors).  Otherwise
    ``layers`` is a collection of layer ids and ``partition`` maps tensor
    names onto them; tensors outside the scope are untouched.
    """
    if not (0.0 <= p <= 1.0):
        raise ConfigError(f"pruning threshold p={p} outside [0, 1]")
    if layers is not None and partition is None:
        raise ConfigError("layer-scoped pruning requires a partition")

    if layers is None:
        scope = delta.names
    else:
        wanted = set(layers)
        scope = [n for n in delta.names if partition.layer_of(n) in wanted]
    if not scope:
        return delta.replace({})

    flats = [delta.deltas[name].reshape(-1) for name in scope]
    joined = np.concatenate(flats) if len(flats) > 1 else flats[0]
    n = joined.size
    k = _retain_count(p, n)

    if k >= n:
        return delta.replace({})
    if k == 0:
        kept = np.zeros_like(joined)
    else:
        # Threshold selection: t is the k-th largest magnitude.  Keep every
        # entry above it, then fill the remaining slots from the entries at
        # t in ascending canonical-flattened-index order.
        mag = np.abs(joined)
        t = np.partition(mag, n - k)[n - k]
        keep = mag > t
        need = k - int(np.count_nonzero(keep))
        keep[np.flatnonzero(mag == t)[:need]] = True
        kept = np.where(keep, joined, np.float32(0.0))

    out = {}
    offset = 0
    for name in scope:
        arr = delta.deltas[name]
        out[name] = kept[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return delta.replace(out)


def scale(delta: DeltaVector, s: float) -> DeltaVector:
    """Multiply every entry by s in float32; at s = 1 the arrays are shared."""
    if not (0.0 <= s <= 1.0):
        raise ConfigError(f"scaling factor s={s} outside [0, 1]")
    if s == 1.0:
        return delta.replace({})
    factor = np.float32(s)
    return delta.replace({name: arr * factor for name, arr in delta.deltas.items()})


def model_wise_process(delta: DeltaVector, params: PruneScaleParams) -> DeltaVector:
    """Global prune-then-scale: s * Top_p(delta).  At p = 1 every entry is
    kept, so only the scale runs."""
    pruned = delta if params.p == 1.0 else prune_topp(delta, params.p)
    return scale(pruned, params.s)


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
    """
    like = ref if like is None else like
    weights = [1.0] * len(terms) if weights is None else [float(w) for w in weights]
    arrays = {}
    # A sum that overflows, or adds infs of opposite sign, is rejected by
    # checkpoint_from_f32, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for name in like.names if names is None else names:
            if ref is None:
                acc = np.zeros(like.record(name).shape, dtype=np.float64)
            else:
                acc = ref.as_f32(name).astype(np.float64)
            for term, weight in zip(terms, weights):
                arr = term(name)
                if arr is None:
                    continue
                arr = arr.astype(np.float64)
                acc += arr if weight == 1.0 else weight * arr
            arrays[name] = acc.astype(np.float32)
    return checkpoint_from_f32(arrays, like=like, metadata={})


def apply_delta(base: Checkpoint, deltas: list[DeltaVector]) -> Checkpoint:
    """base + sum of deltas; float64 accumulation, rounded once to float32."""
    _check_delta_compat(base, deltas)
    return combine(base, [dv.deltas.get for dv in deltas])


def layer_arrays(
    delta: DeltaVector, partition: LayerPartition, layer
) -> dict[str, np.ndarray]:
    """The sub-delta for one layer: tensor name -> float32 array."""
    return {name: delta.deltas[name] for name in partition.names_in(layer)}


# ---------------------------------------------------------------------------
# Delta files (container format with provenance metadata)
# ---------------------------------------------------------------------------


def save_delta(delta: DeltaVector, path) -> None:
    records = [
        TensorRecord(name, "f32", arr.shape, encode_from_f32("f32", arr))
        for name, arr in delta.deltas.items()
    ]
    meta = {
        "kind": "delta",
        "base_fingerprint": delta.base_fingerprint,
        "provenance": delta.provenance,
    }
    save_checkpoint(Checkpoint(records, meta), path)


def load_delta(path) -> DeltaVector:
    cp = load_checkpoint(path)
    meta = cp.metadata
    if meta.get("kind") != "delta":
        raise FormatError(f"{path}: not a delta file (missing kind=delta metadata)")
    deltas = {name: cp.as_f32(name) for name in cp.names}
    _require_finite(deltas, str(path))
    return DeltaVector(meta.get("base_fingerprint", ""), deltas, meta.get("provenance", ""))
