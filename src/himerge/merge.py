"""Generic merging strategies: weighted averaging and delta-weighted merging.

All elementwise arithmetic widens to float32, accumulates in float64, and
rounds once to float32 before casting to the output dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .checkpoint import Checkpoint, validate_compat
from .delta import DeltaVector, _check_delta_compat, combine
from .errors import ConfigError

_WEIGHT_SUM_TOL = 1e-9


@dataclass(frozen=True)
class MergeWeights:
    """Per-model merge weights; all positive."""

    weights: dict[str, float]

    def __post_init__(self):
        for model_id, w in self.weights.items():
            if not 0.0 < w < math.inf:
                raise ConfigError(f"weight for model {model_id!r} must be finite and > 0, got {w}")

    def require_convex(self) -> None:
        total = sum(self.weights.values())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1 for averaging, got {total!r}")

    def ordered(self, model_ids: list[str]) -> list[float]:
        """The weights of ``model_ids``, in their order: a ConfigError unless
        the ids are distinct and are exactly the weighted models."""
        if len(set(model_ids)) != len(model_ids) or set(model_ids) != set(self.weights):
            raise ConfigError(
                f"merge weights are for models {sorted(self.weights)}, the merge has {model_ids}"
            )
        return [self.weights[m] for m in model_ids]


def weighted_average_merge(
    models: dict[str, Checkpoint], w: MergeWeights
) -> Checkpoint:
    """Elementwise sum of w_m * theta_m with the weights summing to 1."""
    if not models:
        raise ConfigError("nothing to merge")
    ids = list(models)
    weights = w.ordered(ids)
    w.require_convex()
    first = models[ids[0]]
    for other_id in ids[1:]:
        validate_compat(first, models[other_id])
    return combine(None, [models[m].as_f32 for m in ids], weights, like=first)


def delta_weighted_merge(
    base: Checkpoint, deltas: list[DeltaVector], w: MergeWeights
) -> Checkpoint:
    """theta_F + sum of w_m * delta_m."""
    weights = w.ordered([dv.provenance or str(i) for i, dv in enumerate(deltas)])
    _check_delta_compat(base, deltas)
    return combine(base, [dv.array for dv in deltas], weights)


def assemble_final(
    base: Checkpoint,
    delta_a: DeltaVector,
    delta_b: DeltaVector,
    *,
    like: Checkpoint | None = None,
    names=None,
) -> Checkpoint:
    """theta_F + delta_A + delta_B with implicit unit weights.  As in
    ``combine``, only ``names`` are recomputed and the other tensors are
    taken from ``like``."""
    _check_delta_compat(base, [delta_a, delta_b])
    return combine(base, [delta_a.array, delta_b.array], like=like, names=names)
