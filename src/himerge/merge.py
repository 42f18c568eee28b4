"""Generic merging strategies: weighted averaging and delta-weighted merging.

All elementwise arithmetic widens to float32, accumulates in float64, and
rounds once to float32 before casting to the output dtype.
"""

from __future__ import annotations

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
            if not w > 0.0:
                raise ConfigError(f"weight for model {model_id!r} must be > 0, got {w}")

    def require_convex(self) -> None:
        total = sum(self.weights.values())
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ConfigError(f"weights must sum to 1 for averaging, got {total!r}")

    def ordered(self, model_ids: list[str]) -> list[float]:
        missing = [m for m in model_ids if m not in self.weights]
        if missing:
            raise ConfigError(f"missing weights for models {missing}")
        return [self.weights[m] for m in model_ids]


def weighted_average_merge(
    models: dict[str, Checkpoint], w: MergeWeights
) -> Checkpoint:
    """Elementwise sum of w_m * theta_m with the weights summing to 1."""
    if not models:
        raise ConfigError("nothing to merge")
    w.require_convex()
    ids = list(models)
    weights = w.ordered(ids)
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
    return combine(base, [dv.deltas.get for dv in deltas], weights)


def assemble_final(
    base: Checkpoint, delta_a: DeltaVector, delta_b: DeltaVector
) -> Checkpoint:
    """theta_F + delta_A + delta_B with implicit unit weights."""
    _check_delta_compat(base, [delta_a, delta_b])
    return combine(base, [delta_a.deltas.get, delta_b.deltas.get])
