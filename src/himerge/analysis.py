"""Layer-wise contribution and conflict analysis.

For each analyzed layer l and capability/source pair, the deletion impact
is the score change from removing that layer's processed delta from the
source model, and the addition impact is the score change from adding it
to the base model.  Their sum is the layer's contribution c; the conflict
gamma_m = c[m,m] - c[m,G] measures how much of model m's own contribution
the merged model loses at that layer, and Gamma = gamma_A + gamma_B ranks
layers for the resolver.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, LayerPartition
from .delta import DeltaVector, combine, layer_arrays
from .errors import ConfigError, EvaluatorError
from .evaluation import EvalTask, EvaluationBridge

CAPABILITIES = ("A", "B")
SOURCES = ("A", "B", "G")
PAIR_KEYS = tuple(m1 + m2 for m1 in CAPABILITIES for m2 in SOURCES)
# Pairs needed for the conflict formulas; the full matrix is opt-in.
CORE_PAIRS = (("A", "A"), ("B", "B"), ("A", "G"), ("B", "G"))


@dataclass
class AnalysisContext:
    """Everything the impact operations need: models, processed deltas,
    the pre-merged model, the layer partition, tasks, and the bridge."""

    base: Checkpoint
    model_a: Checkpoint
    model_b: Checkpoint
    delta_a: DeltaVector
    delta_b: DeltaVector
    theta_g: Checkpoint
    partition: LayerPartition
    task_a: EvalTask
    task_b: EvalTask
    bridge: EvaluationBridge

    def task(self, capability: str) -> EvalTask:
        if capability == "A":
            return self.task_a
        if capability == "B":
            return self.task_b
        raise ConfigError(f"unknown capability {capability!r}")

    def source_checkpoint(self, source: str) -> Checkpoint:
        return {"A": self.model_a, "B": self.model_b, "G": self.theta_g}[source]

    def source_layer_arrays(self, source: str, layer) -> list[dict[str, np.ndarray]]:
        if source == "A":
            return [layer_arrays(self.delta_a, self.partition, layer)]
        if source == "B":
            return [layer_arrays(self.delta_b, self.partition, layer)]
        if source == "G":
            return [
                layer_arrays(self.delta_a, self.partition, layer),
                layer_arrays(self.delta_b, self.partition, layer),
            ]
        raise ConfigError(f"unknown source {source!r}")


def shifted_checkpoint(ref: Checkpoint, arrays_list, sign: float) -> Checkpoint:
    """ref + sign * sum(arrays); returns ref itself if the shift is zero."""
    touched = set()
    for arrays in arrays_list:
        for name, arr in arrays.items():
            if arr.any():
                touched.add(name)
    if not touched:
        return ref
    terms = [arrays.get for arrays in arrays_list]
    return combine(ref, terms, [sign] * len(terms), names=sorted(touched))


def _impact(
    kind: str, capability: str, source: str, layer, ctx: AnalysisContext,
    ref: Checkpoint, sign: float,
) -> float:
    """P(ref shifted by sign * the source's layer delta) - P(ref)."""
    arrays = ctx.source_layer_arrays(source, layer)
    task = ctx.task(capability)
    try:
        candidate = shifted_checkpoint(ref, arrays, sign)
        shifted = ctx.bridge.evaluate(candidate, task).value
        reference = ctx.bridge.evaluate(ref, task).value
    except EvaluatorError as exc:
        raise EvaluatorError(
            f"{kind} impact (capability={capability}, source={source}, "
            f"layer={layer}): {exc}"
        ) from exc
    return shifted - reference


def deletion_impact(capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(source model minus its layer delta) - P(source model)."""
    ref = ctx.source_checkpoint(source)
    return _impact("deletion", capability, source, layer, ctx, ref, -1.0)


def addition_impact(capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(base plus the source's layer delta) - P(base)."""
    return _impact("addition", capability, source, layer, ctx, ctx.base, +1.0)


@dataclass
class LayerConflictRow:
    layer: object
    alpha: dict[str, float]
    beta: dict[str, float]
    c: dict[str, float]
    gamma_a: float
    gamma_b: float
    Gamma: float


@dataclass
class ConflictProfile:
    """Per-layer contribution/conflict numbers plus shared baselines."""

    baselines: dict[str, float]
    rows: list[LayerConflictRow] = field(default_factory=list)

    def row_for(self, layer) -> LayerConflictRow:
        for row in self.rows:
            if row.layer == layer:
                return row
        raise KeyError(f"no analyzed layer {layer!r}")

    def argmax_gamma(self):
        if not self.rows:
            return None
        return max(self.rows, key=lambda r: r.Gamma).layer

    def to_json_dict(self) -> dict:
        return {
            "baselines": dict(self.baselines),
            "layers": [
                {
                    "layer": row.layer,
                    "alpha": dict(row.alpha),
                    "beta": dict(row.beta),
                    "c": dict(row.c),
                    "gamma_a": row.gamma_a,
                    "gamma_b": row.gamma_b,
                    "Gamma": row.Gamma,
                }
                for row in self.rows
            ],
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")

    def write_csv(self, path) -> None:
        header = (
            ["layer"]
            + [f"alpha_{k}" for k in PAIR_KEYS]
            + [f"beta_{k}" for k in PAIR_KEYS]
            + [f"c_{k}" for k in PAIR_KEYS]
            + ["gamma_a", "gamma_b", "Gamma"]
        )
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in self.rows:
                cells = [row.layer]
                for table in (row.alpha, row.beta, row.c):
                    cells += [repr(table[k]) if k in table else "" for k in PAIR_KEYS]
                cells += [repr(row.gamma_a), repr(row.gamma_b), repr(row.Gamma)]
                writer.writerow(cells)


def _baselines(ctx: AnalysisContext, full_matrix: bool) -> dict[str, float]:
    jobs = [
        ("A:A", ctx.model_a, ctx.task_a),
        ("B:B", ctx.model_b, ctx.task_b),
        ("A:G", ctx.theta_g, ctx.task_a),
        ("B:G", ctx.theta_g, ctx.task_b),
        ("A:F", ctx.base, ctx.task_a),
        ("B:F", ctx.base, ctx.task_b),
    ]
    if full_matrix:
        jobs += [("A:B", ctx.model_b, ctx.task_a), ("B:A", ctx.model_a, ctx.task_b)]
    return {key: ctx.bridge.evaluate(cp, task).value for key, cp, task in jobs}


def conflict_profile(
    ctx: AnalysisContext,
    layers=None,
    *,
    full_matrix: bool = False,
) -> ConflictProfile:
    """Compute alpha/beta/c for each layer and the conflicts gamma, Gamma.

    By default only the four pairs the conflict formulas need are computed
    (8 evaluations per layer before caching); ``full_matrix=True`` fills the
    cross (capability, source) report columns too.  Each completed
    evaluation is persisted to the cache, so an aborted run resumes without
    repeating work.
    """
    if layers is None:
        layers = ctx.partition.transformer_layers()
    baselines = _baselines(ctx, full_matrix)
    pairs = (
        [(m1, m2) for m1 in CAPABILITIES for m2 in SOURCES] if full_matrix else list(CORE_PAIRS)
    )
    profile = ConflictProfile(baselines=baselines)
    for layer in layers:
        alpha: dict[str, float] = {}
        beta: dict[str, float] = {}
        c: dict[str, float] = {}
        for m1, m2 in pairs:
            key = m1 + m2
            alpha[key] = deletion_impact(m1, m2, layer, ctx)
            beta[key] = addition_impact(m1, m2, layer, ctx)
            c[key] = alpha[key] + beta[key]
        gamma_a = c["AA"] - c["AG"]
        gamma_b = c["BB"] - c["BG"]
        profile.rows.append(
            LayerConflictRow(
                layer=layer,
                alpha=alpha,
                beta=beta,
                c=c,
                gamma_a=gamma_a,
                gamma_b=gamma_b,
                Gamma=gamma_a + gamma_b,
            )
        )
    return profile
