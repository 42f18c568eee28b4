"""Layer-wise contribution and conflict analysis.

For each analyzed layer l and capability/source pair, the deletion impact
is the score change from removing that layer's processed delta from the
source model, and the addition impact is the score change from adding it
to the base model.  Their sum is the layer's contribution c; the conflict
gamma_m = c[m,m] - c[m,G] measures how much of model m's own contribution
the merged model loses at that layer, and Gamma = gamma_A + gamma_B ranks
layers for the resolver.

Each reference (model A, model B, the pre-merge G, the base F) is scored
once per capability per context; those scores are the profile's baselines.

Every evaluation of a profile is known before the first one runs, so
``conflict_profile`` lists them as one job table in serial order (missing
baselines, then per layer and pair the deletion and addition candidates)
and runs it through ``EvaluationBridge.map``: up to ``parallel``
evaluations at once, each candidate built on the calling thread just
before its turn.  The rows are then a pure function of the score list.  A
failed job is reported as the serial loop would report it: the first
failure in job order, with the same message.
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
    # (capability, source) -> baseline score; a replaced context starts empty.
    _scores: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def task(self, capability: str) -> EvalTask:
        if capability == "A":
            return self.task_a
        if capability == "B":
            return self.task_b
        raise ConfigError(f"unknown capability {capability!r}")

    def reference(self, source: str) -> Checkpoint:
        """The checkpoint of model A, model B, the pre-merge G or the base F."""
        return {"A": self.model_a, "B": self.model_b, "G": self.theta_g, "F": self.base}[source]

    def baseline(self, capability: str, source: str) -> float:
        """P_capability(reference(source)), scored at most once per context."""
        key = (capability, source)
        if key not in self._scores:
            ref = self.reference(source)
            self.record_baselines([key], [self.bridge.evaluate(ref, self.task(capability)).value])
        return self._scores[key]

    def unscored(self, keys) -> list[tuple[str, str]]:
        """The (capability, source) baselines this context has not scored yet."""
        return [key for key in keys if key not in self._scores]

    def record_baselines(self, keys, scores) -> None:
        """Memoize scores of the (capability, source) baselines ``keys``."""
        self._scores.update(zip(keys, scores))

    def source_layer_arrays(self, source: str, layer) -> list[dict[str, np.ndarray]]:
        deltas = {"A": [self.delta_a], "B": [self.delta_b], "G": [self.delta_a, self.delta_b]}
        if source not in deltas:
            raise ConfigError(f"unknown source {source!r}")
        return [layer_arrays(delta, self.partition, layer) for delta in deltas[source]]


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


def _candidate(kind: str, source: str, layer, ctx: AnalysisContext) -> Checkpoint:
    """The checkpoint an impact scores: for a deletion, the source model
    minus its layer delta; for an addition, the base plus it."""
    ref_source, sign = (source, -1.0) if kind == "deletion" else ("F", +1.0)
    arrays = ctx.source_layer_arrays(source, layer)
    return shifted_checkpoint(ctx.reference(ref_source), arrays, sign)


def _score(ctx: AnalysisContext, job) -> float:
    """P_capability(checkpoint) of a job; a failed impact names the impact,
    a failed baseline (kind None) is raised as it is."""
    kind, capability, source, layer, cp = job
    try:
        return ctx.bridge.evaluate(cp, ctx.task(capability)).value
    except EvaluatorError as exc:
        if kind is None:
            raise
        raise EvaluatorError(
            f"{kind} impact (capability={capability}, source={source}, layer={layer}): {exc}"
        ) from exc


def _impact(kind: str, capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(candidate) - P(its reference), scored as a ``conflict_profile`` job."""
    ref_source = source if kind == "deletion" else "F"
    job = (kind, capability, source, layer, _candidate(kind, source, layer, ctx))
    return _score(ctx, job) - ctx.baseline(capability, ref_source)


def deletion_impact(capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(source model minus its layer delta) - P(source model)."""
    return _impact("deletion", capability, source, layer, ctx)


def addition_impact(capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(base plus the source's layer delta) - P(base)."""
    return _impact("addition", capability, source, layer, ctx)


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


def _baseline_keys(pairs) -> list[tuple[str, str]]:
    """Every (capability, reference) score the pairs' impacts read: the core
    pairs, the base per capability, then any cross pairs."""
    keys = [*CORE_PAIRS, *((m, "F") for m in CAPABILITIES)]
    return keys + [pair for pair in pairs if pair not in CORE_PAIRS]


def _jobs(ctx: AnalysisContext, layers, pairs, missing):
    """(kind, capability, source, layer, checkpoint) per evaluation, in
    serial order: the missing baselines (kind None), then per layer and
    pair the deletion and the addition candidate.  A generator, so each
    candidate is built on the consuming thread when its turn comes."""
    for capability, source in missing:
        yield None, capability, source, None, ctx.reference(source)
    for layer in layers:
        for capability, source in pairs:
            for kind in ("deletion", "addition"):
                candidate = _candidate(kind, source, layer, ctx)
                yield kind, capability, source, layer, candidate


def _rows(baselines: dict, layers, pairs, scores) -> list[LayerConflictRow]:
    """alpha/beta/c/gamma/Gamma per layer from the baselines and the
    impacts' candidate scores, given in the order ``_jobs`` lists them."""
    scores = iter(scores)
    rows = []
    for layer in layers:
        alpha: dict[str, float] = {}
        beta: dict[str, float] = {}
        c: dict[str, float] = {}
        for m1, m2 in pairs:
            key = m1 + m2
            alpha[key] = next(scores) - baselines[f"{m1}:{m2}"]
            beta[key] = next(scores) - baselines[f"{m1}:F"]
            c[key] = alpha[key] + beta[key]
        gamma_a = c["AA"] - c["AG"]
        gamma_b = c["BB"] - c["BG"]
        rows.append(
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
    return rows


def conflict_profile(
    ctx: AnalysisContext,
    layers=None,
    *,
    full_matrix: bool = False,
) -> ConflictProfile:
    """Compute alpha/beta/c for each layer and the conflicts gamma, Gamma.

    By default only the four pairs the conflict formulas need are computed
    (8 evaluations per layer before caching); ``full_matrix=True`` fills the
    cross (capability, source) report columns too.  Every evaluation is
    known up front, so all of them run as one job table through
    ``EvaluationBridge.map``, up to ``parallel`` at once.  Each completed
    evaluation is persisted to the cache, so an aborted run resumes without
    repeating work.
    """
    if layers is None:
        layers = ctx.partition.transformer_layers()
    pairs = (
        [(m1, m2) for m1 in CAPABILITIES for m2 in SOURCES] if full_matrix else list(CORE_PAIRS)
    )
    keys = _baseline_keys(pairs)
    missing = ctx.unscored(keys)
    scores = ctx.bridge.map(
        lambda job: _score(ctx, job), _jobs(ctx, layers, pairs, missing)
    )
    ctx.record_baselines(missing, scores)
    baselines = {f"{m}:{source}": ctx.baseline(m, source) for m, source in keys}
    rows = _rows(baselines, layers, pairs, scores[len(missing):])
    return ConflictProfile(baselines=baselines, rows=rows)
