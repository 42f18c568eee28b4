"""Layer-wise contribution and conflict analysis.

For each analyzed layer l and capability/source pair, the deletion impact
is the score change from removing that layer's processed delta from the
source model, and the addition impact is the score change from adding it
to the base model.  Their sum is the layer's contribution c; the conflict
gamma_m = c[m,m] - c[m,G] measures how much of model m's own contribution
the merged model loses at that layer, and Gamma = gamma_A + gamma_B ranks
layers for the resolver.

Each reference (model A, model B, the pre-merge G, the base F) is scored
once per capability per profile; those scores are the profile's baselines.
Scores are remembered only by the evaluation cache, so scoring a reference
again is a cache hit.

Every evaluation of a profile is known before the first one runs, so
``conflict_profile`` lists them as one job table in serial order (the
baselines, then per layer and pair the deletion and addition candidates)
and runs it through ``EvaluationBridge.map``: up to ``parallel``
evaluations at once, each candidate built on the calling thread just
before its first turn.  A layer with the four core pairs makes 8
evaluations of 6 distinct candidates: the deletion and the addition
candidate of each source A, B and G, where the (A, G) and (B, G) pairs
share G's two candidates, which are built and hashed once.  The rows are
then a pure function of the score list.  A failed job is reported as the
serial loop would report it: the first failure in job order, with the same
message.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, LayerPartition, atomic_open
from .delta import DeltaVector, combine, layer_arrays
from .errors import EvaluatorError
from .evaluation import EvalTask, EvaluationBridge

CAPABILITIES = ("A", "B")
SOURCES = ("A", "B", "G")
PAIR_KEYS = tuple(m1 + m2 for m1 in CAPABILITIES for m2 in SOURCES)
# Pairs needed for the conflict formulas; the full matrix is opt-in.
CORE_PAIRS = (("A", "A"), ("B", "B"), ("A", "G"), ("B", "G"))


@dataclass
class AnalysisContext:
    """Everything the impact operations need: the base, the fine-tuned
    models, their processed deltas and their tasks keyed by model id, the
    pre-merged model, the layer partition, and the bridge."""

    base: Checkpoint
    models: dict[str, Checkpoint]
    deltas: dict[str, DeltaVector]
    theta_g: Checkpoint
    partition: LayerPartition
    tasks: dict[str, EvalTask]
    bridge: EvaluationBridge

    def reference(self, source: str) -> Checkpoint:
        """The checkpoint of a model, the pre-merge G or the base F."""
        return {**self.models, "G": self.theta_g, "F": self.base}[source]

    def layer_deltas(self, layer) -> dict[str, dict[str, np.ndarray]]:
        """Each model's delta on one layer, read once: model id -> tensor
        name -> float32 array."""
        return {m: layer_arrays(delta, self.partition, layer) for m, delta in self.deltas.items()}


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


def _candidate(kind: str, source: str, ctx: AnalysisContext, layer_deltas) -> Checkpoint:
    """The checkpoint an impact scores: for a deletion, the source model
    minus its layer delta; for an addition, the base plus it.  G's layer
    delta is every model's; ``layer_deltas`` is ``ctx.layer_deltas(layer)``."""
    ref_source, sign = (source, -1.0) if kind == "deletion" else ("F", +1.0)
    arrays = list(layer_deltas.values()) if source == "G" else [layer_deltas[source]]
    return shifted_checkpoint(ctx.reference(ref_source), arrays, sign)


def _score(ctx: AnalysisContext, job) -> float:
    """P_capability(checkpoint) of a job; a failed impact names the impact,
    a failed baseline (kind None) is raised as it is."""
    kind, capability, source, layer, cp = job
    try:
        return ctx.bridge.evaluate(cp, ctx.tasks[capability]).value
    except EvaluatorError as exc:
        if kind is None:
            raise
        raise EvaluatorError(
            f"{kind} impact (capability={capability}, source={source}, layer={layer}): {exc}"
        ) from exc


def _impact(kind: str, capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(candidate) - P(its reference), each scored as a ``conflict_profile``
    job; the reference is a cache hit after its first score."""
    ref_source = source if kind == "deletion" else "F"
    candidate = _candidate(kind, source, ctx, ctx.layer_deltas(layer))
    job = (kind, capability, source, layer, candidate)
    reference = (None, capability, ref_source, None, ctx.reference(ref_source))
    return _score(ctx, job) - _score(ctx, reference)


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

    def to_json_dict(self) -> dict:
        return {"baselines": dict(self.baselines), "layers": [asdict(row) for row in self.rows]}

    def write(self, out: Path) -> Path:
        """Write ``profile.json`` and ``profile.csv`` into ``out``; returns
        the JSON file's path."""
        path = out / "profile.json"
        with atomic_open(path) as fh:
            fh.write(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n")
        header = (
            ["layer"]
            + [f"{table}_{k}" for table in ("alpha", "beta", "c") for k in PAIR_KEYS]
            + ["gamma_a", "gamma_b", "Gamma"]
        )
        with atomic_open(out / "profile.csv", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in self.rows:
                cells = [row.layer]
                for table in (row.alpha, row.beta, row.c):
                    cells += [repr(table[k]) if k in table else "" for k in PAIR_KEYS]
                cells += [repr(row.gamma_a), repr(row.gamma_b), repr(row.Gamma)]
                writer.writerow(cells)
        return path


def _baseline_keys(pairs) -> list[tuple[str, str]]:
    """Every (capability, reference) score the pairs' impacts read: the core
    pairs, the base per capability, then any cross pairs."""
    keys = [*CORE_PAIRS, *((m, "F") for m in CAPABILITIES)]
    return keys + [pair for pair in pairs if pair not in CORE_PAIRS]


def _jobs(ctx: AnalysisContext, layers, pairs, keys):
    """(kind, capability, source, layer, checkpoint) per evaluation, in
    serial order: the baselines ``keys`` (kind None), then per layer and
    pair the deletion and the addition candidate.  A generator, so each
    candidate is built on the consuming thread when its first turn comes.
    Pairs of one source share its layer candidates: the (A, G) and (B, G)
    jobs score the same two G candidate objects.  Each model's layer delta
    is read once per layer, before the layer's first candidate."""
    for capability, source in keys:
        yield None, capability, source, None, ctx.reference(source)
    for layer in layers:
        layer_deltas = ctx.layer_deltas(layer)
        built: dict[tuple[str, str], Checkpoint] = {}
        for capability, source in pairs:
            for kind in ("deletion", "addition"):
                if (kind, source) not in built:
                    built[kind, source] = _candidate(kind, source, ctx, layer_deltas)
                yield kind, capability, source, layer, built[kind, source]


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
    scores = ctx.bridge.map(lambda job: _score(ctx, job), _jobs(ctx, layers, pairs, keys))
    baselines = {f"{m}:{source}": score for (m, source), score in zip(keys, scores)}
    rows = _rows(baselines, layers, pairs, scores[len(keys):])
    return ConflictProfile(baselines=baselines, rows=rows)
