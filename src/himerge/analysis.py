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
share G's two candidates.  Five are built and hashed once; the
G-addition candidate is theta_G's layer, so it shares theta_G's records
and their hashes (``_candidate``).  The rows are then a pure function of
the scores keyed by job (kind, capability, source, layer).  A failed job
is reported as the serial loop would report it: the first failure in job
order, with the same message.
"""

from __future__ import annotations

import csv
import json
import math
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
    pre-merged model, the layer partition, and the bridge.

    ``theta_g`` must be ``assemble_final(base, *deltas.values())`` (or hold
    its bytes, as its file and ``resolver._assemble``'s result do): G's
    addition candidates take their records from it."""

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


def _touched(arrays_list) -> set[str]:
    """The names of the tensors where some array of ``arrays_list`` is nonzero."""
    return {name for arrays in arrays_list for name, arr in arrays.items() if arr.any()}


def shifted_checkpoint(ref: Checkpoint, arrays_list, sign: float) -> Checkpoint:
    """ref + sign * sum(arrays); returns ref itself if the shift is zero."""
    touched = _touched(arrays_list)
    if not touched:
        return ref
    terms = [arrays.get for arrays in arrays_list]
    return combine(ref, terms, [sign] * len(terms), names=sorted(touched))


def _reference(kind: str, source: str) -> str:
    """The checkpoint an impact is measured against: a deletion's source
    model, or the base F for an addition."""
    return source if kind == "deletion" else "F"


def _candidate(kind: str, source: str, ctx: AnalysisContext, layer_deltas) -> Checkpoint:
    """The checkpoint an impact scores: its reference minus the layer delta
    for a deletion, plus it for an addition.  G's layer delta is every
    model's; ``layer_deltas`` is ``ctx.layer_deltas(layer)``.

    G's addition candidate is theta_G's layer: the base with theta_G's
    records for the tensors the layer deltas touch.  Each such record is
    the float64 sum base + delta_A + delta_B, rounded once, that
    ``shifted_checkpoint`` would take in the same term order; so the
    candidate has the same bytes, and none of them is computed or hashed
    again.  (An untouched tensor stays the base's: theta_G's may differ
    from it in the sign of a zero.)"""
    arrays = list(layer_deltas.values()) if source == "G" else [layer_deltas[source]]
    if (kind, source) != ("addition", "G"):
        sign = -1.0 if kind == "deletion" else +1.0
        return shifted_checkpoint(ctx.reference(_reference(kind, source)), arrays, sign)
    touched = _touched(arrays)
    if not touched:
        return ctx.base
    records = [ctx.theta_g.record(rec.name) if rec.name in touched else rec for rec in ctx.base]
    return Checkpoint(records, {})  # no metadata, as combine's results have none


def _score(ctx: AnalysisContext, job) -> float:
    """P_capability(checkpoint) of a job; a failed impact names the impact,
    a failed baseline (kind None) is raised as it is."""
    (kind, capability, source, layer), cp = job
    try:
        return ctx.bridge.evaluate(cp, ctx.tasks[capability]).value
    except EvaluatorError as exc:
        if kind is None:
            raise
        raise EvaluatorError(
            f"{kind} impact (capability={capability}, source={source}, layer={layer}): {exc}"
        ) from exc


def _impact_of(scores: dict, kind: str, capability: str, source: str, layer) -> float:
    """An impact, read from the scores keyed by job: candidate minus reference."""
    reference = (None, capability, _reference(kind, source), None)
    return scores[kind, capability, source, layer] - scores[reference]


def _impact(kind: str, capability: str, source: str, layer, ctx: AnalysisContext) -> float:
    """P(candidate) - P(its reference), each scored as a ``conflict_profile``
    job; the reference is a cache hit after its first score."""
    ref_source = _reference(kind, source)
    candidate = _candidate(kind, source, ctx, ctx.layer_deltas(layer))
    jobs = [((kind, capability, source, layer), candidate),
            ((None, capability, ref_source, None), ctx.reference(ref_source))]
    return _impact_of({job[0]: _score(ctx, job) for job in jobs}, kind, capability, source, layer)


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

    def __post_init__(self):
        # Two finite scores can differ by more than the float range.
        values = [*self.alpha.values(), *self.beta.values(), *self.c.values(),
                  self.gamma_a, self.gamma_b, self.Gamma]
        if not all(map(math.isfinite, values)):
            raise EvaluatorError(f"layer {self.layer}: scores too far apart for a finite conflict")


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
    """((kind, capability, source, layer), checkpoint) per evaluation, in
    serial order: the baselines ``keys`` (kind and layer None), then per
    layer and pair the deletion and the addition candidate.  A generator,
    so each candidate is built on the consuming thread when its first turn
    comes.  Pairs of one source share its layer candidates: the (A, G) and
    (B, G) jobs score the same two G candidate objects.  Each model's layer
    delta is read once per layer, before the layer's first candidate."""
    for capability, source in keys:
        yield (None, capability, source, None), ctx.reference(source)
    for layer in layers:
        layer_deltas = ctx.layer_deltas(layer)
        built: dict[tuple[str, str], Checkpoint] = {}
        for capability, source in pairs:
            for kind in ("deletion", "addition"):
                if (kind, source) not in built:
                    built[kind, source] = _candidate(kind, source, ctx, layer_deltas)
                yield (kind, capability, source, layer), built[kind, source]


def _row(scores: dict, layer, pairs) -> LayerConflictRow:
    """alpha/beta/c/gamma/Gamma of one layer from the scores keyed by job."""
    alpha = {m1 + m2: _impact_of(scores, "deletion", m1, m2, layer) for m1, m2 in pairs}
    beta = {m1 + m2: _impact_of(scores, "addition", m1, m2, layer) for m1, m2 in pairs}
    c = {key: alpha[key] + beta[key] for key in alpha}
    gamma_a = c["AA"] - c["AG"]
    gamma_b = c["BB"] - c["BG"]
    return LayerConflictRow(layer, alpha, beta, c, gamma_a, gamma_b, gamma_a + gamma_b)


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
    jobs = _jobs(ctx, layers, pairs, keys)
    scores = dict(ctx.bridge.map(lambda job: (job[0], _score(ctx, job)), jobs))
    baselines = {f"{m}:{source}": scores[None, m, source, None] for m, source in keys}
    return ConflictProfile(baselines, [_row(scores, layer, pairs) for layer in layers])
