"""Iterative conflict elimination and the end-to-end merge pipeline.

Layers are processed in descending-Gamma order.  A layer where both
conflicts are positive is severe: the delta with the smaller own
contribution is dropped.  Opposite signs mark a partial conflict: the
negative-gamma model's layer delta is re-pruned and re-scaled at half its
model-wise hyperparameters (halved again on each revisit, capped).  Layers
where both conflicts are non-positive are mutual enhancement and are kept
unchanged; a zero gamma paired with a positive one is treated as a
boundary keep rather than pruning on zero evidence.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from math import isfinite
from pathlib import Path

import numpy as np

from .analysis import AnalysisContext, ConflictProfile, conflict_profile
from .checkpoint import (
    DEFAULT_LAYER_RULE,
    Checkpoint,
    LayerPartition,
    atomic_open,
    partition_layers,
    save_checkpoint,
    validate_compat,
)
from .delta import (
    DeltaVector,
    PruneScaleParams,
    compute_delta,
    model_wise_process,
    prune_topp,
    save_delta,
)
from .errors import ConfigError, EvaluatorError, HiMergeError
from .evaluation import EvalTask, EvaluationBridge
from .merge import assemble_final


class ConflictCase(str, Enum):
    SEVERE = "SEVERE"
    PARTIAL = "PARTIAL"
    MUTUAL = "MUTUAL"


def classify_layer(gamma_a: float, gamma_b: float) -> ConflictCase:
    """Map a (gamma_A, gamma_B) pair to its conflict case.

    SEVERE iff both strictly positive, PARTIAL iff strictly opposite signs,
    MUTUAL otherwise (including the zero boundaries).
    """
    if not (isfinite(gamma_a) and isfinite(gamma_b)):
        raise EvaluatorError(f"non-finite conflict values ({gamma_a}, {gamma_b})")
    if gamma_a > 0 and gamma_b > 0:
        return ConflictCase.SEVERE
    if gamma_a * gamma_b < 0:
        return ConflictCase.PARTIAL
    return ConflictCase.MUTUAL


@dataclass
class ResolutionAction:
    layer: object
    kind: str  # DROP | REPRUNE | KEEP
    case: str
    gamma_a: float
    gamma_b: float
    Gamma: float
    model: str | None = None
    p_layer: float | None = None
    s_layer: float | None = None
    note: str = ""

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ResolutionLog:
    actions: list[ResolutionAction] = field(default_factory=list)

    def write_jsonl(self, path) -> None:
        with atomic_open(path) as fh:
            for action in self.actions:
                fh.write(json.dumps(action.to_dict(), sort_keys=True) + "\n")

    def summary(self) -> str:
        lines = [
            f"{'layer':>6}  {'case':<8} {'action':<8} {'model':<5} "
            f"{'gamma_A':>10} {'gamma_B':>10} {'Gamma':>10}  note"
        ]
        for a in self.actions:
            lines.append(
                f"{str(a.layer):>6}  {a.case:<8} {a.kind:<8} {a.model or '-':<5} "
                f"{a.gamma_a:>10.6f} {a.gamma_b:>10.6f} {a.Gamma:>10.6f}  {a.note}"
            )
        lines.append(f"total actions: {len(self.actions)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class IterationPolicy:
    gamma_threshold: float = 0.0
    recompute: bool = False
    max_passes: int = 1
    max_halvings: int = 3
    single_halving: bool = False
    include_pre_post: bool = False

    def __post_init__(self):
        if not isfinite(self.gamma_threshold):
            raise ConfigError(f"gamma_threshold must be finite, got {self.gamma_threshold}")
        if self.max_passes < 1:
            raise ConfigError(f"max_passes must be >= 1, got {self.max_passes}")
        if self.max_halvings < 0:
            raise ConfigError(f"max_halvings must be >= 0, got {self.max_halvings}")


def drop_layer(delta: DeltaVector, partition: LayerPartition, layer) -> DeltaVector:
    zeros = {
        name: np.zeros_like(delta.deltas[name]) for name in partition.names_in(layer)
    }
    return delta.replace(zeros)


def reprune_layer(
    delta: DeltaVector, partition: LayerPartition, layer, p: float, s: float
) -> DeltaVector:
    """Layer-scoped prune-then-scale, leaving every other layer untouched."""
    return prune_topp(delta, p, s, partition=partition, layers={layer})


def resolve_layer(
    layer,
    row,
    delta_a: DeltaVector,
    delta_b: DeltaVector,
    partition: LayerPartition,
    layer_params: dict[str, tuple[float, float] | str],
) -> tuple[DeltaVector, DeltaVector, ResolutionAction]:
    """Apply the three-case rule to one layer.

    ``layer_params`` maps model id to the (p, s) to use if this layer turns
    out to be a partial conflict with that model as the aggressor, or to the
    reason it may not be re-pruned again (the halving cap): the layer is
    then kept.
    """
    deltas = {"A": delta_a, "B": delta_b}
    case = classify_layer(row.gamma_a, row.gamma_b)
    common = dict(
        layer=layer,
        case=case.value,
        gamma_a=row.gamma_a,
        gamma_b=row.gamma_b,
        Gamma=row.Gamma,
    )
    if case is ConflictCase.SEVERE:
        own_a, own_b = row.c["AA"], row.c["BB"]
        # Retain the larger own contribution; ties keep model A.
        loser = "B" if own_a >= own_b else "A"
        note = f"own contributions c_AA={own_a!r} c_BB={own_b!r}"
        if own_a == own_b:
            note += " (tie: kept A)"
        deltas[loser] = drop_layer(deltas[loser], partition, layer)
        action = ResolutionAction(kind="DROP", model=loser, note=note, **common)
    elif case is ConflictCase.PARTIAL:
        aggressor = "A" if row.gamma_a < 0 else "B"
        params = layer_params[aggressor]
        if isinstance(params, str):
            action = ResolutionAction(kind="KEEP", note=params, **common)
        else:
            p_layer, s_layer = params
            deltas[aggressor] = reprune_layer(deltas[aggressor], partition, layer, p_layer, s_layer)
            action = ResolutionAction(
                kind="REPRUNE", model=aggressor, p_layer=p_layer, s_layer=s_layer, **common
            )
    else:
        note = ""
        if (row.gamma_a == 0) != (row.gamma_b == 0) and max(row.gamma_a, row.gamma_b) > 0:
            note = "boundary: one conflict is exactly zero; kept without action"
        action = ResolutionAction(kind="KEEP", note=note, **common)
    return deltas["A"], deltas["B"], action


def _above(rows, threshold: float) -> list:
    """The rows whose Gamma exceeds ``threshold``, in descending Gamma
    (a stable sort: equal Gammas keep their profile order)."""
    return sorted((r for r in rows if r.Gamma > threshold), key=lambda r: -r.Gamma)


def _reprofile(
    ctx: AnalysisContext, delta_a: DeltaVector, delta_b: DeltaVector, layers, threshold: float
) -> list:
    """Profile ``layers`` against the current deltas and their theta_G; the
    rows to resolve next, as ``_above`` orders them."""
    current = dataclasses.replace(
        ctx, delta_a=delta_a, delta_b=delta_b, theta_g=_assemble(ctx, delta_a, delta_b)
    )
    return _above(conflict_profile(current, layers=layers).rows, threshold)


def iterate(
    ctx: AnalysisContext,
    profile: ConflictProfile,
    policy: IterationPolicy,
    params_a: PruneScaleParams,
    params_b: PruneScaleParams,
) -> tuple[DeltaVector, DeltaVector, ResolutionLog]:
    """Resolve conflicted layers in descending-Gamma order.

    Default is a single pass over the initial profile.  With
    ``policy.recompute`` the profile of the remaining layers is recomputed
    after each action; additional passes always recompute, and a pass with
    nothing above the threshold ends the run.  Layer-wise (p, s) start at
    half the model-wise values and halve again per partial revisit of the
    same layer, up to ``max_halvings``.
    """
    delta_a, delta_b = ctx.delta_a, ctx.delta_b
    log = ResolutionLog()
    halvings: Counter[tuple[object, str]] = Counter()
    base_params = {"A": params_a, "B": params_b}
    analyzed_layers = [row.layer for row in profile.rows]
    try:
        pending = _above(profile.rows, policy.gamma_threshold)
        for pass_idx in range(policy.max_passes):
            # The layers to profile again before the next decision: all of
            # them when a later pass starts, and under --recompute the ones
            # still pending after an action.
            layers = analyzed_layers if pass_idx else None
            acted = False
            while True:
                if layers is not None:
                    pending = _reprofile(ctx, delta_a, delta_b, layers, policy.gamma_threshold)
                if not pending:
                    break
                row = pending.pop(0)
                layer_params = {}
                for model_id, params in base_params.items():
                    visits = halvings[row.layer, model_id]
                    step = 1 if policy.single_halving else visits + 1
                    layer_params[model_id] = (
                        f"halving cap ({policy.max_halvings}) reached for model {model_id}"
                        if visits >= policy.max_halvings
                        else (params.p / 2**step, params.s / 2**step)
                    )
                delta_a, delta_b, action = resolve_layer(
                    row.layer, row, delta_a, delta_b, ctx.partition, layer_params
                )
                if action.kind == "REPRUNE":
                    halvings[row.layer, action.model] += 1
                log.actions.append(action)
                acted = True
                stale = policy.recompute and pending and action.kind != "KEEP"
                layers = [r.layer for r in pending] if stale else None
            if not acted:  # the deltas are unchanged, so the next pass would be too
                break
    except EvaluatorError as exc:
        # Completed evaluations are already in the cache; expose the
        # decisions made so far for persistence by the caller.
        exc.partial_log = log
        raise
    return delta_a, delta_b, log


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class HiMergeConfig:
    params_a: PruneScaleParams
    params_b: PruneScaleParams
    task_a: EvalTask
    task_b: EvalTask
    layer_rule: str = DEFAULT_LAYER_RULE
    policy: IterationPolicy = field(default_factory=IterationPolicy)
    full_matrix: bool = False
    out_dir: Path | None = None


@dataclass
class HiMergeResult:
    merged: Checkpoint
    log: ResolutionLog
    profile: ConflictProfile
    theta_g: Checkpoint
    delta_a: DeltaVector
    delta_b: DeltaVector


@contextmanager
def _stage(name: str):
    try:
        yield
    except HiMergeError as exc:
        wrapped = type(exc)(f"stage {name}: {exc}")
        if hasattr(exc, "partial_log"):
            wrapped.partial_log = exc.partial_log
        raise wrapped from exc


def prepare(
    base: Checkpoint,
    model_a: Checkpoint,
    model_b: Checkpoint,
    config: HiMergeConfig,
    bridge: EvaluationBridge,
) -> tuple[AnalysisContext, list]:
    """The pipeline up to the conflict analysis: compat check, deltas,
    model-wise processing, layer partition and pre-merge.  Returns the
    analysis context and the layers to analyze."""
    with _stage("compat"):
        validate_compat(base, model_a)
        validate_compat(base, model_b)
    with _stage("delta"):
        delta_a = compute_delta(model_a, base, provenance="A")
        delta_b = compute_delta(model_b, base, provenance="B")
    with _stage("model-wise"):
        delta_a = model_wise_process(delta_a, config.params_a)
        delta_b = model_wise_process(delta_b, config.params_b)
    with _stage("partition"):
        partition = partition_layers(base, config.layer_rule)
    with _stage("pre-merge"):
        theta_g = assemble_final(base, delta_a, delta_b)
    ctx = AnalysisContext(
        base=base,
        model_a=model_a,
        model_b=model_b,
        delta_a=delta_a,
        delta_b=delta_b,
        theta_g=theta_g,
        partition=partition,
        task_a=config.task_a,
        task_b=config.task_b,
        bridge=bridge,
    )
    layers = (
        partition.all_layers()
        if config.policy.include_pre_post
        else partition.transformer_layers()
    )
    return ctx, layers


def hi_merge(
    base: Checkpoint,
    model_a: Checkpoint,
    model_b: Checkpoint,
    config: HiMergeConfig,
    bridge: EvaluationBridge | None = None,
) -> HiMergeResult:
    """Full pipeline: deltas, model-wise processing, pre-merge, conflict
    analysis, iterative resolution, and final assembly."""
    if bridge is None:
        bridge = EvaluationBridge()
    ctx, layers = prepare(base, model_a, model_b, config, bridge)
    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        save_delta(ctx.delta_a, out / "delta_a_processed.safetensors")
        save_delta(ctx.delta_b, out / "delta_b_processed.safetensors")
    with _stage("analysis"):
        profile = conflict_profile(ctx, layers=layers, full_matrix=config.full_matrix)
    with _stage("resolution"):
        try:
            final_a, final_b, log = iterate(
                ctx, profile, config.policy, config.params_a, config.params_b
            )
        except EvaluatorError as exc:
            partial = getattr(exc, "partial_log", None)
            if config.out_dir is not None and partial is not None:
                out = Path(config.out_dir)
                out.mkdir(parents=True, exist_ok=True)
                partial.write_jsonl(out / "resolution_log.partial.jsonl")
            raise
    with _stage("assembly"):
        merged = _assemble(ctx, final_a, final_b)
    result = HiMergeResult(
        merged=merged,
        log=log,
        profile=profile,
        theta_g=ctx.theta_g,
        delta_a=final_a,
        delta_b=final_b,
    )
    if config.out_dir is not None:
        with _stage("persist"):
            _persist(result, config.out_dir)
    return result


def _assemble(ctx: AnalysisContext, final_a: DeltaVector, final_b: DeltaVector) -> Checkpoint:
    """theta_F + delta_A + delta_B, sharing theta_G's record wherever neither
    final delta holds a new array: theta_G is the same sum over the same
    arrays, so those records are equal."""
    changed = [
        name
        for name in ctx.base.names
        if final_a.deltas.get(name) is not ctx.delta_a.deltas[name]
        or final_b.deltas.get(name) is not ctx.delta_b.deltas[name]
    ]
    return assemble_final(ctx.base, final_a, final_b, like=ctx.theta_g, names=changed)


def _persist(result: HiMergeResult, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(result.merged, out / "merged.safetensors")
    save_checkpoint(result.theta_g, out / "theta_g.safetensors")
    save_delta(result.delta_a, out / "delta_a_final.safetensors")
    save_delta(result.delta_b, out / "delta_b_final.safetensors")
    result.profile.write_json(out / "profile.json")
    result.profile.write_csv(out / "profile.csv")
    result.log.write_jsonl(out / "resolution_log.jsonl")
    with atomic_open(out / "resolution_summary.txt") as fh:
        fh.write(result.log.summary() + "\n")
