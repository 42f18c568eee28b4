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
from .errors import EvaluatorError, HiMergeError
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
        with open(path, "w") as fh:
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


def drop_layer(delta: DeltaVector, partition: LayerPartition, layer) -> DeltaVector:
    zeros = {
        name: np.zeros_like(delta.deltas[name]) for name in partition.names_in(layer)
    }
    return delta.replace(zeros)


def reprune_layer(
    delta: DeltaVector, partition: LayerPartition, layer, p: float, s: float
) -> DeltaVector:
    """Layer-scoped prune-then-scale, leaving every other layer untouched."""
    pruned = prune_topp(delta, p, partition=partition, layers={layer})
    factor = np.float32(s)
    replaced = {
        name: pruned.deltas[name] * factor for name in partition.names_in(layer)
    }
    return delta.replace(replaced)


def resolve_layer(
    layer,
    row,
    delta_a: DeltaVector,
    delta_b: DeltaVector,
    partition: LayerPartition,
    layer_params: dict[str, tuple[float, float]],
) -> tuple[DeltaVector, DeltaVector, ResolutionAction]:
    """Apply the three-case rule to one layer.

    ``layer_params`` maps model id to the (p, s) to use if this layer turns
    out to be a partial conflict.
    """
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
        if loser == "A":
            delta_a = drop_layer(delta_a, partition, layer)
        else:
            delta_b = drop_layer(delta_b, partition, layer)
        action = ResolutionAction(kind="DROP", model=loser, note=note, **common)
    elif case is ConflictCase.PARTIAL:
        aggressor = "A" if row.gamma_a < 0 else "B"
        p_layer, s_layer = layer_params[aggressor]
        if aggressor == "A":
            delta_a = reprune_layer(delta_a, partition, layer, p_layer, s_layer)
        else:
            delta_b = reprune_layer(delta_b, partition, layer, p_layer, s_layer)
        action = ResolutionAction(
            kind="REPRUNE", model=aggressor, p_layer=p_layer, s_layer=s_layer, **common
        )
    else:
        note = ""
        if (row.gamma_a == 0) != (row.gamma_b == 0) and max(row.gamma_a, row.gamma_b) > 0:
            note = "boundary: one conflict is exactly zero; kept without action"
        action = ResolutionAction(kind="KEEP", note=note, **common)
    return delta_a, delta_b, action


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
    after each action; additional passes always recompute.  Layer-wise
    (p, s) start at half the model-wise values and halve again per partial
    revisit of the same layer, up to ``max_halvings``.
    """
    state = {"A": ctx.delta_a, "B": ctx.delta_b}
    log = ResolutionLog()
    halvings: dict[tuple[object, str], int] = {}
    base_params = {"A": params_a, "B": params_b}
    analyzed_layers = [row.layer for row in profile.rows]

    def current_ctx() -> AnalysisContext:
        theta_g = assemble_final(ctx.base, state["A"], state["B"])
        return dataclasses.replace(
            ctx, delta_a=state["A"], delta_b=state["B"], theta_g=theta_g
        )

    def keep_action(row, note):
        return ResolutionAction(
            layer=row.layer,
            kind="KEEP",
            case=ConflictCase.PARTIAL.value,
            gamma_a=row.gamma_a,
            gamma_b=row.gamma_b,
            Gamma=row.Gamma,
            note=note,
        )

    try:
        current = profile
        for pass_idx in range(max(1, policy.max_passes)):
            if pass_idx > 0:
                current = conflict_profile(current_ctx(), layers=analyzed_layers)
            pending = [r for r in current.rows if r.Gamma > policy.gamma_threshold]
            if not pending:
                break
            pending.sort(key=lambda r: -r.Gamma)
            while pending:
                row = pending.pop(0)
                layer = row.layer
                layer_params = {}
                for model_id in ("A", "B"):
                    visits = halvings.get((layer, model_id), 0)
                    step = 1 if policy.single_halving else visits + 1
                    params = base_params[model_id]
                    layer_params[model_id] = (params.p / 2**step, params.s / 2**step)
                case = classify_layer(row.gamma_a, row.gamma_b)
                if case is ConflictCase.PARTIAL:
                    aggressor = "A" if row.gamma_a < 0 else "B"
                    if halvings.get((layer, aggressor), 0) + 1 > policy.max_halvings:
                        log.actions.append(
                            keep_action(
                                row,
                                f"halving cap ({policy.max_halvings}) reached "
                                f"for model {aggressor}",
                            )
                        )
                        continue
                state["A"], state["B"], action = resolve_layer(
                    layer, row, state["A"], state["B"], ctx.partition, layer_params
                )
                if action.kind == "REPRUNE":
                    key = (layer, action.model)
                    halvings[key] = halvings.get(key, 0) + 1
                log.actions.append(action)
                if policy.recompute and pending and action.kind != "KEEP":
                    remaining = [r.layer for r in pending]
                    refreshed = conflict_profile(current_ctx(), layers=remaining)
                    pending = [
                        r for r in refreshed.rows if r.Gamma > policy.gamma_threshold
                    ]
                    pending.sort(key=lambda r: -r.Gamma)
    except EvaluatorError as exc:
        # Completed evaluations are already in the cache; expose the
        # decisions made so far for persistence by the caller.
        exc.partial_log = log
        raise
    return state["A"], state["B"], log


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
        merged = assemble_final(base, final_a, final_b)
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
    (out / "resolution_summary.txt").write_text(result.log.summary() + "\n")
