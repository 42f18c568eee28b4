"""Iterative conflict elimination and the end-to-end merge pipeline.

Layers are processed in descending-Gamma order.  A layer where both
conflicts are positive is severe: the delta with the smaller own
contribution is dropped.  Opposite signs mark a partial conflict: the
negative-gamma model's layer delta is re-pruned and re-scaled at half its
model-wise hyperparameters (halved again on each revisit, capped).  Layers
where both conflicts are non-positive are mutual enhancement and are kept
unchanged; a zero gamma paired with a positive one is treated as a
boundary keep rather than pruning on zero evidence.

The pipeline's front half is ``prepare`` (deltas, model-wise processing,
pre-merge) and ``analyze`` (the conflict profile); ``hi_merge`` and the
CLI's ``analyze`` verb both call them, so the two run the same stages.
``hi_merge`` owns the resolution log: ``iterate`` appends each action to it
as it is taken, and an evaluator failure during resolution leaves the
actions so far in ``resolution_log.partial.jsonl``.
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

from .analysis import AnalysisContext, ConflictProfile, conflict_profile
from .checkpoint import (
    DEFAULT_LAYER_RULE,
    Checkpoint,
    LayerPartition,
    atomic_open,
    compile_layer_rule,
    partition_layers,
    save_checkpoint,
    validate_compat,
)
from .delta import (
    DeltaVector,
    PruneScaleParams,
    compute_delta,
    layer_arrays,
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
    """Zero one layer: Top_p at p = 0 keeps no entry of the layer."""
    return prune_topp(delta, 0.0, partition=partition, layers={layer})


def reprune_layer(
    delta: DeltaVector, partition: LayerPartition, layer, p: float, s: float
) -> DeltaVector:
    """Layer-scoped prune-then-scale, leaving every other layer untouched."""
    return prune_topp(delta, p, s, partition=partition, layers={layer})


def resolve_layer(
    layer,
    row,
    deltas: dict[str, DeltaVector],
    partition: LayerPartition,
    layer_params: dict[str, tuple[float, float] | str],
) -> tuple[dict[str, DeltaVector], ResolutionAction]:
    """Apply the three-case rule to one layer; returns the deltas by model
    id, with the one the action changed replaced, and the action.

    ``layer_params`` maps model id to the (p, s) to use if this layer turns
    out to be a partial conflict with that model as the aggressor, or to the
    reason it may not be re-pruned again (the halving cap): the layer is
    then kept.  A severe layer whose loser's layer delta is already zero is
    kept too, since dropping it would change nothing.
    """
    deltas = dict(deltas)
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
        if not any(arr.any() for arr in layer_arrays(deltas[loser], partition, layer).values()):
            note = f"layer delta of model {loser} is already zero"
            action = ResolutionAction(kind="KEEP", note=note, **common)
        else:
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
    return deltas, action


def _above(rows, threshold: float) -> list:
    """The rows whose Gamma exceeds ``threshold``, in descending Gamma
    (a stable sort: equal Gammas keep their profile order)."""
    return sorted((r for r in rows if r.Gamma > threshold), key=lambda r: -r.Gamma)


def _reprofile(
    ctx: AnalysisContext, deltas: dict[str, DeltaVector], layers, threshold: float
) -> list:
    """Profile ``layers`` against the current deltas and their theta_G; the
    rows to resolve next, as ``_above`` orders them."""
    current = dataclasses.replace(ctx, deltas=deltas, theta_g=_assemble(ctx, deltas))
    return _above(conflict_profile(current, layers=layers).rows, threshold)


def iterate(
    ctx: AnalysisContext,
    profile: ConflictProfile,
    policy: IterationPolicy,
    params: dict[str, PruneScaleParams],
    log: ResolutionLog | None = None,
) -> tuple[DeltaVector, DeltaVector, ResolutionLog]:
    """Resolve conflicted layers in descending-Gamma order.

    Default is a single pass over the initial profile.  With
    ``policy.recompute`` the profile of the remaining layers is recomputed
    after each action that changed a delta; additional passes always
    recompute, and a pass that changes no delta ends the run.  Layer-wise
    (p, s) start at half the model-wise values ``params`` and halve again
    per partial revisit of the same layer, up to ``max_halvings``.  Each
    action is appended to ``log`` (a new one by default) as it is taken, so
    after a failure it holds the decisions made so far.  Returns the final
    deltas in model order, then the log.
    """
    deltas = ctx.deltas
    log = ResolutionLog() if log is None else log
    halvings: Counter[tuple[object, str]] = Counter()
    analyzed_layers = [row.layer for row in profile.rows]
    pending = _above(profile.rows, policy.gamma_threshold)
    for pass_idx in range(policy.max_passes):
        if pass_idx:
            pending = _reprofile(ctx, deltas, analyzed_layers, policy.gamma_threshold)
        changed = False
        while pending:
            row = pending.pop(0)
            layer_params = {}
            for model_id, model_params in params.items():
                visits = halvings[row.layer, model_id]
                step = 1 if policy.single_halving else visits + 1
                layer_params[model_id] = (
                    f"halving cap ({policy.max_halvings}) reached for model {model_id}"
                    if visits >= policy.max_halvings
                    else (model_params.p / 2**step, model_params.s / 2**step)
                )
            deltas, action = resolve_layer(row.layer, row, deltas, ctx.partition, layer_params)
            if action.kind == "REPRUNE":
                halvings[row.layer, action.model] += 1
            log.actions.append(action)
            acted = action.kind != "KEEP"
            changed = changed or acted
            if policy.recompute and pending and acted:
                layers = [r.layer for r in pending]
                pending = _reprofile(ctx, deltas, layers, policy.gamma_threshold)
        if not changed:  # the next pass would see the same profile and decide the same
            break
    return (*deltas.values(), log)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass
class HiMergeConfig:
    """Model-wise (p, s) and evaluation task, each keyed by model id.  The
    layer rule is checked here, so a bad one fails before any output."""

    params: dict[str, PruneScaleParams]
    tasks: dict[str, EvalTask]
    layer_rule: str = DEFAULT_LAYER_RULE
    policy: IterationPolicy = field(default_factory=IterationPolicy)
    full_matrix: bool = False
    out_dir: Path | None = None

    def __post_init__(self):
        if self.out_dir is not None:
            self.out_dir = Path(self.out_dir)
        for name in ("params", "tasks"):
            if set(getattr(self, name)) != {"A", "B"}:
                raise ConfigError(f"{name} must be keyed by model ids A and B")
        compile_layer_rule(self.layer_rule)


@dataclass
class HiMergeResult:
    merged: Checkpoint
    log: ResolutionLog
    profile: ConflictProfile
    theta_g: Checkpoint
    deltas: dict[str, DeltaVector]


@contextmanager
def _stage(name: str):
    try:
        yield
    except HiMergeError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


def prepare(
    base: Checkpoint,
    model_a: Checkpoint,
    model_b: Checkpoint,
    config: HiMergeConfig,
    bridge: EvaluationBridge,
) -> AnalysisContext:
    """The pipeline up to the conflict analysis: compat check, layer
    partition, deltas, model-wise processing and pre-merge.  Returns the
    analysis context.

    Each model's delta is computed and model-wise processed before the next
    model's.  With ``config.out_dir``, which is created if missing, the
    processed delta is saved there as ``delta_<id>_processed.safetensors``
    and its arrays are dropped before the next delta is computed, and
    theta_G is saved there as ``theta_g.safetensors``: the context's deltas
    and theta_G read their tensors from those files on each use.
    """
    out = config.out_dir
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    models = {"A": model_a, "B": model_b}
    with _stage("compat"):
        for model in models.values():
            validate_compat(base, model)
    with _stage("partition"):
        partition = partition_layers(base, config.layer_rule)
    deltas = {}
    for m, model in models.items():
        with _stage("delta"):
            delta = compute_delta(model, base, provenance=m)
        with _stage("model-wise"):
            delta = model_wise_process(delta, config.params[m])
        if out is not None:
            delta = save_delta(delta, out / f"delta_{m.lower()}_processed.safetensors")
        deltas[m] = delta
    with _stage("pre-merge"):
        theta_g = assemble_final(base, *deltas.values())
        if out is not None:
            theta_g = save_checkpoint(theta_g, out / "theta_g.safetensors")
    return AnalysisContext(base, models, deltas, theta_g, partition, config.tasks, bridge)


def analyze(ctx: AnalysisContext, config: HiMergeConfig) -> ConflictProfile:
    """The analysis stage: the conflict profile of the transformer layers,
    and of PRE/POST too under ``include_pre_post``."""
    part = ctx.partition
    layers = part.all_layers() if config.policy.include_pre_post else part.transformer_layers()
    with _stage("analysis"):
        return conflict_profile(ctx, layers=layers, full_matrix=config.full_matrix)


def hi_merge(
    base: Checkpoint,
    model_a: Checkpoint,
    model_b: Checkpoint,
    config: HiMergeConfig,
    bridge: EvaluationBridge | None = None,
) -> HiMergeResult:
    """Full pipeline: deltas, model-wise processing, pre-merge, conflict
    analysis, iterative resolution, and final assembly.  With
    ``config.out_dir`` the processed deltas and theta_G stay in their files
    there (``prepare``), and so do the untouched tensors of the final deltas
    and of the merged model.  If an
    evaluator fails during resolution, the actions taken so far are written
    to ``resolution_log.partial.jsonl`` there; a later successful run
    removes that file."""
    if bridge is None:
        bridge = EvaluationBridge()
    out = config.out_dir
    ctx = prepare(base, model_a, model_b, config, bridge)
    profile = analyze(ctx, config)
    log = ResolutionLog()
    with _stage("resolution"):
        try:
            *finals, _ = iterate(ctx, profile, config.policy, config.params, log)
        except EvaluatorError:
            # Completed evaluations are already in the cache.
            if out is not None:
                log.write_jsonl(out / "resolution_log.partial.jsonl")
            raise
    finals = dict(zip(ctx.deltas, finals))
    with _stage("assembly"):
        merged = _assemble(ctx, finals)
    result = HiMergeResult(merged, log, profile, ctx.theta_g, finals)
    if out is not None:
        with _stage("persist"):
            _persist(result, out)
    return result


def _assemble(ctx: AnalysisContext, finals: dict[str, DeltaVector]) -> Checkpoint:
    """theta_F plus every final delta, sharing theta_G's record wherever no
    final delta holds a new tensor (array or record) in place of its
    processed one: theta_G is the same sum over the same tensors, so those
    records are equal."""
    changed = [
        name
        for name in ctx.base.names
        if any(finals[m].deltas[name] is not ctx.deltas[m].deltas[name] for m in finals)
    ]
    return assemble_final(ctx.base, *finals.values(), like=ctx.theta_g, names=changed)


def _persist(result: HiMergeResult, out: Path) -> None:
    save_checkpoint(result.merged, out / "merged.safetensors")
    for model_id, delta in result.deltas.items():
        save_delta(delta, out / f"delta_{model_id.lower()}_final.safetensors")
    result.profile.write(out)
    result.log.write_jsonl(out / "resolution_log.jsonl")
    with atomic_open(out / "resolution_summary.txt") as fh:
        fh.write(result.log.summary() + "\n")
    (out / "resolution_log.partial.jsonl").unlink(missing_ok=True)  # a resumed failure's
