"""Per-layer metrics derived from the spans ``trace_cli.py`` records.

Stages come from the parent chain: a call directly under the pipeline span
(``hi_merge``, or ``cmd_sweep``, which has no separate pipeline function)
is mapped to a stage by name.  ``assemble_final`` counts as ``pre-merge``
until the analysis starts and as ``assembly`` after.  ``persist`` is the
tail of the pipeline after its last compute call, plus any output writes
before that.  In a sweep the per-cell ``apply_delta`` is the ``assembly``
stage and ``evaluate`` the ``analysis`` stage.  Checkpoint loads count as
``load`` wherever they happen.
"""

from __future__ import annotations

from collections import defaultdict

LAYERS = ("checkpoint", "delta", "merge", "evaluation", "analysis", "resolver", "cli")
STAGES = (
    "load", "compat", "delta", "model-wise", "partition",
    "pre-merge", "analysis", "resolution", "assembly", "persist",
)
PIPELINES = ("hi_merge", "cmd_sweep")
STAGE_OF = {
    "validate_compat": "compat",
    "compute_delta": "delta",
    "model_wise_process": "model-wise",
    "partition_layers": "partition",
    "conflict_profile": "analysis",
    "evaluate": "analysis",
    "iterate": "resolution",
    "apply_delta": "assembly",
    "save_delta": "persist",
    "save_checkpoint": "persist",
}


def _dur(span) -> float:
    return span["end"] - span["start"]


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def stage_spans(spans) -> dict[str, list[tuple[float, float]]]:
    """Stage name -> the intervals attributed to it."""
    out: dict[str, list] = defaultdict(list)
    for s in spans:
        if s["name"] == "load_checkpoint":
            out["load"].append((s["start"], s["end"]))
    for pipe in (s for s in spans if s["name"] in PIPELINES):
        children = sorted(
            (
                s
                for s in spans
                if s["parent"] == pipe["id"]
                and (s["name"] in STAGE_OF or s["name"] == "assemble_final")
            ),
            key=lambda s: s["start"],
        )
        analysis_started = False
        tail_start = pipe["start"]
        writes = []
        for c in children:
            if c["name"] == "assemble_final":
                stage = "assembly" if analysis_started else "pre-merge"
            else:
                stage = STAGE_OF[c["name"]]
            analysis_started = analysis_started or stage == "analysis"
            if stage == "persist":
                writes.append((c["start"], c["end"]))
            else:
                tail_start = max(tail_start, c["end"])
                out[stage].append((c["start"], c["end"]))
        out["persist"] += [iv for iv in writes if iv[1] <= tail_start]
        out["persist"].append((tail_start, pipe["end"]))
    return out


def derive(
    spans, layers: int, traced_wall: float, untraced_wall: float, launch: float
) -> dict[str, float]:
    """Every per-layer metric, by name, from one traced run's spans.

    ``analysis.layer.<l>_s`` is given for each of the model's ``layers``
    (0 for a layer the run never analysed) and for no other ``l``.
    """
    by_name: dict[str, list] = defaultdict(list)
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)

    def total(name):
        return sum(_dur(s) for s in by_name[name])

    def count(name):
        return len(by_name[name])

    m: dict[str, float] = {}
    m["checkpoint.load_s"] = total("load_checkpoint")
    m["checkpoint.save_s"] = total("save_checkpoint")
    m["checkpoint.serialize_calls"] = count("checkpoint_to_bytes")
    m["checkpoint.serialize_s"] = total("checkpoint_to_bytes")
    m["checkpoint.serialize_bytes"] = sum(s.get("bytes", 0) for s in by_name["checkpoint_to_bytes"])
    m["checkpoint.fingerprint_calls"] = count("fingerprint")
    m["checkpoint.fingerprint_s"] = total("fingerprint")

    m["delta.compute_s"] = total("compute_delta")
    m["delta.prune_calls"] = count("prune_topp")
    m["delta.prune_s"] = total("prune_topp")
    m["delta.prune_entries"] = sum(s.get("entries", 0) for s in by_name["prune_topp"])
    m["delta.apply_calls"] = count("apply_delta")
    m["delta.apply_s"] = total("apply_delta")

    m["merge.assemble_calls"] = count("assemble_final")
    m["merge.assemble_s"] = total("assemble_final")

    evals = by_name["evaluate"]
    oracle = sum(s.get("oracle_s", 0.0) for s in evals)
    serialize_in_eval = sum(
        _dur(c) for s in evals for c in children[s["id"]] if c["name"] == "checkpoint_to_bytes"
    )
    m["evaluation.calls"] = len(evals)
    m["evaluation.hits"] = sum(1 for s in evals if s.get("hit"))
    m["evaluation.hit_ratio"] = m["evaluation.hits"] / len(evals) if evals else 0.0
    m["evaluation.oracle_s"] = oracle
    m["evaluation.evaluate_self_s"] = total("evaluate") - serialize_in_eval - oracle
    m["evaluation.failures"] = sum(1 for s in evals if "error" in s)
    m["evaluation.concurrency"] = _concurrency(spans, evals, oracle)

    m["analysis.profile_s"] = total("conflict_profile")
    m["analysis.shift_calls"] = count("shifted_checkpoint")
    m["analysis.shift_s"] = total("shifted_checkpoint")
    per_layer: dict[int, float] = defaultdict(float)
    for s in by_name["deletion_impact"] + by_name["addition_impact"]:
        if isinstance(s.get("model_layer"), int):
            per_layer[s["model_layer"]] += _dur(s)
    for layer in range(layers):
        m[f"analysis.layer.{layer}_s"] = per_layer.get(layer, 0.0)

    m["resolver.iterate_s"] = total("iterate")
    m["resolver.reprune_s"] = total("reprune_layer")
    for kind in ("drop", "reprune", "keep"):
        m[f"resolver.actions_{kind}"] = sum(s.get(kind, 0) for s in by_name["iterate"])

    stages = stage_spans(spans)
    for stage in STAGES:
        m[f"stage.{stage}_s"] = _union(stages.get(stage, []))

    for layer, secs in self_times(spans, children).items():
        m[f"self.{layer}_s"] = secs

    main = by_name["main"][0]
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    m["trace.startup_s"] = main["start"] - launch
    # What neither start-up nor any stage covers: CLI code outside the
    # pipeline, gaps between stage calls, and interpreter shutdown.
    m["trace.unattributed_s"] = (
        traced_wall - m["trace.startup_s"] - sum(m[f"stage.{s}_s"] for s in STAGES)
    )
    m["trace.unattributed_share"] = m["trace.unattributed_s"] / traced_wall
    m["trace.spans"] = len(spans)
    return m


def _concurrency(spans, evals, oracle: float) -> float:
    """Oracle time over the wall time of the stages the evaluations ran in."""
    by_id = {s["id"]: s for s in spans}
    enclosing = {}
    for s in evals:
        node = s
        while node["parent"] is not None and by_id[node["parent"]]["name"] not in PIPELINES:
            node = by_id[node["parent"]]
        enclosing[node["id"]] = (node["start"], node["end"])
    wall = _union(enclosing.values())
    return oracle / wall if wall > 0 else 0.0


def self_times(spans, children) -> dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        covered = _union((c["start"], c["end"]) for c in children[s["id"]])
        out[s["layer"]] += max(0.0, _dur(s) - covered)
    return out
