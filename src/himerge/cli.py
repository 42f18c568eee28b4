"""Command-line surface: delta extraction, merging, conflict analysis, and
the (p, s) hyperparameter sweep.

Configuration comes from an optional JSON file (``--config``) with flag
overrides; every flag has a config-file equivalent.  Exit codes: 0 success,
1 usage/config error, 2 data/compat/I/O error, 3 evaluator error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .analysis import conflict_profile
from .checkpoint import DEFAULT_LAYER_RULE, load_checkpoint, save_checkpoint
from .delta import (
    PruneScaleParams,
    compute_delta,
    model_wise_process,
    apply_delta,
    save_delta,
)
from .errors import CompatError, ConfigError, EvaluatorError, FormatError, HiMergeError
from .evaluation import (
    ConstantTask,
    EvalCache,
    EvalTask,
    EvaluationBridge,
    SyntheticCompositeTask,
    SyntheticLinearTask,
    DEFAULT_TIMEOUT,
)
from .merge import MergeWeights, delta_weighted_merge, weighted_average_merge
from .resolver import HiMergeConfig, IterationPolicy, hi_merge, prepare

DEFAULT_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
LOCK_NAME = ".himerge.lock"


@dataclass
class RunConfig:
    base: str | None = None
    model_a: str | None = None
    model_b: str | None = None
    out: str | None = None
    p_a: float = 1.0
    s_a: float = 1.0
    p_b: float = 1.0
    s_b: float = 1.0
    omega_a: float | None = None
    omega_b: float | None = None
    layer_rule: str = DEFAULT_LAYER_RULE
    eval_a: object = None
    eval_b: object = None
    gamma_threshold: float = 0.0
    recompute: bool = False
    max_passes: int = 1
    max_halvings: int = 3
    single_halving: bool = False
    include_pre_post: bool = False
    full_matrix: bool = False
    keep_candidates: bool = False
    parallel: int = 1
    timeout: float = DEFAULT_TIMEOUT
    p_values: list[float] = field(default_factory=lambda: list(DEFAULT_GRID))
    s_values: list[float] = field(default_factory=lambda: list(DEFAULT_GRID))

    def policy(self) -> IterationPolicy:
        names = [f.name for f in fields(IterationPolicy)]
        return IterationPolicy(**{name: getattr(self, name) for name in names})

    def hi_config(self, out: Path) -> HiMergeConfig:
        return HiMergeConfig(
            params_a=PruneScaleParams(self.p_a, self.s_a),
            params_b=PruneScaleParams(self.p_b, self.s_b),
            task_a=self.task("a"),
            task_b=self.task("b"),
            layer_rule=self.layer_rule,
            policy=self.policy(),
            full_matrix=self.full_matrix,
            out_dir=out,
        )

    def require(self, *names: str) -> None:
        missing = [n.replace("_", "-") for n in names if getattr(self, n) in (None, "")]
        if missing:
            raise ConfigError(f"missing required option(s): --{', --'.join(missing)}")
        paths = [
            getattr(self, n)
            for n in ("base", "model_a", "model_b", "out")
            if getattr(self, n)
        ]
        if len(set(paths)) != len(paths):
            raise ConfigError("base, model paths, and output path must be distinct")

    def checkpoint(self, name: str):
        path = Path(getattr(self, name))
        if not path.exists():
            raise ConfigError(f"--{name.replace('_', '-')} path does not exist: {path}")
        return load_checkpoint(path)

    def task(self, which: str) -> EvalTask:
        spec = getattr(self, f"eval_{which}")
        if spec in (None, ""):
            raise ConfigError(f"missing evaluator for task {which.upper()} (--eval-{which})")
        return parse_eval_spec(spec, task_id=which.upper(), timeout=self.timeout)


def parse_eval_spec(spec, task_id: str, timeout: float) -> EvalTask:
    """A command template string, or a JSON/dict builtin evaluator spec."""
    if isinstance(spec, str):
        text = spec.strip()
        if not text.startswith("{"):
            return EvalTask(task_id, text, timeout=timeout)
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"evaluator spec for {task_id} is not valid JSON: {exc}")
    if not isinstance(spec, dict):
        raise ConfigError(f"evaluator spec for {task_id} must be a command or object")
    if "command" in spec:
        return EvalTask(task_id, str(spec["command"]), timeout=float(spec.get("timeout", timeout)))
    kind = spec.get("builtin")
    try:
        if kind == "synthetic_linear":
            builtin = SyntheticLinearTask(
                seed=int(spec["seed"]),
                dim=int(spec["dim"]),
                n_eval=int(spec["n_eval"]),
                target=str(spec["target"]),
            )
        elif kind == "synthetic_composite":
            builtin = SyntheticCompositeTask(
                probe_seed=int(spec["probe_seed"]),
                n_eval=int(spec["n_eval"]),
                targets=tuple((str(n), int(s)) for n, s in spec["targets"]),
            )
        elif kind == "constant":
            builtin = ConstantTask(value=float(spec.get("value", 0.5)))
        else:
            raise ConfigError(f"unknown builtin evaluator {kind!r} for task {task_id}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad builtin evaluator spec for {task_id}: {exc}") from exc
    return EvalTask(task_id, builtin, timeout=timeout)


def load_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        _apply_config_doc(cfg, doc)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    for grid_name in ("p_values", "s_values"):
        values = getattr(cfg, grid_name)
        if len(set(values)) != len(values):
            raise ConfigError(f"{grid_name} contains duplicates: {values}")
        if any(not (0.0 <= v <= 1.0) for v in values):
            raise ConfigError(f"{grid_name} values must lie in [0, 1]: {values}")
    return cfg


# Config-file groups: key -> RunConfig field, or a nested group.  Every
# RunConfig field name is also a top-level key.
_GROUPS = {
    "prune_scale": {m: {"p": f"p_{m}", "s": f"s_{m}"} for m in ("a", "b")},
    "weights": {m: f"omega_{m}" for m in ("a", "b")},
    "eval": {m: f"eval_{m}" for m in ("a", "b")},
    "policy": {f.name: f.name for f in fields(IterationPolicy)},
    "sweep": {"p_values": "p_values", "s_values": "s_values"},
}


def _apply_config_doc(cfg: RunConfig, doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ConfigError("config file must contain a JSON object")
    types = {f.name: f.type for f in fields(RunConfig)}
    leaves = list(_flatten(doc, {**{name: name for name in types}, **_GROUPS}, ""))
    # Grouped values first, so that a top-level key overrides its grouped form.
    leaves.sort(key=lambda leaf: "." not in leaf[1])
    for name, path, value in leaves:
        setattr(cfg, name, _typed(value, types[name], path))


def _flatten(doc: dict, table: dict, prefix: str):
    """(field, dotted path, value) for each leaf of a config-file object."""
    for key, value in doc.items():
        path = prefix + key
        target = table.get(key)
        if target is None:
            raise ConfigError(f"unknown config key {path!r}")
        if not isinstance(target, dict):
            yield target, path, value
        elif isinstance(value, dict):
            yield from _flatten(value, target, path + ".")
        else:
            raise ConfigError(f"config key {path!r} must be an object")


def _typed(value, kind: str, path: str):
    """A config-file value checked against its RunConfig field's type;
    a JSON integer is accepted where a float is expected."""
    if kind == "object" or (value is None and kind.endswith(" | None")):
        return value
    kind = kind.removesuffix(" | None")
    if kind == "list[float]" and isinstance(value, list):
        return [_typed(v, "float", f"{path}[{i}]") for i, v in enumerate(value)]
    if kind == "float" and type(value) in (int, float):
        return float(value)
    if kind in ("int", "bool", "str") and type(value).__name__ == kind:
        return value
    raise ConfigError(f"config key {path!r} must be {kind}, got {value!r}")


@contextlib.contextmanager
def output_dir(cfg: RunConfig):
    """Create the output directory and hold an exclusive lock file in it."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / LOCK_NAME
    try:
        fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"output directory {out} is locked by another run (remove {lock} if stale)"
        )
    os.close(fd)
    try:
        yield out
    finally:
        with contextlib.suppress(OSError):
            os.unlink(lock)


def make_bridge(cfg: RunConfig, out: Path) -> EvaluationBridge:
    cache_dir = os.environ.get("HIMERGE_CACHE_DIR")
    cache_dir = Path(cache_dir) if cache_dir else out / "cache"
    scratch = out / "candidates" if cfg.keep_candidates else None
    return EvaluationBridge(
        EvalCache(cache_dir / "eval_cache.jsonl"),
        scratch_dir=scratch,
        keep_candidates=cfg.keep_candidates,
        parallel=cfg.parallel,
    )


def _report_stats(bridge: EvaluationBridge) -> None:
    print(
        f"evaluator invocations: {bridge.invocations} "
        f"(cache hits: {bridge.cache_hits}, "
        f"distinct checkpoints: {bridge.distinct_checkpoints})",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_delta(cfg: RunConfig) -> int:
    cfg.require("base", "model_a", "out")
    base = cfg.checkpoint("base")
    model = cfg.checkpoint("model_a")
    with output_dir(cfg) as out:
        delta = compute_delta(model, base, provenance=str(cfg.model_a))
        save_delta(delta, out / "delta.safetensors")
        print(out / "delta.safetensors")
    return 0


def cmd_merge(cfg: RunConfig, method: str) -> int:
    if method == "soups":
        cfg.require("model_a", "model_b", "out")
        a = cfg.checkpoint("model_a")
        b = cfg.checkpoint("model_b")
        w = MergeWeights(
            {
                "A": cfg.omega_a if cfg.omega_a is not None else 0.5,
                "B": cfg.omega_b if cfg.omega_b is not None else 0.5,
            }
        )
        with output_dir(cfg) as out:
            merged = weighted_average_merge({"A": a, "B": b}, w)
            save_checkpoint(merged, out / "merged.safetensors")
            print(out / "merged.safetensors")
        return 0

    if method == "arithmetic":
        cfg.require("base", "model_a", "model_b", "out")
        base = cfg.checkpoint("base")
        a = cfg.checkpoint("model_a")
        b = cfg.checkpoint("model_b")
        w = MergeWeights(
            {
                "A": cfg.omega_a if cfg.omega_a is not None else 1.0,
                "B": cfg.omega_b if cfg.omega_b is not None else 1.0,
            }
        )
        with output_dir(cfg) as out:
            delta_a = compute_delta(a, base, provenance="A")
            delta_b = compute_delta(b, base, provenance="B")
            merged = delta_weighted_merge(base, [delta_a, delta_b], w)
            save_checkpoint(merged, out / "merged.safetensors")
            print(out / "merged.safetensors")
        return 0

    if method == "hi":
        cfg.require("base", "model_a", "model_b", "out")
        base = cfg.checkpoint("base")
        a = cfg.checkpoint("model_a")
        b = cfg.checkpoint("model_b")
        with output_dir(cfg) as out:
            bridge = make_bridge(cfg, out)
            hi_merge(base, a, b, cfg.hi_config(out), bridge=bridge)
            _report_stats(bridge)
            print(out / "merged.safetensors")
        return 0

    raise ConfigError(f"unknown merge method {method!r}")


def cmd_analyze(cfg: RunConfig) -> int:
    cfg.require("base", "model_a", "model_b", "out")
    base = cfg.checkpoint("base")
    a = cfg.checkpoint("model_a")
    b = cfg.checkpoint("model_b")
    with output_dir(cfg) as out:
        bridge = make_bridge(cfg, out)
        config = cfg.hi_config(out)
        ctx, layers = prepare(base, a, b, config, bridge)
        profile = conflict_profile(ctx, layers=layers, full_matrix=config.full_matrix)
        profile.write_json(out / "profile.json")
        profile.write_csv(out / "profile.csv")
        _report_stats(bridge)
        print(out / "profile.json")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.require("base", "model_a", "out")
    base = cfg.checkpoint("base")
    model = cfg.checkpoint("model_a")
    task = cfg.task("a")
    with output_dir(cfg) as out:
        bridge = make_bridge(cfg, out)
        delta = compute_delta(model, base, provenance="A")
        cells = [(p, s) for p in cfg.p_values for s in cfg.s_values]

        def run_cell(cell):
            p, s = cell
            processed = model_wise_process(delta, PruneScaleParams(p, s))
            candidate = apply_delta(base, [processed])
            try:
                return (p, s, repr(bridge.evaluate(candidate, task).value), "")
            except EvaluatorError as exc:
                return (p, s, "", str(exc))

        rows = bridge.map(run_cell, cells)
        sweep_path = out / "sweep.csv"
        with open(sweep_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p", "s", "score", "error"])
            for row in rows:
                writer.writerow(row)
        _report_stats(bridge)
        print(sweep_path)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--base", help="base (foundation) checkpoint path")
    sub.add_argument("--model-a", dest="model_a", help="fine-tuned model A path")
    sub.add_argument("--model-b", dest="model_b", help="fine-tuned model B path")
    sub.add_argument("--out", help="output directory")
    sub.add_argument("--p-a", dest="p_a", type=float, help="pruning threshold for model A")
    sub.add_argument("--s-a", dest="s_a", type=float, help="scaling factor for model A")
    sub.add_argument("--p-b", dest="p_b", type=float, help="pruning threshold for model B")
    sub.add_argument("--s-b", dest="s_b", type=float, help="scaling factor for model B")
    sub.add_argument("--omega-a", dest="omega_a", type=float, help="merge weight for model A")
    sub.add_argument("--omega-b", dest="omega_b", type=float, help="merge weight for model B")
    sub.add_argument("--layer-rule", dest="layer_rule", help="layer-index extraction regex")
    sub.add_argument(
        "--eval-a", dest="eval_a", help="task A evaluator: command template or JSON spec"
    )
    sub.add_argument(
        "--eval-b", dest="eval_b", help="task B evaluator: command template or JSON spec"
    )
    sub.add_argument("--gamma-threshold", dest="gamma_threshold", type=float)
    sub.add_argument("--recompute", action="store_const", const=True, default=None)
    sub.add_argument("--max-passes", dest="max_passes", type=int)
    sub.add_argument("--max-halvings", dest="max_halvings", type=int)
    sub.add_argument("--single-halving", dest="single_halving", action="store_const", const=True, default=None)
    sub.add_argument("--include-pre-post", dest="include_pre_post", action="store_const", const=True, default=None)
    sub.add_argument("--full-matrix", dest="full_matrix", action="store_const", const=True, default=None)
    sub.add_argument("--keep-candidates", dest="keep_candidates", action="store_const", const=True, default=None)
    sub.add_argument("--parallel", type=int, help="max concurrent evaluator processes")
    sub.add_argument("--timeout", type=float, help="evaluator timeout in seconds")
    sub.add_argument("--p-values", dest="p_values", type=_float_list, help="sweep grid for p")
    sub.add_argument("--s-values", dest="s_values", type=_float_list, help="sweep grid for s")


def build_parser() -> _Parser:
    parser = _Parser(prog="himerge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("delta", "compute and save a delta vector"),
        ("merge", "merge two checkpoints"),
        ("analyze", "compute the layer conflict profile only"),
        ("sweep", "evaluate the (p, s) grid for one model"),
    ):
        sub = subs.add_parser(name, help=help_text)
        _add_common(sub)
        if name == "merge":
            sub.add_argument(
                "--method", choices=("soups", "arithmetic", "hi"), default="hi"
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = load_run_config(args)
        if args.command == "delta":
            return cmd_delta(cfg)
        if args.command == "merge":
            return cmd_merge(cfg, args.method)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (FormatError, CompatError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except EvaluatorError as exc:
        print(f"evaluator error: {exc}", file=sys.stderr)
        return 3
    except (HiMergeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
