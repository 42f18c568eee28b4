"""Command-line surface: delta extraction, merging, conflict analysis, and
the (p, s) hyperparameter sweep.

``RunConfig`` is the option table: each field is a flag on every verb and a
key of the optional JSON config file (``--config``, which flags override);
its type parses the flag and checks config and builtin evaluator spec values.
Exit codes: 0 success, 1 usage/config error, 2 data/compat/I/O error or
out of memory, 3 evaluator error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import fcntl
import json
import os
import sys
import types
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .checkpoint import (
    DEFAULT_LAYER_RULE,
    atomic_open,
    load_checkpoint,
    remove_stale_temps,
    save_checkpoint,
)
from .delta import PruneScaleParams, combine, compute_delta, model_wise_process, save_delta
from .errors import CompatError, ConfigError, EvaluatorError, FormatError, HiMergeError
from .evaluation import (
    BUILTIN_TASKS,
    DEFAULT_TIMEOUT,
    MAX_TIMEOUT,
    EvalCache,
    EvalTask,
    EvaluationBridge,
)
from .merge import MergeWeights, delta_weighted_merge, weighted_average_merge
from .resolver import HiMergeConfig, IterationPolicy, analyze, hi_merge, prepare

DEFAULT_GRID = [round(0.1 * i, 1) for i in range(1, 11)]
LOCK_NAME = ".himerge.lock"
CANDIDATES_NAME = "candidates"  # the --keep-candidates directory in --out
_POLICY = IterationPolicy()  # the resolution-policy defaults


def _opt(default, help: str):
    """A RunConfig field: its default and its ``--help`` text."""
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata={"help": help})
    return field(default=default, metadata={"help": help})


@dataclass
class RunConfig:
    base: str | None = _opt(None, "base (foundation) checkpoint path")
    model_a: str | None = _opt(None, "fine-tuned model A path")
    model_b: str | None = _opt(None, "fine-tuned model B path")
    out: str | None = _opt(None, "output directory")
    p_a: float = _opt(1.0, "pruning threshold (kept fraction) for model A, in [0, 1]")
    s_a: float = _opt(1.0, "scaling factor for model A, in [0, 1]")
    p_b: float = _opt(1.0, "pruning threshold (kept fraction) for model B, in [0, 1]")
    s_b: float = _opt(1.0, "scaling factor for model B, in [0, 1]")
    omega_a: float | None = _opt(None, "merge weight for model A, > 0 (default set by --method)")
    omega_b: float | None = _opt(None, "merge weight for model B, > 0 (default set by --method)")
    layer_rule: str = _opt(DEFAULT_LAYER_RULE, "layer-index regex with one integer capture group")
    eval_a: object = _opt(None, "task A evaluator: command template or JSON spec")
    eval_b: object = _opt(None, "task B evaluator: command template or JSON spec")
    gamma_threshold: float = _opt(
        _POLICY.gamma_threshold, "resolve only layers whose Gamma is above this finite value"
    )
    recompute: bool = _opt(_POLICY.recompute, "re-profile the pending layers after each action")
    max_passes: int = _opt(_POLICY.max_passes, "passes over the profile, >= 1")
    max_halvings: int = _opt(_POLICY.max_halvings, "re-prunes allowed per layer and model, >= 0")
    single_halving: bool = _opt(_POLICY.single_halving, "re-prune every revisit at half (p, s)")
    include_pre_post: bool = _opt(_POLICY.include_pre_post, "also resolve the PRE/POST layers")
    full_matrix: bool = _opt(False, "also score the cross (capability, source) pairs")
    keep_candidates: bool = _opt(False, "keep serialized candidates under <out>/candidates")
    parallel: int = _opt(1, "max concurrent evaluations, >= 1")
    timeout: float = _opt(DEFAULT_TIMEOUT, f"evaluator timeout in seconds, in (0, {MAX_TIMEOUT:.0f}]")
    p_values: list[float] = _opt(DEFAULT_GRID, "sweep grid for p: distinct values in [0, 1]")
    s_values: list[float] = _opt(DEFAULT_GRID, "sweep grid for s: distinct values in [0, 1]")

    def policy(self) -> IterationPolicy:
        names = [f.name for f in fields(IterationPolicy)]
        return IterationPolicy(**{name: getattr(self, name) for name in names})

    def hi_config(self, out: Path | None) -> HiMergeConfig:
        return HiMergeConfig(
            params={
                "A": PruneScaleParams(self.p_a, self.s_a),
                "B": PruneScaleParams(self.p_b, self.s_b),
            },
            tasks={"A": self.task("a"), "B": self.task("b")},
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
    """A command template string, or a JSON/dict evaluator spec whose values
    are typed like config-file values."""
    if isinstance(spec, str):
        text = spec.strip()
        if not text.startswith("{"):
            return EvalTask(task_id, text, timeout=timeout)
        spec = _load_json(text, f"evaluator spec for {task_id}")
    if not isinstance(spec, dict):
        raise ConfigError(f"evaluator spec for {task_id} must be a command or object")
    if "command" in spec:
        hints = {"command": str, "timeout": float}
    else:
        kind = spec.get("builtin")
        if not isinstance(kind, str) or kind not in BUILTIN_TASKS:
            raise ConfigError(f"unknown builtin evaluator {kind!r} for task {task_id}")
        cls = BUILTIN_TASKS[kind]
        annotated = get_type_hints(cls)  # fields() leaves out the ClassVar kind: no spec key
        hints = {"builtin": str, **{f.name: annotated[f.name] for f in fields(cls)}}
    leaves = _flatten(spec, {name: name for name in hints}, f"eval_{task_id.lower()}.")
    values = {name: _typed(value, hints[name], path) for name, path, value in leaves}
    if "command" in values:
        return EvalTask(task_id, values["command"], timeout=values.get("timeout", timeout))
    try:
        builtin = BUILTIN_TASKS[values.pop("builtin")](**values)
    except TypeError as exc:  # a required key is missing
        raise ConfigError(f"bad builtin evaluator spec for {task_id}: {exc}") from exc
    return EvalTask(task_id, builtin, timeout=timeout)


def _load_json(text: str | bytes, what: str):
    """A JSON document the CLI reads, from text or UTF-8 bytes; one that is
    not UTF-8, not JSON, holds an integer too long to convert or is nested
    too deeply to parse is a ConfigError."""
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"{what} is nested too deeply to parse") from None


def load_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        _apply_config_doc(cfg, _load_json(path.read_bytes(), "config file"))
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.parallel < 1:  # before any command creates --out
        raise ConfigError(f"parallel must be >= 1, got {cfg.parallel}")
    for grid_name in ("p_values", "s_values"):
        values = getattr(cfg, grid_name)
        if not values:
            raise ConfigError(f"{grid_name} is empty")
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
    hints = get_type_hints(RunConfig)
    leaves = list(_flatten(doc, {**{name: name for name in hints}, **_GROUPS}, ""))
    # Grouped values first, so that a top-level key overrides its grouped form.
    leaves.sort(key=lambda leaf: "." not in leaf[1])
    for name, path, value in leaves:
        setattr(cfg, name, _typed(value, hints[name], path))


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


def _typed(value, kind, path: str):
    """A JSON value checked against an annotated type: a JSON integer is
    accepted where a float is expected, a JSON array where a list or tuple
    is, and anything where ``object`` is."""
    if kind is object or (value is None and type(None) in get_args(kind)):
        return value
    if isinstance(kind, types.UnionType):  # X | None
        (kind,) = set(get_args(kind)) - {type(None)}
    origin, args = get_origin(kind), get_args(kind)
    if origin in (list, tuple) and isinstance(value, (list, tuple)):
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        if len(args) == len(value):
            return origin(_typed(v, k, f"{path}[{i}]") for i, (v, k) in enumerate(zip(value, args)))
    elif kind is float and type(value) in (int, float):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise ConfigError(f"config key {path!r} is beyond the float range") from None
    elif kind in (int, bool, str) and type(value) is kind:
        return value
    name = str(kind) if origin else kind.__name__
    raise ConfigError(f"config key {path!r} must be {name}, got {value!r}")


@contextlib.contextmanager
def output_dir(cfg: RunConfig):
    """Create the output directory and hold an exclusive ``flock`` on a lock
    file in it for the whole block.  Under the lock, the temp files that a
    killed writer left in it, or in its candidates directory, are removed.

    The kernel releases the lock when the run ends or dies, so a lock file
    that no run holds never blocks.  The lock file is unlinked while still
    held, so a rerun may lock a file that is no longer at the lock path; such
    a lock could not exclude the next run, so it counts as locked.
    """
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lock = out / LOCK_NAME
    with open(lock, "a") as fh:  # not inherited by evaluator processes
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held = os.stat(lock).st_ino == os.fstat(fh.fileno()).st_ino
        except (BlockingIOError, FileNotFoundError):
            held = False
        if not held:
            raise ConfigError(f"output directory {out} is locked by another run")
        try:
            for directory in (out, out / CANDIDATES_NAME):
                if directory.is_dir():
                    remove_stale_temps(directory)
            yield out
        finally:
            with contextlib.suppress(OSError):
                os.unlink(lock)


def make_bridge(cfg: RunConfig, out: Path) -> EvaluationBridge:
    cache_dir = os.environ.get("HIMERGE_CACHE_DIR")
    cache_dir = Path(cache_dir) if cache_dir else out / "cache"
    return EvaluationBridge(
        EvalCache(cache_dir / "eval_cache.jsonl"),
        keep_dir=out / CANDIDATES_NAME if cfg.keep_candidates else None,
        scratch_dir=out,
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
    cfg.require(*(() if method == "soups" else ("base",)), "model_a", "model_b", "out")
    base = None if method == "soups" else cfg.checkpoint("base")
    a = cfg.checkpoint("model_a")
    b = cfg.checkpoint("model_b")
    if method == "hi":
        config = cfg.hi_config(Path(cfg.out))
        with output_dir(cfg) as out:
            bridge = make_bridge(cfg, out)
            hi_merge(base, a, b, config, bridge=bridge)
            _report_stats(bridge)
            print(out / "merged.safetensors")
        return 0

    unset = 0.5 if method == "soups" else 1.0  # the weight of an unset --omega-*
    omega = {"A": cfg.omega_a, "B": cfg.omega_b}
    w = MergeWeights({m: unset if v is None else v for m, v in omega.items()})
    with output_dir(cfg) as out:
        if method == "soups":
            merged = weighted_average_merge({"A": a, "B": b}, w)
        else:
            deltas = [compute_delta(a, base, provenance="A"), compute_delta(b, base, provenance="B")]
            merged = delta_weighted_merge(base, deltas, w)
        save_checkpoint(merged, out / "merged.safetensors")
        print(out / "merged.safetensors")
    return 0


def cmd_analyze(cfg: RunConfig) -> int:
    cfg.require("base", "model_a", "model_b", "out")
    base = cfg.checkpoint("base")
    a = cfg.checkpoint("model_a")
    b = cfg.checkpoint("model_b")
    config = cfg.hi_config(None)  # no out_dir: the deltas stay in memory
    with output_dir(cfg) as out:
        bridge = make_bridge(cfg, out)
        profile = analyze(prepare(base, a, b, config, bridge), config)
        path = profile.write(out)
        _report_stats(bridge)
        print(path)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    cfg.require("base", "model_a", "out")
    base = cfg.checkpoint("base")
    model = cfg.checkpoint("model_a")
    task = cfg.task("a")
    with output_dir(cfg) as out:
        bridge = make_bridge(cfg, out)
        delta = compute_delta(model, base, provenance="A")

        def candidates():
            # The kept set depends on p alone: prune once per p, then scale
            # per cell inside combine, one tensor at a time.  A generator,
            # so bridge.map builds each candidate on this thread and keeps
            # at most ``parallel`` of them alive.  The last p's Top_p is
            # dropped before the next p is pruned.
            for p in cfg.p_values:
                top_p = model_wise_process(delta, PruneScaleParams(p, 1.0))
                for s in cfg.s_values:
                    factor = np.float32(s)
                    yield p, s, combine(base, [lambda name: top_p.array(name) * factor])
                del top_p

        def score(cell):
            p, s, candidate = cell
            try:
                return (p, s, repr(bridge.evaluate(candidate, task).value), "")
            except EvaluatorError as exc:
                return (p, s, "", str(exc))

        rows = bridge.map(score, candidates())
        sweep_path = out / "sweep.csv"
        with atomic_open(sweep_path, newline="") as fh:
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


# Option type -> how its flag's text is parsed; bools are switches, and
# the remaining types take the text itself.
_FLAG_TYPES = {float: float, float | None: float, int: int, list[float]: _float_list}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    hints = get_type_hints(RunConfig)
    for f in fields(RunConfig):
        if hints[f.name] is bool:
            parse = {"action": "store_const", "const": True}
        else:
            parse = {"type": _FLAG_TYPES.get(hints[f.name], str)}
        sub.add_argument("--" + f.name.replace("_", "-"), help=f.metadata["help"], **parse)


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
                "--method", choices=("soups", "arithmetic", "hi"), default="hi", help="merge method"
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
        return cmd_sweep(cfg)  # the parser accepts no other command
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
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
