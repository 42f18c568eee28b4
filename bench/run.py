"""The himerge benchmark: one workload, one seed, one result line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload hi-engine --seed 1 --seconds 10 --trace 0

Workloads (the metric names and bounds are in BENCHMARK.json):

* ``hi-engine``: ``merge --method hi`` with builtin ``synthetic_composite``
  evaluators on 16 layers of 4 bf16 256x256 matrices (4.3M parameters).
  The oracle is nearly free, so the run measures engine overhead:
  serializing and hashing every candidate, Top_p pruning, pre-merge and
  assembly.
* ``hi-oracle``: ``merge --method hi --parallel 2`` on 4 layers of 256x256
  matrices whose evaluators are ``oracle_eval.py``, an external command
  that sleeps a fixed interval per call.  The oracle dominates, as with a
  real model evaluation.
* ``sweep-grid``: ``sweep`` over the default 10x10 (p, s) grid on 8 layers
  of 128x128 matrices: 100 global prunes, 100 candidates, no cache hits,
  and no conflict analysis or resolution.

A run generates the inputs from the seed, then repeats the CLI run, each
time as a fresh child process with a fresh ``--out`` and
``HIMERGE_CACHE_DIR`` unset, for ``--seconds`` seconds: a repetition starts
only if one more (run, check and set-up sample) is expected to end in
time, and at least two repetitions run.  Set-up is timed SETUPS times,
each in a fresh process, a few after each repetition: on a shared machine
its time varies more from moment to moment than within one moment.  Every
repetition is checked (see checks.py) and must give the same output
digests and counts.
The end-to-end metrics are medians over the repetitions; CPU time and peak
RSS come from the child's rusage and include its evaluator subprocesses.

With ``--trace 1`` one more repetition runs under ``trace_cli.py`` and the
per-layer metrics (layer_metrics.py) are reported instead, with the tracing
overhead against the untraced median.  If that repetition fails, no
per-layer metric is reported.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Details (machine, sizes, every sample, digests) go to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread per process: the engine's heavy work is single-threaded,
# the only BLAS calls are small probe products in the evaluators, and
# threaded BLAS spin-waits would inflate cpu_s and oversubscribe the cores
# when two evaluators run at once.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import numpy as np  # noqa: E402  (after the thread caps)

import checks  # noqa: E402
import gen  # noqa: E402
import layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

HI_P = 0.5
HI_S = 0.5
GRID = [round(0.1 * i, 1) for i in range(1, 11)]  # the CLI's default sweep grid
SWEEP_SPOT = [(0.1, 0.1), (0.5, 0.3), (1.0, 1.0)]
ORACLE_SLEEP_S = 0.05
SETUPS = 7
SETUPS_PER_REP = 2
MIN_REPS = 2
CHILD_TIMEOUT_S = 150.0

WORKLOADS = {
    "hi-engine": {"verb": "hi", "shape": gen.Shape(16, 256), "oracle": "builtin", "parallel": 1},
    "hi-oracle": {"verb": "hi", "shape": gen.Shape(4, 256), "oracle": "external", "parallel": 2},
    "sweep-grid": {"verb": "sweep", "shape": gen.Shape(8, 128), "oracle": "builtin", "parallel": 1},
}

STATS_RE = re.compile(r"evaluator invocations: (\d+) \(cache hits: (\d+)")


def write_evaluators(plan: gen.Plan, oracle: str, inputs: Path) -> dict[str, str]:
    """The --eval-a / --eval-b values: builtin JSON specs or external commands."""
    evals = {}
    for task in ("A", "B"):
        spec = plan.builtin_spec(task)
        if oracle == "builtin":
            evals[task] = json.dumps(spec)
            continue
        spec_path = inputs / f"task_{task.lower()}.json"
        spec_path.write_text(json.dumps({**spec, "sleep_s": ORACLE_SLEEP_S}))
        script = BENCH / "oracle_eval.py"
        evals[task] = " ".join(shlex.quote(str(x)) for x in (sys.executable, script, spec_path))
        evals[task] += " {checkpoint}"
    return evals


def generate(wl: dict, seed: int, out_dir: Path) -> tuple[float, dict]:
    """Write the inputs in a fresh process; return the seconds it reports
    and the digests of the files."""
    shape = wl["shape"]
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "gen.py"), str(seed), str(shape.layers), str(shape.dim), str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    digests = {k: checks.sha256(Path(v)) for k, v in gen.input_paths(out_dir).items()}
    return json.loads(proc.stdout)["seconds"], digests


def time_setup_again(wl: dict, seed: int, digests: dict, setup_times: list[float]) -> None:
    """One more set-up sample; the generator must reproduce the inputs byte for byte."""
    seconds, again = generate(wl, seed, WORK / "regen")
    if again != digests:
        raise checks.CheckFailed("the input generator is not deterministic")
    setup_times.append(seconds)


def cli_args(wl: dict, paths: dict, evals: dict, out: Path) -> list[str]:
    if wl["verb"] == "sweep":
        return ["sweep", "--base", paths["base"], "--model-a", paths["model_a"],
                "--eval-a", evals["A"], "--out", str(out)]
    return [
        "merge", "--method", "hi", "--base", paths["base"],
        "--model-a", paths["model_a"], "--model-b", paths["model_b"],
        "--p-a", str(HI_P), "--s-a", str(HI_S), "--p-b", str(HI_P), "--s-b", str(HI_S),
        "--eval-a", evals["A"], "--eval-b", evals["B"],
        "--parallel", str(wl["parallel"]), "--out", str(out),
    ]


def run_child(cmd: list[str], log_path: Path) -> dict:
    """Run one child process; wall time from launch to reap, rusage from wait4."""
    env = {k: v for k, v in os.environ.items() if k != "HIMERGE_CACHE_DIR"}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")  # candidate files for external evaluators
    with open(log_path, "w") as log:
        launch = time.monotonic()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            start_new_session=True,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - launch
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return {
        "code": proc.returncode,
        "launch": launch,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "log": log_path.read_text(errors="replace"),
    }


def run_rep(wl: dict, plan: gen.Plan, paths: dict, evals: dict, index: int, spans=None) -> dict:
    """One timed CLI run plus its output check."""
    out = WORK / f"out{index}"
    shutil.rmtree(out, ignore_errors=True)
    args = cli_args(wl, paths, evals, out)
    if spans is None:
        cmd = [sys.executable, "-m", "himerge.cli", *args]
    else:
        cmd = [sys.executable, str(BENCH / "trace_cli.py"), str(spans), *args]
    rep = run_child(cmd, WORK / f"out{index}.log")
    rep["attempted"] = 1 + (len(GRID) ** 2 if wl["verb"] == "sweep" else 0)
    rep["failed"] = 0
    try:
        if rep["code"] != 0:
            raise checks.CheckFailed(f"exit code {rep['code']}: {rep['log'][-500:]}")
        stats = STATS_RE.search(rep["log"])
        if stats is None:
            raise checks.CheckFailed("no evaluator invocation line on stderr")
        rep["evaluator_calls"] = int(stats.group(1))
        facts = {"evaluator_calls": int(stats.group(1)), "cache_hits": int(stats.group(2))}
        if wl["verb"] == "sweep":
            more, rep["failed"] = checks.check_sweep(
                out, paths, plan.builtin_spec("A"), GRID, SWEEP_SPOT
            )
        else:
            more = checks.check_hi(out, paths, {"a": HI_P, "b": HI_P})
        facts.update(more)
        rep["facts"] = facts
    except checks.CheckFailed as exc:
        rep["error"] = str(exc)
        rep["failed"] += 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    del rep["log"]
    return rep


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "himerge" / "cli.py").is_file():
        print(f"error: no himerge sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)
    wl = WORKLOADS[args.workload]

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    try:
        seconds, digests = generate(wl, args.seed, WORK / "inputs")
        setup_times = [seconds]
        paths = gen.input_paths(WORK / "inputs")
        plan = gen.make_plan(wl["shape"], args.seed)
        evals = write_evaluators(plan, wl["oracle"], WORK / "inputs")
        reps: list[dict] = []
        costs: list[float] = []
        deadline = time.monotonic() + args.seconds
        while len(reps) < MIN_REPS or time.monotonic() + statistics.median(costs) <= deadline:
            began = time.monotonic()
            reps.append(run_rep(wl, plan, paths, evals, len(reps)))
            for _ in range(min(SETUPS_PER_REP, SETUPS - len(setup_times))):
                time_setup_again(wl, args.seed, digests, setup_times)
            costs.append(time.monotonic() - began)
        while len(setup_times) < SETUPS:
            time_setup_again(wl, args.seed, digests, setup_times)
        traced, spans = None, None
        if args.trace:
            spans_path = WORK / "spans.json"
            traced = run_rep(wl, plan, paths, evals, len(reps), spans=spans_path)
            if spans_path.exists():
                spans = json.loads(spans_path.read_text())
        all_reps = reps + ([traced] if traced else [])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    reference = next((r["facts"] for r in all_reps if "facts" in r), None)
    for r in all_reps:
        if "facts" in r and r["facts"] != reference:
            r["error"] = "outputs or counts differ from the first checked repetition"
            r["failed"] += 1
    errors = [r["error"] for r in all_reps if "error" in r]
    attempted = sum(r["attempted"] for r in all_reps)
    failed = sum(r["failed"] for r in all_reps)

    measured = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "evaluator_calls": statistics.median(r.get("evaluator_calls", 0) for r in reps),
        "setup_s": statistics.median(setup_times),
        "failed_ratio": failed / attempted,
    }
    traced_ok = spans is not None and "error" not in traced
    if traced_ok:
        measured.update(layer_metrics.derive(
            spans, wl["shape"].layers, traced["wall_s"], measured["wall_s"], traced["launch"]
        ))
    elif args.trace:
        errors.append("the traced run failed or wrote no spans")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    if traced_ok or not args.trace:
        missing = [m["name"] for m in declared[kind] if m["name"] not in measured]
        if missing:
            raise SystemExit(f"error: metrics declared but not measured: {missing}")
        metrics = {
            m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
            for m in declared[kind]
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "shape": vars(wl["shape"]) | {"num_params": wl["shape"].num_params},
        "roles": plan.roles,
        "machine": machine(),
        "setup_s": setup_times,
        "reps": reps,
        "traced": traced,
        "spans": spans,
        "errors": errors,
        "measured": measured,
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, default=str)
    )
    for err in errors:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
