"""Performance oracle bridge: external evaluator processes and builtin
synthetic evaluators, with content-addressed caching.

External protocol: the evaluator is a command template containing a
``{checkpoint}`` placeholder.  The candidate is serialized to a scratch
path, the command is invoked once, and it must print exactly one JSON
object ``{"score": <number>}`` to stdout and exit 0.  Results are cached
by (checkpoint fingerprint, task id) in a JSON-lines file so reruns and
restarts skip completed evaluations.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import shlex
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, checkpoint_to_bytes
from .errors import ConfigError, EvaluatorError, FormatError

DEFAULT_TIMEOUT = 600.0


# ---------------------------------------------------------------------------
# Builtin synthetic evaluators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticLinearTask:
    """Sign-agreement accuracy of one tensor against a seeded hidden optimum."""

    seed: int
    dim: int
    n_eval: int
    target: str


@dataclass(frozen=True)
class SyntheticCompositeTask:
    """Sign-agreement accuracy over a concatenation of tensors.

    Each target is a (tensor name, optimum seed) pair; the per-tensor
    optimum is drawn exactly like SyntheticLinearTask's, so sharing a seed
    shares the optimum.  Probes are drawn over the concatenated dimension
    from ``probe_seed``.
    """

    probe_seed: int
    n_eval: int
    targets: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ConstantTask:
    """Always returns the same score; useful as a degenerate oracle."""

    value: float = 0.5


def hidden_optimum(seed: int, dim: int) -> np.ndarray:
    """The seeded hidden optimum; the first draw from the task's stream."""
    return np.random.default_rng(seed).standard_normal(dim)


@functools.lru_cache(maxsize=8)
def _linear_fixture(seed: int, dim: int, n_eval: int):
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(dim)
    probes = rng.standard_normal((n_eval, dim))
    return w_star, probes


@functools.lru_cache(maxsize=8)
def _composite_fixture(task: SyntheticCompositeTask, dims: tuple[int, ...]):
    w_star = np.concatenate(
        [hidden_optimum(seed, d) for (_, seed), d in zip(task.targets, dims)]
    )
    probes = np.random.default_rng(task.probe_seed).standard_normal(
        (task.n_eval, w_star.size)
    )
    return w_star, probes


def _sign_agreement(w: np.ndarray, w_star: np.ndarray, probes: np.ndarray) -> float:
    return float(np.mean(np.sign(probes @ w) == np.sign(probes @ w_star)))


def synthetic_linear_eval(cp: Checkpoint, task: SyntheticLinearTask) -> float:
    """Mean agreement of sign(<w, x>) with sign(<w*, x>) over seeded probes."""
    if task.target not in cp:
        raise EvaluatorError(f"synthetic task target tensor {task.target!r} not found")
    rec = cp.record(task.target)
    if len(rec.shape) != 1 or rec.shape[0] != task.dim:
        raise EvaluatorError(
            f"synthetic task target {task.target!r} must be 1-D of length "
            f"{task.dim}, got shape {rec.shape}"
        )
    w_star, probes = _linear_fixture(task.seed, task.dim, task.n_eval)
    return _sign_agreement(rec.as_f32().astype(np.float64), w_star, probes)


def synthetic_composite_eval(cp: Checkpoint, task: SyntheticCompositeTask) -> float:
    parts = []
    dims = []
    for name, _ in task.targets:
        if name not in cp:
            raise EvaluatorError(f"synthetic task target tensor {name!r} not found")
        arr = cp.as_f32(name).reshape(-1).astype(np.float64)
        parts.append(arr)
        dims.append(arr.size)
    w_star, probes = _composite_fixture(task, tuple(dims))
    return _sign_agreement(np.concatenate(parts), w_star, probes)


BUILTIN_TASKS = (SyntheticLinearTask, SyntheticCompositeTask, ConstantTask)


def run_builtin(cp: Checkpoint, spec) -> float:
    if isinstance(spec, SyntheticLinearTask):
        return synthetic_linear_eval(cp, spec)
    if isinstance(spec, SyntheticCompositeTask):
        return synthetic_composite_eval(cp, spec)
    if isinstance(spec, ConstantTask):
        return float(spec.value)
    raise ConfigError(f"unknown builtin evaluator spec {spec!r}")


# ---------------------------------------------------------------------------
# Task and result
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvalTask:
    """One scoring oracle: a command template or a builtin spec."""

    task_id: str
    evaluator: object  # str command template, or a builtin task dataclass
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if isinstance(self.evaluator, str):
            if "{checkpoint}" not in self.evaluator:
                raise ConfigError(
                    f"evaluator command for task {self.task_id!r} has no "
                    "{checkpoint} placeholder"
                )
        elif not isinstance(self.evaluator, BUILTIN_TASKS):
            raise ConfigError(f"unsupported evaluator {self.evaluator!r}")


@dataclass(frozen=True)
class EvalResult:
    value: float
    checkpoint_fingerprint: str
    task_id: str
    wall_time: float


# ---------------------------------------------------------------------------
# Cache and bridge
# ---------------------------------------------------------------------------


class EvalCache:
    """(fingerprint, task_id) -> score map backed by an append-only JSONL file."""

    def __init__(self, path=None):
        self.path = Path(path) if path else None
        self._scores: dict[tuple[str, str], float] = {}
        self._lock = threading.Lock()
        if self.path and self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read the entries; a torn final line (a write cut short by a
        crash) is truncated away, corruption anywhere else is an error."""
        data = self.path.read_bytes()
        lines = data.split(b"\n")
        offset = 0
        for number, line in enumerate(lines, start=1):
            try:
                if line.strip():
                    entry = json.loads(line)
                    key = (entry["fingerprint"], entry["task_id"])
                    self._scores[key] = float(entry["score"])
            except (ValueError, KeyError, TypeError) as exc:
                if number < len(lines):
                    raise FormatError(
                        f"{self.path}: corrupt cache entry on line {number}: {exc}"
                    ) from exc
                with open(self.path, "r+b") as fh:
                    fh.truncate(offset)
                return
            offset += len(line) + 1
        if lines[-1]:
            # A complete entry that lost only its newline.
            with open(self.path, "ab") as fh:
                fh.write(b"\n")

    def get(self, fp: str, task_id: str):
        with self._lock:
            return self._scores.get((fp, task_id))

    def put(self, fp: str, task_id: str, score: float) -> None:
        line = json.dumps({"fingerprint": fp, "task_id": task_id, "score": score})
        with self._lock:
            self._scores[(fp, task_id)] = score
            if self.path:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a") as fh:
                    fh.write(line + "\n")

    def __len__(self) -> int:
        return len(self._scores)


class EvaluationBridge:
    """Evaluates checkpoints against tasks with caching and call accounting."""

    def __init__(
        self,
        cache: EvalCache | None = None,
        *,
        scratch_dir=None,
        keep_candidates: bool = False,
        parallel: int = 1,
    ):
        self.cache = cache if cache is not None else EvalCache()
        self.scratch_dir = Path(scratch_dir) if scratch_dir else None
        self.keep_candidates = keep_candidates
        self.parallel = max(1, int(parallel))
        self.invocations = 0
        self.cache_hits = 0
        self.evaluated_fingerprints: set[str] = set()
        self._stats_lock = threading.Lock()

    @property
    def distinct_checkpoints(self) -> int:
        """Distinct candidate checkpoints actually sent to an evaluator."""
        return len(self.evaluated_fingerprints)

    def evaluate(self, cp: Checkpoint, task: EvalTask) -> EvalResult:
        blob = checkpoint_to_bytes(cp)
        fp = hashlib.sha256(blob).hexdigest()
        cached = self.cache.get(fp, task.task_id)
        if cached is not None:
            with self._stats_lock:
                self.cache_hits += 1
            return EvalResult(cached, fp, task.task_id, 0.0)

        start = time.monotonic()
        if isinstance(task.evaluator, str):
            score = self._run_external(blob, fp, task)
        else:
            score = run_builtin(cp, task.evaluator)
        if not math.isfinite(score):
            raise EvaluatorError(
                f"task {task.task_id!r} returned non-finite score {score!r}"
            )
        elapsed = time.monotonic() - start
        with self._stats_lock:
            self.invocations += 1
            self.evaluated_fingerprints.add(fp)
        self.cache.put(fp, task.task_id, float(score))
        return EvalResult(float(score), fp, task.task_id, elapsed)

    def map(self, fn, items) -> list:
        """[fn(item) for item in items] on up to ``parallel`` threads, in order."""
        items = list(items)
        if self.parallel == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=self.parallel) as pool:
            return list(pool.map(fn, items))

    def evaluate_many(self, jobs: list[tuple[Checkpoint, EvalTask]]) -> list[EvalResult]:
        """Evaluate several (checkpoint, task) pairs, preserving order."""
        return self.map(lambda job: self.evaluate(*job), jobs)

    # -- external protocol ---------------------------------------------------

    def _run_external(self, blob: bytes, fp: str, task: EvalTask) -> float:
        if self.scratch_dir:
            self.scratch_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=f"cand-{fp[:12]}-", suffix=".safetensors", dir=self.scratch_dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(blob)
            argv = [
                token.replace("{checkpoint}", tmp_path)
                for token in shlex.split(task.evaluator)
            ]
            try:
                proc = subprocess.run(
                    argv, capture_output=True, text=True, timeout=task.timeout
                )
            except subprocess.TimeoutExpired as exc:
                raise EvaluatorError(
                    f"task {task.task_id!r}: evaluator timed out after {task.timeout}s"
                ) from exc
            except OSError as exc:
                raise EvaluatorError(
                    f"task {task.task_id!r}: cannot run evaluator: {exc}"
                ) from exc
            if proc.returncode != 0:
                raise EvaluatorError(
                    f"task {task.task_id!r}: evaluator exited {proc.returncode}; "
                    f"stderr: {proc.stderr.strip()[-2000:]}"
                )
            return _parse_score(proc.stdout, task.task_id, proc.stderr)
        finally:
            if not self.keep_candidates:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass


def _parse_score(stdout: str, task_id: str, stderr: str = "") -> float:
    text = stdout.strip()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EvaluatorError(
            f"task {task_id!r}: stdout is not a single JSON object "
            f"({exc}); stdout: {text[:500]!r}; stderr: {stderr.strip()[-500:]}"
        ) from exc
    if not isinstance(payload, dict) or "score" not in payload:
        raise EvaluatorError(
            f"task {task_id!r}: expected JSON object with a 'score' key, got {text[:200]!r}"
        )
    score = payload["score"]
    if isinstance(score, bool) or not isinstance(score, (int, float)):
        raise EvaluatorError(f"task {task_id!r}: 'score' is not a number: {score!r}")
    if not math.isfinite(float(score)):
        raise EvaluatorError(f"task {task_id!r}: non-finite score {score!r}")
    return float(score)
