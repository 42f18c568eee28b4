"""Performance oracle bridge: external evaluator processes and builtin
synthetic evaluators, with content-addressed caching.

External protocol: the evaluator is a command template containing a
``{checkpoint}`` placeholder.  The candidate is serialized to a scratch
path, the command is invoked once, and it must print exactly one JSON
object ``{"score": <number>}`` to stdout and exit 0.

Scores are cached in a JSON-lines file so reruns and restarts skip
completed evaluations.  A cache entry is keyed by the candidate's
``tree_key`` (which hashes only the tensors it does not share with
checkpoints hashed before), the task id, and the evaluator's identity: the
sha256 of the command template or of the builtin spec's canonical JSON.
A candidate is serialized only when an external evaluator needs its file.
Concurrent evaluations of one entry run the evaluator once; the other
callers wait for that result and count as cache hits.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import math
import os
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import Checkpoint, tree_key, write_checkpoint
from .errors import ConfigError, EvaluatorError, FormatError

DEFAULT_TIMEOUT = 600.0


# ---------------------------------------------------------------------------
# Builtin synthetic evaluators
# ---------------------------------------------------------------------------


def _require_at_least(low: int, **values) -> None:
    for name, value in values.items():
        if value < low:
            raise ConfigError(f"builtin evaluator {name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class SyntheticLinearTask:
    """Sign-agreement accuracy of one tensor against a seeded hidden optimum."""

    seed: int
    dim: int
    n_eval: int
    target: str

    def __post_init__(self):
        _require_at_least(0, seed=self.seed)
        _require_at_least(1, dim=self.dim, n_eval=self.n_eval)


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

    def __post_init__(self):
        if not self.targets:
            raise ConfigError("synthetic_composite needs at least one target")
        target_seed = min(seed for _, seed in self.targets)
        _require_at_least(0, probe_seed=self.probe_seed, target_seed=target_seed)
        _require_at_least(1, n_eval=self.n_eval)


@dataclass(frozen=True)
class ConstantTask:
    """Always returns the same score; useful as a degenerate oracle."""

    value: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError(f"constant evaluator value must be finite, got {self.value}")


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


BUILTIN_TASKS = {
    "synthetic_linear": SyntheticLinearTask,
    "synthetic_composite": SyntheticCompositeTask,
    "constant": ConstantTask,
}


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
    # sha256 of the command template or of the builtin spec's canonical
    # JSON; the timeout does not change a score, so it is left out.
    identity: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.evaluator, str):
            if "{checkpoint}" not in self.evaluator:
                raise ConfigError(
                    f"evaluator command for task {self.task_id!r} has no "
                    "{checkpoint} placeholder"
                )
            text = self.evaluator
        else:
            kind = next(
                (k for k, cls in BUILTIN_TASKS.items() if isinstance(self.evaluator, cls)), None
            )
            if kind is None:
                raise ConfigError(f"unsupported evaluator {self.evaluator!r}")
            text = json.dumps(
                {"builtin": kind, **asdict(self.evaluator)}, sort_keys=True, separators=(",", ":")
            )
        if not 0 < self.timeout < math.inf:
            raise ConfigError(
                f"timeout for task {self.task_id!r} must be finite and > 0, got {self.timeout}"
            )
        object.__setattr__(self, "identity", hashlib.sha256(text.encode("utf-8")).hexdigest())


@dataclass(frozen=True)
class EvalResult:
    value: float
    checkpoint_key: str
    task_id: str
    wall_time: float


# ---------------------------------------------------------------------------
# Cache and bridge
# ---------------------------------------------------------------------------


CACHE_VERSION = 2


class EvalCache:
    """(tree key, task id, evaluator identity) -> score map backed by an
    append-only JSONL file.

    Each line is ``{"v": 2, "key", "task_id", "evaluator", "score"}``.
    Lines of an older format (no ``"v": 2``) hold keys computed another
    way; they are skipped, so those candidates are evaluated again.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path else None
        self._scores: dict[tuple[str, str, str], float] = {}
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
                    if not isinstance(entry, dict):
                        raise TypeError("not a JSON object")
                    if entry.get("v") == CACHE_VERSION:
                        slot = (entry["key"], entry["task_id"], entry["evaluator"])
                        self._scores[slot] = float(entry["score"])
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

    def get(self, key: str, task_id: str, evaluator: str):
        with self._lock:
            return self._scores.get((key, task_id, evaluator))

    def put(self, key: str, task_id: str, evaluator: str, score: float) -> None:
        line = json.dumps(
            {"v": CACHE_VERSION, "key": key, "task_id": task_id, "evaluator": evaluator,
             "score": score}
        )
        with self._lock:
            self._scores[(key, task_id, evaluator)] = score
            if self.path:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                with open(self.path, "a") as fh:
                    fh.write(line + "\n")

    def __len__(self) -> int:
        return len(self._scores)


class _Flight:
    """One evaluation in progress; callers of the same entry wait for it.

    Not a ``concurrent.futures.Future``: importing that module loads
    ``logging``, which adds about 0.5 MB to the peak RSS of every run.
    """

    def __init__(self):
        self.done = threading.Event()
        self.score: float | None = None
        self.error: BaseException | None = None

    def result(self) -> float:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.score


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
        if parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {parallel}")
        self.parallel = parallel
        self.invocations = 0
        self.cache_hits = 0
        self.evaluated_keys: set[str] = set()
        self._lock = threading.Lock()
        self._in_flight: dict[tuple[str, str, str], _Flight] = {}

    @property
    def distinct_checkpoints(self) -> int:
        """Distinct candidate checkpoints actually sent to an evaluator."""
        return len(self.evaluated_keys)

    def evaluate(self, cp: Checkpoint, task: EvalTask) -> EvalResult:
        key = tree_key(cp)
        slot = (key, task.task_id, task.identity)
        with self._lock:
            score = self.cache.get(*slot)
            pending = self._in_flight.get(slot) if score is None else None
            owner = score is None and pending is None
            if owner:
                pending = self._in_flight[slot] = _Flight()
            else:
                self.cache_hits += 1
        if not owner:
            if score is None:
                score = pending.result()  # raises the owner's error if it failed
            return EvalResult(score, key, task.task_id, 0.0)

        try:
            start = time.monotonic()
            if isinstance(task.evaluator, str):
                score = self._run_external(cp, key, task)
            else:
                score = float(run_builtin(cp, task.evaluator))
            if not math.isfinite(score):
                raise EvaluatorError(
                    f"task {task.task_id!r} returned non-finite score {score!r}"
                )
            elapsed = time.monotonic() - start
            with self._lock:
                self.invocations += 1
                self.evaluated_keys.add(key)
            self.cache.put(*slot, score)
            pending.score = score
        except BaseException as exc:
            pending.error = exc
            raise
        finally:
            # After the cache put, so a caller always finds one or the other.
            with self._lock:
                del self._in_flight[slot]
            pending.done.set()
        return EvalResult(score, key, task.task_id, elapsed)

    def map(self, fn, items) -> list:
        """[fn(item) for item in items] on up to ``parallel`` threads, in order.

        ``items`` is consumed lazily on the calling thread: the next item is
        taken only when fewer than ``parallel`` calls are outstanding, so at
        most ``parallel`` items are alive at once.  On the first failure in
        item order, of a call or of taking an item, no further item is
        taken, the calls already running finish, and that failure is
        raised, as the serial loop would raise it.
        """
        if self.parallel == 1:
            return [fn(item) for item in items]
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        futures = []
        running: set = set()
        stopped = None
        with ThreadPoolExecutor(max_workers=self.parallel) as pool:
            try:
                for item in items:
                    futures.append(pool.submit(fn, item))
                    running.add(futures[-1])
                    # Block only while every slot is taken.
                    timeout = None if len(running) == self.parallel else 0
                    done, running = wait(running, timeout, return_when=FIRST_COMPLETED)
                    if any(f.exception() is not None for f in done):
                        break
            except Exception as exc:  # taking an item failed
                stopped = exc
            wait(running)
        results = [f.result() for f in futures]  # raises the first failed call
        if stopped is not None:
            raise stopped
        return results

    # -- external protocol ---------------------------------------------------

    def _run_external(self, cp: Checkpoint, key: str, task: EvalTask) -> float:
        if self.scratch_dir:
            self.scratch_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(
            prefix=f"cand-{key[:12]}-", suffix=".safetensors", dir=self.scratch_dir
        )
        try:
            with os.fdopen(fd, "wb") as fh:
                write_checkpoint(cp, fh)
            argv = [
                token.replace("{checkpoint}", tmp_path)
                for token in shlex.split(task.evaluator)
            ]
            # The evaluator leads its own process group, so a timeout also
            # kills any processes it started.
            try:
                with subprocess.Popen(
                    argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                    start_new_session=True,
                ) as proc:
                    try:
                        stdout, stderr = proc.communicate(timeout=task.timeout)
                    except BaseException:
                        with contextlib.suppress(ProcessLookupError):
                            os.killpg(proc.pid, signal.SIGKILL)
                        raise
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
                    f"stderr: {stderr.strip()[-2000:]}"
                )
            return _parse_score(stdout, task.task_id, stderr)
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
