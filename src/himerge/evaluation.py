"""Performance oracle bridge: external evaluator processes and builtin
synthetic evaluators, with content-addressed caching.

External protocol: the evaluator is a command template containing a
``{checkpoint}`` placeholder.  The candidate is serialized to a scratch
path, the command is invoked once, and it must print exactly one JSON
object ``{"score": <number>}`` to stdout, in UTF-8, and exit 0.  Bytes
of its stdout or stderr that are not UTF-8 are read as U+FFFD.

Scores are cached in a JSON-lines file so reruns and restarts skip
completed evaluations.  A cache entry is keyed by the candidate's
``fingerprint``, the content hash of ``checkpoint`` (which hashes only the
tensors it does not share with checkpoints hashed before), the task id,
and the evaluator's identity: the sha256 of the command template or of the
builtin spec's canonical JSON.  A candidate is serialized only when an
external evaluator needs its file, always to a ``create_temp`` file; a
kept one is then renamed to its fingerprint's name in ``keep_dir``.
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
from typing import ClassVar

import numpy as np

from .checkpoint import Checkpoint, create_temp, fingerprint, write_checkpoint
from .errors import ConfigError, EvaluatorError, FormatError

DEFAULT_TIMEOUT = 600.0
# The longest wait a poll takes: 2**31 - 1 milliseconds, in whole seconds.
MAX_TIMEOUT = 2147483.0


# ---------------------------------------------------------------------------
# Builtin synthetic evaluators: frozen dataclasses whose fields are the spec,
# whose ``kind`` names them in a spec, and whose ``score(cp)`` scores.
# ---------------------------------------------------------------------------


def _require_at_least(low: int, **values) -> None:
    for name, value in values.items():
        if value < low:
            raise ConfigError(f"builtin evaluator {name} must be >= {low}, got {value}")


@dataclass(frozen=True)
class SyntheticLinearTask:
    """Sign-agreement accuracy of one tensor against a seeded hidden optimum."""

    kind: ClassVar[str] = "synthetic_linear"
    seed: int
    dim: int
    n_eval: int
    target: str

    def __post_init__(self):
        _require_at_least(0, seed=self.seed)
        _require_at_least(1, dim=self.dim, n_eval=self.n_eval)

    def score(self, cp: Checkpoint) -> float:
        """Mean agreement of sign(<w, x>) with sign(<w*, x>) over seeded probes."""
        if self.target not in cp:
            raise EvaluatorError(f"synthetic task target tensor {self.target!r} not found")
        rec = cp.record(self.target)
        if len(rec.shape) != 1 or rec.shape[0] != self.dim:
            raise EvaluatorError(
                f"synthetic task target {self.target!r} must be 1-D of length "
                f"{self.dim}, got shape {rec.shape}"
            )
        probes, star_signs = _linear_fixture(self.seed, self.dim, self.n_eval)
        return _sign_agreement(rec.as_f32().astype(np.float64), probes, star_signs)


@dataclass(frozen=True)
class SyntheticCompositeTask:
    """Sign-agreement accuracy over a concatenation of tensors.

    Each target is a (tensor name, optimum seed) pair; the per-tensor
    optimum is drawn exactly like SyntheticLinearTask's, so sharing a seed
    shares the optimum.  Probes are drawn over the concatenated dimension
    from ``probe_seed``.
    """

    kind: ClassVar[str] = "synthetic_composite"
    probe_seed: int
    n_eval: int
    targets: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if not self.targets:
            raise ConfigError("synthetic_composite needs at least one target")
        target_seed = min(seed for _, seed in self.targets)
        _require_at_least(0, probe_seed=self.probe_seed, target_seed=target_seed)
        _require_at_least(1, n_eval=self.n_eval)

    def score(self, cp: Checkpoint) -> float:
        parts = []
        dims = []
        for name, _ in self.targets:
            if name not in cp:
                raise EvaluatorError(f"synthetic task target tensor {name!r} not found")
            arr = cp.as_f32(name).reshape(-1).astype(np.float64)
            parts.append(arr)
            dims.append(arr.size)
        probes, star_signs = _composite_fixture(self, tuple(dims))
        return _sign_agreement(np.concatenate(parts), probes, star_signs)


@dataclass(frozen=True)
class ConstantTask:
    """Always returns the same score; useful as a degenerate oracle."""

    kind: ClassVar[str] = "constant"
    value: float = 0.5

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ConfigError(f"constant evaluator value must be finite, got {self.value}")

    def score(self, cp: Checkpoint) -> float:
        return float(self.value)


def hidden_optimum(seed: int, dim: int) -> np.ndarray:
    """The seeded hidden optimum; the first draw from the task's stream."""
    return np.random.default_rng(seed).standard_normal(dim)


# A fixture is (probes, sign(probes @ w_star)): the optimum's side of each
# probe is a constant of the task, so it is computed once, not per call.


@functools.lru_cache(maxsize=8)
def _linear_fixture(seed: int, dim: int, n_eval: int):
    rng = np.random.default_rng(seed)
    w_star = rng.standard_normal(dim)
    probes = rng.standard_normal((n_eval, dim))
    return probes, np.sign(probes @ w_star)


@functools.lru_cache(maxsize=8)
def _composite_fixture(task: SyntheticCompositeTask, dims: tuple[int, ...]):
    w_star = np.concatenate(
        [hidden_optimum(seed, d) for (_, seed), d in zip(task.targets, dims)]
    )
    probes = np.random.default_rng(task.probe_seed).standard_normal(
        (task.n_eval, w_star.size)
    )
    return probes, np.sign(probes @ w_star)


def _sign_agreement(w: np.ndarray, probes: np.ndarray, star_signs: np.ndarray) -> float:
    return float(np.mean(np.sign(probes @ w) == star_signs))


BUILTIN_TASKS = {
    cls.kind: cls for cls in (SyntheticLinearTask, SyntheticCompositeTask, ConstantTask)
}


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
        elif isinstance(self.evaluator, tuple(BUILTIN_TASKS.values())):
            text = json.dumps(
                {"builtin": self.evaluator.kind, **asdict(self.evaluator)},
                sort_keys=True, separators=(",", ":"),
            )
        else:
            raise ConfigError(f"unsupported evaluator {self.evaluator!r}")
        if not 0 < self.timeout <= MAX_TIMEOUT:
            raise ConfigError(
                f"timeout for task {self.task_id!r} must be > 0 and <= {MAX_TIMEOUT:.0f}, "
                f"got {self.timeout}"
            )
        object.__setattr__(self, "identity", hashlib.sha256(text.encode("utf-8")).hexdigest())


@dataclass(frozen=True)
class EvalResult:
    value: float
    wall_time: float  # seconds the evaluator ran; 0 for a cache hit


# ---------------------------------------------------------------------------
# Cache and bridge
# ---------------------------------------------------------------------------


CACHE_VERSION = 2


class EvalCache:
    """(fingerprint, task id, evaluator identity) -> score map backed by an
    append-only JSONL file.

    Each line is ``{"v": 2, "key", "task_id", "evaluator", "score"}``.
    Lines of an older format (no ``"v": 2``) hold keys computed another
    way; they are skipped, so those candidates are evaluated again.

    Not thread-safe: ``EvaluationBridge`` serializes every ``get`` and
    ``put`` under its own lock.
    """

    def __init__(self, path=None):
        self.path = Path(path) if path else None
        self._scores: dict[tuple[str, str, str], float] = {}
        if self.path and self.path.exists():
            self._load()

    def _load(self) -> None:
        """Read the entries; a torn final line (a write cut short by a
        crash) is truncated away, corruption anywhere else is an error.  An
        entry whose score is not a finite JSON number is corrupt."""
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
                        score = entry["score"]
                        # json reads NaN, Infinity and 1e999 as numbers; isfinite
                        # raises on a string and on an integer beyond the float range.
                        if isinstance(score, bool) or not math.isfinite(score):
                            raise ValueError(f"score is not a finite number: {score!r}")
                        self._scores[slot] = float(score)
            except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
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
        return self._scores.get((key, task_id, evaluator))

    def put(self, key: str, task_id: str, evaluator: str, score: float) -> None:
        line = json.dumps(
            {"v": CACHE_VERSION, "key": key, "task_id": task_id, "evaluator": evaluator,
             "score": score}
        )
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
    ``logging``, which raised the peak RSS of a hi merge (the hi-engine
    benchmark workload) by 0.96 MB.
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
    """Evaluates checkpoints against tasks with caching and call accounting.

    An external evaluator reads each candidate from a ``create_temp`` file
    written where it ends: in ``keep_dir``, renamed whole to one
    ``cand-<key>.safetensors`` per candidate before the evaluator runs, or
    else in ``scratch_dir`` (default: ``tempfile``'s directory), removed
    once scored.  A killed run's temp file is removed by
    ``remove_stale_temps`` on that directory.  A kept candidate is written
    once, however many tasks score it.  The process group of each running
    evaluator is recorded, so ``map`` can kill them all on Ctrl-C."""

    def __init__(
        self,
        cache: EvalCache | None = None,
        *,
        keep_dir: Path | None = None,
        scratch_dir: Path | None = None,
        parallel: int = 1,
    ):
        self.cache = cache if cache is not None else EvalCache()
        self.keep_dir = Path(keep_dir) if keep_dir is not None else None
        self.scratch_dir = Path(scratch_dir) if scratch_dir is not None else None
        if parallel < 1:
            raise ConfigError(f"parallel must be >= 1, got {parallel}")
        self.parallel = parallel
        self.invocations = 0
        self.cache_hits = 0
        self.evaluated_keys: set[str] = set()
        self._lock = threading.Lock()
        self._in_flight: dict[tuple[str, str, str], _Flight] = {}
        self._groups: set[int] = set()  # process group ids of the running evaluators

    @property
    def distinct_checkpoints(self) -> int:
        """Distinct candidate checkpoints actually sent to an evaluator."""
        return len(self.evaluated_keys)

    def evaluate(self, cp: Checkpoint, task: EvalTask) -> EvalResult:
        key = fingerprint(cp)
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
            return EvalResult(score, 0.0)

        try:
            start = time.monotonic()
            if isinstance(task.evaluator, str):
                score = self._run_external(cp, key, task)
            else:
                score = task.evaluator.score(cp)
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
        return EvalResult(score, elapsed)

    def map(self, fn, items) -> list:
        """[fn(item) for item in items] on up to ``parallel`` threads, in order.

        ``items`` is consumed lazily on the calling thread: the next item is
        taken only when fewer than ``parallel`` calls are outstanding, and
        an item is held only by map until its call takes it and then by the
        call until it returns, so at most ``parallel`` items are alive at
        once.  (The pool's work item outlives the call; it holds the item in
        a list that the call empties.)  On the first failure in
        item order, of a call or of taking an item, no further item is
        taken, the calls already running finish, and that failure is
        raised, as the serial loop would raise it.  On Ctrl-C (any
        ``BaseException`` that is not an ``Exception``) the running external
        evaluators are killed instead, as at ``parallel == 1``, and no call
        that has not started runs.

        At ``parallel == 1`` it is the plain loop on the calling thread.
        Running it through a one-thread pool instead cost 4% more CPU on the
        default 10 x 10 sweep of ``bench/gen.py 83 8 128`` inputs (median
        1.122 s against 1.081 s over 20 alternating pairs on 2 vCPUs, the
        plain loop lower in 18 of them), and 1.4 MB more peak RSS on a
        16-layer hi merge of ``gen.py 83 16 256`` inputs (83.4 to 84.8 MB),
        since the pool's import loads ``logging`` (see ``_Flight``).
        """
        if self.parallel == 1:
            results = []
            for item in items:
                results.append(fn(item))
                del item  # before the next item is built
            return results
        from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

        futures = []
        running: set = set()
        stopped = None
        with ThreadPoolExecutor(max_workers=self.parallel) as pool:
            try:
                try:
                    for item in items:
                        futures.append(pool.submit(lambda held: fn(held.pop()), [item]))
                        del item  # only the pool holds it now, until the call takes it
                        running.add(futures[-1])
                        # Block only while every slot is taken.
                        timeout = None if len(running) == self.parallel else 0
                        done, running = wait(running, timeout, return_when=FIRST_COMPLETED)
                        if any(f.exception() is not None for f in done):
                            break
                except Exception as exc:  # taking an item failed
                    stopped = exc
                wait(running)
            except BaseException:  # Ctrl-C: end the running evaluators before the pool joins
                pool.shutdown(wait=False, cancel_futures=True)
                # A call that had not yet started its evaluator is caught on a later round.
                while wait(futures, 0.05).not_done:
                    self._kill_evaluators()
                raise
        results = [f.result() for f in futures]  # raises the first failed call
        if stopped is not None:
            raise stopped
        return results

    # -- external protocol ---------------------------------------------------

    def _write_candidate(self, cp: Checkpoint, key: str) -> Path:
        """The file an external evaluator reads the candidate from: a fresh
        temp file, or its kept file in ``keep_dir``.  A kept file is written
        once: whole, since ``os.replace`` put it there, and named by its
        content hash, so a later evaluation reads it as it is."""
        if self.keep_dir is None:
            target = (self.scratch_dir or Path(tempfile.gettempdir())) / f"cand-{key[:12]}"
        else:
            self.keep_dir.mkdir(parents=True, exist_ok=True)
            target = self.keep_dir / f"cand-{key}.safetensors"
            if target.exists():
                return target
        fd, path = create_temp(target, mode=0o600)
        try:
            with os.fdopen(fd, "wb") as fh:
                write_checkpoint(cp, fh)
            if self.keep_dir is None:
                return path
            os.replace(path, target)  # whole, before the evaluator opens it
            return target
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(path)
            raise

    def _run_external(self, cp: Checkpoint, key: str, task: EvalTask) -> float:
        path = self._write_candidate(cp, key)
        try:
            argv = [
                token.replace("{checkpoint}", str(path))
                for token in shlex.split(task.evaluator)
            ]
            # The evaluator leads its own process group, so a timeout also
            # kills any processes it started.
            try:
                with subprocess.Popen(
                    argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    encoding="utf-8", errors="replace", start_new_session=True,
                ) as proc:
                    with self._lock:
                        self._groups.add(proc.pid)
                    try:
                        stdout, stderr = proc.communicate(timeout=task.timeout)
                    except BaseException:
                        with contextlib.suppress(ProcessLookupError):
                            os.killpg(proc.pid, signal.SIGKILL)
                        raise
                    finally:
                        with self._lock:
                            self._groups.discard(proc.pid)
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
            if self.keep_dir is None:
                with contextlib.suppress(OSError):
                    os.unlink(path)

    def _kill_evaluators(self) -> None:
        """SIGKILL the process group of every running external evaluator."""
        with self._lock:
            groups = list(self._groups)
        for group in groups:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(group, signal.SIGKILL)


def _parse_score(stdout: str, task_id: str, stderr: str = "") -> float:
    text = stdout.strip()
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # not JSON, an over-long integer, or too deep
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
    try:
        value = float(score)
    except OverflowError:  # an integer beyond the float range
        raise EvaluatorError(f"task {task_id!r}: score {score!r} is out of range") from None
    if not math.isfinite(value):
        raise EvaluatorError(f"task {task_id!r}: non-finite score {score!r}")
    return value
