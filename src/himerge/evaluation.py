"""Performance oracle bridge: external evaluator processes and builtin
synthetic evaluators, with content-addressed caching.

External protocol: the evaluator is a command template, a POSIX shell word
list (``shlex``) with a ``{checkpoint}`` placeholder and no NUL byte, run
once per candidate on its serialized file.  It must print exactly one JSON
object ``{"score": <number>}`` to stdout, in UTF-8, and exit 0; bytes of
its stdout or stderr that are not UTF-8 are read as U+FFFD.  Every score,
a builtin's, an evaluator's or a cache line's, passes ``_valid_score``.

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
import itertools
import json
import math
import os
import shlex
import signal
import subprocess
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .checkpoint import Checkpoint, TensorRecord, create_temp, fingerprint, write_checkpoint
from .errors import ConfigError, EvaluatorError, FormatError

DEFAULT_TIMEOUT = 600.0
# The longest wait a poll takes: 2**31 - 1 milliseconds, in whole seconds.
MAX_TIMEOUT = 2147483.0


def _valid_score(value) -> float:
    """``value`` as a score: a JSON number, not a bool, that is finite as a
    float.  The one rule for a builtin's return, an evaluator's reply and a
    cache line; json reads NaN, Infinity and 1e999 as numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise EvaluatorError(f"'score' is not a number: {value!r}")
    try:
        score = float(value)
    except OverflowError:  # an integer beyond the float range
        raise EvaluatorError(f"score {value!r} is out of range") from None
    if not math.isfinite(score):
        raise EvaluatorError(f"non-finite score {score!r}")
    return score


# ---------------------------------------------------------------------------
# Builtin synthetic evaluators: frozen dataclasses whose fields are the spec,
# whose ``kind`` names them in a spec, and whose ``score(cp)`` scores.
# ---------------------------------------------------------------------------


def _require_at_least(low: int, **values) -> None:
    for name, value in values.items():
        if value < low:
            raise ConfigError(f"builtin evaluator {name} must be >= {low}, got {value}")


def _target(cp: Checkpoint, name: str) -> TensorRecord:
    if name not in cp:
        raise EvaluatorError(f"synthetic task target tensor {name!r} not found")
    return cp.record(name)


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
        rec = _target(cp, self.target)
        if len(rec.shape) != 1 or rec.shape[0] != self.dim:
            raise EvaluatorError(
                f"synthetic task target {self.target!r} must be 1-D of length "
                f"{self.dim}, got shape {rec.shape}"
            )
        return _fixture(self, (self.dim,)).score([rec])

    def draw(self, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The probes and the optimum, drawn optimum first from one ``seed`` stream."""
        rng = np.random.default_rng(self.seed)
        w_star = rng.standard_normal(self.dim)
        return rng.standard_normal((self.n_eval, self.dim)), w_star


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
        """The sign agreement of ``probes @ w``, w the targets concatenated."""
        records = [_target(cp, name) for name, _ in self.targets]
        return _fixture(self, tuple(rec.size for rec in records)).score(records)

    def draw(self, dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The probes, from ``probe_seed``, and the targets' optima concatenated."""
        w_star = np.concatenate([hidden_optimum(s, d) for (_, s), d in zip(self.targets, dims)])
        probes = np.random.default_rng(self.probe_seed).standard_normal((self.n_eval, w_star.size))
        return probes, w_star


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


@functools.lru_cache(maxsize=8)
def _fixture(task, dims: tuple[int, ...]) -> _SignFixture:
    """The fixture of a sign-agreement ``task`` over targets of sizes ``dims``.  A probe
    matrix numpy refuses to shape is an evaluator error; a failed allocation stays a MemoryError."""
    try:
        probes, w_star = task.draw(dims)
    except ValueError as exc:
        raise EvaluatorError(
            f"{task.kind}: cannot draw a probe matrix of shape ({task.n_eval}, {sum(dims)}): {exc}"
        ) from None
    return _SignFixture(probes, w_star, dims)


# The most bytes of partial products one fixture keeps: 131 blocks at n_eval 2000.
MEMO_BYTES = 2 << 20


def _error_bound(n_terms: int, probe_max: float, w_l1: float) -> float:
    """A float64 sum of products p_j * w_j, taken in any order and grouping
    with ``n_terms`` roundings, lies within about n_terms * 2**-53 *
    sum |p_j * w_j| <= n_terms * 2**-53 * probe_max * w_l1 of the exact
    value (Higham, "Accuracy and Stability of Numerical Algorithms", 3.1).
    A row of the block sum farther from zero than twice that has the exact
    value's sign, and so has the whole product's row.  The factor is 4, not
    2, to cover the roundings of the bound and of ``w_l1`` themselves."""
    return 4 * n_terms * 2.0**-53 * probe_max * w_l1


class _SignFixture:
    """The probes of a sign-agreement task over targets of sizes ``dims``,
    the optimum's signs ``sign(probes @ w_star)`` (a constant of the task,
    so taken once), and a bounded LRU of partial products.

    The product ``probes @ w`` of a candidate is summed from per-target
    blocks ``probes[:, block] @ w_block``, each kept under (target index,
    dtype, record digest), so a target a candidate shares with one scored
    before is not read or multiplied again.  A sign of the sum equals the
    sign of the full product once the sum is farther from zero than both
    can be from the exact value (``_error_bound``).  So the memo is used
    only when every row clears that bound, and the full product is taken
    otherwise: the score is bit for bit the full product's, which a single
    target's block is.  Threads may score at once; the memo is under a
    lock, the products are not.
    """

    def __init__(self, probes: np.ndarray, w_star: np.ndarray, dims: tuple[int, ...]):
        self.probes = probes
        self.star_signs = np.sign(probes @ w_star)
        self.bounds = [0, *itertools.accumulate(dims)]
        self.probe_max = max(probes.max(initial=0.0), -probes.min(initial=0.0))
        self.capacity = max(1, MEMO_BYTES // self.star_signs.nbytes)
        self._partials: OrderedDict[tuple, tuple[np.ndarray, float]] = OrderedDict()
        self._lock = threading.Lock()

    def partial(self, index: int, rec: TensorRecord) -> tuple[np.ndarray, float]:
        """Target ``index``'s block of the product and the block's l1 norm."""
        key = (index, rec.dtype, rec.digest)
        with self._lock:
            if key in self._partials:
                self._partials.move_to_end(key)
                return self._partials[key]
        w = rec.as_f32().reshape(-1).astype(np.float64)
        block = self.probes[:, self.bounds[index] : self.bounds[index + 1]]
        entry = (block @ w, float(np.abs(w).sum()))
        with self._lock:
            self._partials[key] = entry
            while len(self._partials) > self.capacity:
                self._partials.popitem(last=False)
        return entry

    def score(self, records: list[TensorRecord]) -> float:
        total = np.zeros(len(self.star_signs))
        w_l1 = 0.0
        for index, rec in enumerate(records):
            part, norm = self.partial(index, rec)
            total += part
            w_l1 += norm
        bound = _error_bound(self.bounds[-1] + len(records), self.probe_max, w_l1)
        if not np.abs(total).min() > bound:  # True for a NaN or inf bound
            total = _whole_product(self.probes, records)
        return float(np.mean(np.sign(total) == self.star_signs))


def _whole_product(probes: np.ndarray, records: list[TensorRecord]) -> np.ndarray:
    return probes @ np.concatenate([rec.as_f32().reshape(-1).astype(np.float64) for rec in records])


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
    # The command template split as a POSIX shell word list; () for a builtin.
    argv: tuple[str, ...] = field(init=False, default=(), repr=False, compare=False)

    def __post_init__(self):
        if isinstance(self.evaluator, str):
            what = f"evaluator command for task {self.task_id!r}"
            if "{checkpoint}" not in self.evaluator:
                raise ConfigError(f"{what} has no {{checkpoint}} placeholder")
            if "\0" in self.evaluator:
                raise ConfigError(f"{what} holds a NUL byte")
            try:
                object.__setattr__(self, "argv", tuple(shlex.split(self.evaluator)))
            except ValueError as exc:  # an unclosed quote, or a trailing backslash
                raise ConfigError(f"{what} does not split into words: {exc}") from None
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
        entry whose score ``_valid_score`` rejects is corrupt."""
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
                        self._scores[slot] = _valid_score(entry["score"])
            except (ValueError, KeyError, TypeError, RecursionError, EvaluatorError) as exc:
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
            try:
                if isinstance(task.evaluator, str):
                    value = self._run_external(cp, key, task)
                else:
                    value = task.evaluator.score(cp)
                score = _valid_score(value)
            except EvaluatorError as exc:  # the one place a scoring failure names its task
                raise EvaluatorError(f"task {task.task_id!r}: {exc}") from exc
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

    @contextlib.contextmanager
    def _candidate_file(self, cp: Checkpoint, key: str):
        """The file an external evaluator reads the candidate from, for the
        block's life: its kept file in ``keep_dir``, or else a temp file,
        removed when the block ends.  A kept file is written once: whole,
        since ``os.replace`` put it there, and named by its content hash, so
        a later evaluation reads it as it is.  A write that fails leaves no
        temp file."""
        if self.keep_dir is None:
            target = (self.scratch_dir or Path(tempfile.gettempdir())) / f"cand-{key[:12]}"
        else:
            self.keep_dir.mkdir(parents=True, exist_ok=True)
            target = self.keep_dir / f"cand-{key}.safetensors"
        temp = None
        try:
            if self.keep_dir is None or not target.exists():
                fd, temp = create_temp(target, mode=0o600)
                with os.fdopen(fd, "wb") as fh:
                    write_checkpoint(cp, fh)
                if self.keep_dir is not None:
                    os.replace(temp, target)  # whole, before the evaluator opens it
                    temp = None
            yield target if temp is None else temp
        finally:
            if temp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(temp)

    def _run_external(self, cp: Checkpoint, key: str, task: EvalTask):
        """The ``score`` value of the evaluator's reply, not yet checked."""
        with self._candidate_file(cp, key) as path:
            argv = [token.replace("{checkpoint}", str(path)) for token in task.argv]
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
                raise EvaluatorError(f"evaluator timed out after {task.timeout}s") from exc
            except OSError as exc:
                raise EvaluatorError(f"cannot run evaluator: {exc}") from exc
        if proc.returncode != 0:
            raise EvaluatorError(
                f"evaluator exited {proc.returncode}; stderr: {stderr.strip()[-2000:]}"
            )
        text = stdout.strip()
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as exc:  # not JSON, an over-long integer, or too deep
            raise EvaluatorError(
                f"stdout is not a single JSON object ({exc}); stdout: {text[:500]!r}; "
                f"stderr: {stderr.strip()[-500:]}"
            ) from exc
        if not isinstance(payload, dict) or "score" not in payload:
            raise EvaluatorError(f"expected JSON object with a 'score' key, got {text[:200]!r}")
        return payload["score"]

    def _kill_evaluators(self) -> None:
        """SIGKILL the process group of every running external evaluator."""
        with self._lock:
            groups = list(self._groups)
        for group in groups:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(group, signal.SIGKILL)

