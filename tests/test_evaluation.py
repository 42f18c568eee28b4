import contextlib
import importlib
import json
import math
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himerge import evaluation
from himerge import (
    Checkpoint,
    ConfigError,
    ConstantTask,
    EvalCache,
    EvalTask,
    EvaluationBridge,
    EvaluatorError,
    FormatError,
    SyntheticCompositeTask,
    SyntheticLinearTask,
    TensorRecord,
    hidden_optimum,
    save_checkpoint,
)
from himerge.checkpoint import _TEMP_NAME, checkpoint_to_bytes, fingerprint, write_checkpoint

import reference_evaluation
from conftest import checkpoint_from_arrays, record_from_array


DIM = 64


def cp_with_target(w, name="head.w"):
    return checkpoint_from_arrays({name: np.asarray(w, dtype=np.float32)})


class TestSyntheticLinear:
    def test_optimum_scores_one(self):
        task = SyntheticLinearTask(seed=5, dim=DIM, n_eval=500, target="head.w")
        w_star = hidden_optimum(5, DIM)
        assert task.score(cp_with_target(w_star)) == 1.0

    def test_negated_optimum_scores_zero(self):
        task = SyntheticLinearTask(seed=5, dim=DIM, n_eval=500, target="head.w")
        w_star = hidden_optimum(5, DIM)
        assert task.score(cp_with_target(-w_star)) == 0.0

    def test_orthogonal_scores_near_half(self):
        task = SyntheticLinearTask(seed=9, dim=256, n_eval=4000, target="head.w")
        w_star = hidden_optimum(9, 256)
        rng = np.random.default_rng(123)
        v = rng.standard_normal(256)
        v -= (v @ w_star) / (w_star @ w_star) * w_star
        score = task.score(cp_with_target(v))
        assert abs(score - 0.5) <= 3 / np.sqrt(4000)

    def test_determinism_bitwise(self):
        task = SyntheticLinearTask(seed=11, dim=DIM, n_eval=777, target="head.w")
        cp = cp_with_target(np.linspace(-1, 1, DIM))
        assert task.score(cp) == task.score(cp)

    def test_missing_target(self):
        task = SyntheticLinearTask(seed=1, dim=DIM, n_eval=10, target="nope")
        with pytest.raises(EvaluatorError, match="nope"):
            task.score(cp_with_target(np.zeros(DIM)))

    def test_ill_shaped_target(self):
        task = SyntheticLinearTask(seed=1, dim=DIM, n_eval=10, target="head.w")
        bad = checkpoint_from_arrays({"head.w": np.zeros((8, 8), dtype=np.float32)})
        with pytest.raises(EvaluatorError, match="1-D"):
            task.score(bad)

    def test_optimum_beats_perturbed_copy(self):
        task = SyntheticLinearTask(seed=21, dim=DIM, n_eval=2000, target="head.w")
        w_star = hidden_optimum(21, DIM)
        rng = np.random.default_rng(0)
        perturbed = w_star + rng.standard_normal(DIM) * 2.0
        good = task.score(cp_with_target(w_star))
        worse = task.score(cp_with_target(perturbed))
        assert good > worse


class TestSyntheticComposite:
    def test_shared_seed_shares_optimum(self):
        # A composite over one tensor with seed s must agree with the linear
        # task of seed s on the same tensor values (same optimum), up to the
        # probe stream.
        w_star = hidden_optimum(33, DIM)
        cp = cp_with_target(w_star)
        task = SyntheticCompositeTask(probe_seed=1, n_eval=300, targets=(("head.w", 33),))
        assert task.score(cp) == 1.0

    def test_concatenation_order_matters(self):
        cp = checkpoint_from_arrays(
            {"a": np.ones(4, dtype=np.float32), "b": -np.ones(4, dtype=np.float32)}
        )
        t1 = SyntheticCompositeTask(probe_seed=2, n_eval=500, targets=(("a", 1), ("b", 2)))
        t2 = SyntheticCompositeTask(probe_seed=2, n_eval=500, targets=(("b", 1), ("a", 2)))
        assert t1.score(cp) != t2.score(cp)

    def test_full_optimum_scores_one(self):
        arrays = {
            f"m.layers.{l}.w": hidden_optimum(100 + l, 16).astype(np.float32)
            for l in range(4)
        }
        cp = checkpoint_from_arrays(arrays)
        task = SyntheticCompositeTask(
            probe_seed=7,
            n_eval=400,
            targets=tuple((f"m.layers.{l}.w", 100 + l) for l in range(4)),
        )
        assert task.score(cp) == 1.0


def two_matvec_score(w, w_star, probes):
    """The builtin score as first written: both sides of every probe per call."""
    return float(np.mean(np.sign(probes @ w) == np.sign(probes @ w_star)))


@pytest.mark.parametrize("seed", range(6))
def test_builtin_scores_equal_the_two_matvec_formula(seed):
    rng = np.random.default_rng(seed)
    dtype = ["f32", "f16", "bf16"][seed % 3]
    dims = [int(d) for d in rng.integers(1, 40, size=3)]
    arrays = {f"m.layers.{i}.w": rng.standard_normal(d).astype(np.float32) for i, d in enumerate(dims)}
    arrays["m.layers.0.w"][::3] = 0.0  # probes at sign 0 too
    cp = checkpoint_from_arrays(arrays, dtype=dtype)
    names = list(arrays)

    linear = SyntheticLinearTask(seed=seed, dim=dims[0], n_eval=257, target=names[0])
    fixture = np.random.default_rng(seed)
    w_star = fixture.standard_normal(dims[0])
    probes = fixture.standard_normal((257, dims[0]))
    w = cp.as_f32(names[0]).astype(np.float64)
    for _ in range(2):  # the first call builds the fixture, the second reuses it
        assert linear.score(cp) == two_matvec_score(w, w_star, probes)

    targets = tuple((name, 10 + i) for i, name in enumerate(names))
    composite = SyntheticCompositeTask(probe_seed=seed, n_eval=300, targets=targets)
    w_star = np.concatenate([hidden_optimum(s, d) for (_, s), d in zip(targets, dims)])
    probes = np.random.default_rng(seed).standard_normal((300, w_star.size))
    w = np.concatenate([cp.as_f32(name).astype(np.float64) for name in names])
    for _ in range(2):
        assert composite.score(cp) == two_matvec_score(w, w_star, probes)


# -- the composite scorer's memoized blocks against the whole product -------

BENCH = Path(__file__).resolve().parents[1] / "bench"
TARGET_DTYPES = ("f32", "f16", "bf16")


def _bench_scorer():
    """``bench/oracle_eval.py``, the external scorer of the benchmark, which
    imports its sibling ``stio``: so ``bench/`` is on the path while it loads."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("oracle_eval")
    finally:
        sys.path.remove(str(BENCH))


@contextlib.contextmanager
def counted_fallbacks():
    """Count the scores that took the whole product instead of the memo."""
    count = [0]
    whole = evaluation._whole_product

    def counting(*args):
        count[0] += 1
        return whole(*args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(evaluation, "_whole_product", counting)
        yield count


def _task(probe_seed, n_eval, target_seeds) -> SyntheticCompositeTask:
    targets = tuple((f"m.layers.{i}.w", seed) for i, seed in enumerate(target_seeds))
    return SyntheticCompositeTask(probe_seed=probe_seed, n_eval=n_eval, targets=targets)


@st.composite
def composite_cases(draw):
    """A composite task and 2-5 candidates whose targets come from a pool
    of two variants per target, each in a random dtype, so candidates share
    targets: as the same record, or as an equal one.  A variant may be all
    zero, or hold the other variant's bytes read as the other 16-bit dtype."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_targets = draw(st.integers(1, 4))
    task = _task(draw(st.integers(0, 2**16)), draw(st.integers(1, 200)),
                 [draw(st.integers(0, 2**16)) for _ in range(n_targets)])
    pool = []
    for name, _ in task.targets:
        dim = draw(st.integers(0, 24))
        variants = []
        for _ in range(2):
            zero = draw(st.booleans()) and draw(st.booleans())
            arr = np.zeros(dim, np.float32) if zero else rng.standard_normal(dim).astype(np.float32)
            variants.append(record_from_array(name, arr, draw(st.sampled_from(TARGET_DTYPES))))
        first = variants[0]
        if first.dtype != "f32" and draw(st.booleans()):
            other = "bf16" if first.dtype == "f16" else "f16"
            variants[1] = TensorRecord(name, other, first.shape, first.data)
        pool.append(variants)
    candidates = []
    for _ in range(draw(st.integers(2, 5))):
        records = []
        for variants in pool:
            rec = variants[draw(st.integers(0, 1))]
            if draw(st.booleans()):  # an equal record, not the same object
                rec = record_from_array(rec.name, rec.as_f32(), rec.dtype)
            records.append(rec)
        candidates.append(Checkpoint(records))
    return task, candidates


# Bytes read as the other 16-bit dtype may be inf or NaN.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(composite_cases())
def test_composite_scores_equal_the_whole_product(case):
    task, candidates = case
    for cp in candidates:
        assert task.score(cp) == reference_evaluation.composite_score(task, cp)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(composite_cases())
def test_composite_scores_equal_the_whole_product_when_every_score_falls_back(case):
    task, candidates = case
    with pytest.MonkeyPatch.context() as m, counted_fallbacks() as fallbacks:
        m.setattr(evaluation, "_error_bound", lambda *args: math.inf)
        for cp in candidates:
            assert task.score(cp) == reference_evaluation.composite_score(task, cp)
    assert fallbacks[0] == len(candidates)


@st.composite
def linear_cases(draw):
    """A linear task and a target for it in a random dtype: random, all
    zero, or holding a NaN or an inf.  A target with a NaN or an inf, and
    some others, is read back from a file."""
    dim = draw(st.integers(1, 40))
    task = SyntheticLinearTask(seed=draw(st.integers(0, 2**16)), dim=dim,
                               n_eval=draw(st.integers(1, 300)), target="head.w")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal(dim).astype(np.float32)
    kind = draw(st.sampled_from(["random", "zero", "nan", "inf"]))
    if kind == "zero":
        w[:] = 0.0
    elif kind != "random":
        bad = math.nan if kind == "nan" else draw(st.sampled_from([-math.inf, math.inf]))
        w[draw(st.integers(0, dim - 1))] = bad
    cp = Checkpoint([record_from_array("head.w", w, draw(st.sampled_from(TARGET_DTYPES)))])
    return task, cp, kind in ("nan", "inf") or draw(st.booleans())


@contextlib.contextmanager
def candidate_of(case):
    """The case's checkpoint, from memory or read back from a file."""
    _, cp, from_file = case
    with tempfile.TemporaryDirectory() as tmp:
        yield save_checkpoint(cp, Path(tmp) / "cp.safetensors") if from_file else cp


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a product over an inf target may be NaN
@settings(max_examples=150, deadline=None)
@given(linear_cases())
def test_linear_scores_equal_the_whole_product(case):
    """Twice, so the second score comes from the fixture's memo."""
    task = case[0]
    with candidate_of(case) as cp:
        want = reference_evaluation.linear_score(task, cp)
        assert task.score(cp) == want and task.score(cp) == want


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(linear_cases())
def test_linear_scores_equal_the_whole_product_when_every_score_falls_back(case):
    task = case[0]
    with candidate_of(case) as cp, counted_fallbacks() as fallbacks:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(evaluation, "_error_bound", lambda *args: math.inf)
            assert task.score(cp) == reference_evaluation.linear_score(task, cp)
    assert fallbacks[0] == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [0.0, math.inf, -math.inf, math.nan])
def test_a_zero_or_non_finite_target_takes_the_whole_product(bad):
    """A sum within the bound of zero (an all-zero target) or a non-finite
    bound (an inf or NaN target) is not trusted: the whole product is taken."""
    rng = np.random.default_rng(3)
    task = _task(4, 300, [5, 6])
    first, second = rng.standard_normal((2, 16)).astype(np.float32)
    if bad == 0.0:
        first[:] = second[:] = 0.0
    else:
        first[7] = bad
    cp = Checkpoint([record_from_array("m.layers.0.w", first), record_from_array("m.layers.1.w", second)])
    with counted_fallbacks() as fallbacks:
        assert task.score(cp) == reference_evaluation.composite_score(task, cp)
    assert fallbacks[0] == 1


def test_a_row_within_rounding_error_of_zero_takes_the_whole_product():
    """The second target cancels the first one's product on probe 0 down
    to below the bound, one float32 step at a time; then the sum of the
    blocks is not trusted for that row's sign."""
    task = _task(12, 50, [1, 2])
    probe = np.random.default_rng(12).standard_normal((50, 16))[0]
    first = np.random.default_rng(13).standard_normal(8).astype(np.float32)
    second = np.zeros(8, np.float32)
    for j in range(4):
        residual = probe[:8] @ first + probe[8:] @ second
        second[j] = -residual / probe[8 + j]
    cp = Checkpoint([record_from_array("m.layers.0.w", first),
                     record_from_array("m.layers.1.w", second)])
    w = np.concatenate([first, second]).astype(np.float64)
    bound = evaluation._error_bound(18, np.abs(evaluation._fixture(task, (8, 8)).probes).max(),
                                    np.abs(w).sum())
    assert abs(probe @ w) < bound
    with counted_fallbacks() as fallbacks:
        assert task.score(cp) == reference_evaluation.composite_score(task, cp)
    assert fallbacks[0] == 1


def test_threads_score_at_once_through_a_full_memo(monkeypatch):
    """Four threads score twelve candidates that share targets, each in its
    own order, through a memo of three blocks: every score is the whole
    product's, and the memo stays within its bound."""
    monkeypatch.setattr(evaluation, "MEMO_BYTES", 3 * 8 * 64)
    rng = np.random.default_rng(8)
    task = _task(91, 64, [1, 2, 3])
    pool = [[record_from_array(name, rng.standard_normal(32), "bf16") for _ in range(3)]
            for name, _ in task.targets]
    candidates = [Checkpoint([variants[(i * (t + 1)) % 3] for t, variants in enumerate(pool)])
                  for i in range(12)]
    want = [reference_evaluation.composite_score(task, cp) for cp in candidates]
    errors = []

    def worker(order):
        try:
            for _ in range(5):
                for i in order:
                    assert task.score(candidates[i]) == want[i]
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    orders = [list(rng.permutation(12)) for _ in range(4)]
    threads = [threading.Thread(target=worker, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    fixture = evaluation._fixture(task, (32, 32, 32))
    assert fixture.capacity == 3 and len(fixture._partials) <= 3


def test_the_memo_holds_at_most_two_mebibytes_at_n_eval_2000():
    task = _task(17, 2000, [1])
    rng = np.random.default_rng(17)
    for _ in range(3):
        task.score(Checkpoint([record_from_array("m.layers.0.w", rng.standard_normal(8))]))
    fixture = evaluation._fixture(task, (8,))
    assert len(fixture._partials) == 3
    assert fixture.capacity * fixture.star_signs.nbytes <= 2 * 2**20 == evaluation.MEMO_BYTES


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.sampled_from(["f32", "bf16", "zero"]), min_size=1,
                                           max_size=4))
def test_builtin_composite_scores_equal_the_bench_scorer(seed, kinds):
    """The sweep-grid benchmark checks sweep.csv against
    ``oracle_eval.composite_score`` by repr: the builtin score must equal it
    exactly, for bf16 and f32 targets, and for an all-zero candidate, which
    takes the whole product."""
    composite_score = _bench_scorer().composite_score
    rng = np.random.default_rng(seed)
    task = _task(seed % 1000, int(rng.integers(1, 500)), [int(rng.integers(0, 1000)) for _ in kinds])
    records = []
    for (name, _), kind in zip(task.targets, kinds):
        arr = rng.standard_normal(int(rng.integers(1, 40))).astype(np.float32)
        if kind == "zero":
            arr[:] = 0.0
        records.append(record_from_array(name, arr, "f32" if kind == "zero" else kind))
    cp = Checkpoint(records)
    spec = {"probe_seed": task.probe_seed, "n_eval": task.n_eval,
            "targets": [list(target) for target in task.targets]}
    tensors = {rec.name: rec.as_f32() for rec in records}
    with counted_fallbacks() as fallbacks:
        assert task.score(cp) == composite_score(spec, tensors)
    if all(kind == "zero" for kind in kinds):
        assert fallbacks[0] == 1


class TestBuiltinKinds:
    # Evaluator identities key the cache, so a cache written by an earlier
    # version stays valid only while these hex values hold.
    IDENTITIES = {
        SyntheticLinearTask(seed=7, dim=32, n_eval=50, target="model.layers.0.w"):
            "358ec0b987246826562825b8b9355cfe5368215c5b44cf230a9492b49db3ff85",
        SyntheticCompositeTask(
            probe_seed=1, n_eval=50, targets=(("model.layers.0.w", 3), ("model.layers.1.w", 4))
        ): "4ebd75c69baa8218ba36dc129dbf3f7ca325cb001511f8e631697450263ceff8",
        ConstantTask(0.25): "414a134f0d9be36fe29e6eb1d46ab825f6d506205ed183f2290cac663168064a",
    }

    @pytest.mark.parametrize("spec", list(IDENTITIES), ids=lambda spec: spec.kind)
    def test_identity_is_pinned(self, spec):
        assert EvalTask("A", spec).identity == self.IDENTITIES[spec]

    @pytest.mark.parametrize("cls", [SyntheticLinearTask, SyntheticCompositeTask, ConstantTask])
    def test_each_kind_names_its_class(self, cls):
        assert evaluation.BUILTIN_TASKS[cls.kind] is cls

    def test_an_object_of_no_builtin_kind_is_unsupported(self):
        with pytest.raises(ConfigError, match="unsupported evaluator"):
            EvalTask("A", 0.5)


class TestBridgeBuiltin:
    def test_cache_hit_skips_invocation(self):
        bridge = EvaluationBridge()
        task = EvalTask("A", ConstantTask(0.5))
        cp = cp_with_target(np.ones(4))
        first = bridge.evaluate(cp, task)
        second = bridge.evaluate(cp, task)
        assert first.value == second.value == 0.5
        assert bridge.invocations == 1
        assert bridge.cache_hits == 1

    def test_cache_keyed_by_task(self):
        bridge = EvaluationBridge()
        cp = cp_with_target(np.ones(4))
        bridge.evaluate(cp, EvalTask("A", ConstantTask(0.1)))
        res = bridge.evaluate(cp, EvalTask("B", ConstantTask(0.9)))
        assert res.value == 0.9
        assert bridge.invocations == 2

    def test_cache_survives_restart(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        cp = cp_with_target(np.ones(4))
        task = EvalTask("A", ConstantTask(0.25))
        bridge1 = EvaluationBridge(EvalCache(cache_path))
        bridge1.evaluate(cp, task)
        bridge2 = EvaluationBridge(EvalCache(cache_path))
        res = bridge2.evaluate(cp, task)
        assert res.value == 0.25
        assert bridge2.invocations == 0
        assert bridge2.cache_hits == 1

    def test_cache_keyed_by_evaluator_not_timeout(self, tmp_path):
        cache_path = tmp_path / "cache.jsonl"
        cp = cp_with_target(np.ones(4))
        bridge = EvaluationBridge(EvalCache(cache_path))
        assert bridge.evaluate(cp, EvalTask("A", ConstantTask(0.25))).value == 0.25
        assert bridge.evaluate(cp, EvalTask("A", ConstantTask(0.75))).value == 0.75
        rerun = EvaluationBridge(EvalCache(cache_path))
        assert rerun.evaluate(cp, EvalTask("A", ConstantTask(0.75), timeout=5.0)).value == 0.75
        assert (bridge.invocations, rerun.invocations, rerun.cache_hits) == (2, 0, 1)

    def test_old_format_cache_lines_are_evaluated_again(self, tmp_path):
        cp = cp_with_target(np.ones(4))
        cache_path = tmp_path / "cache.jsonl"
        old = json.dumps({"fingerprint": fingerprint(cp), "task_id": "A", "score": 0.9})
        cache_path.write_text(old + "\n")
        bridge = EvaluationBridge(EvalCache(cache_path))
        assert cache_path.read_text() == ""  # the rewrite on load drops the old line
        task = EvalTask("A", ConstantTask(0.25))
        assert bridge.evaluate(cp, task).value == 0.25
        assert (bridge.invocations, bridge.cache_hits) == (1, 0)
        (line,) = cache_path.read_text().splitlines()
        assert json.loads(line) == {"v": 2, "key": fingerprint(cp), "task_id": "A",
                                    "evaluator": task.identity, "score": 0.25}

    def test_concurrent_callers_share_one_evaluation(self, monkeypatch):
        runs = []

        def slow_failure(spec, cp):
            runs.append(spec)
            time.sleep(0.3)
            raise EvaluatorError("evaluator crashed")

        monkeypatch.setattr(ConstantTask, "score", slow_failure)
        bridge = EvaluationBridge(parallel=4)
        task = EvalTask("A", ConstantTask(0.5))
        cps = [cp_with_target(np.ones(4)) for _ in range(4)]  # equal, not shared

        def attempt(cp):
            try:
                bridge.evaluate(cp, task)
            except EvaluatorError as exc:
                return exc

        errors = bridge.map(attempt, cps)
        assert len(runs) == 1 and bridge.invocations == 0
        assert bridge.cache_hits == 3
        assert all(exc is errors[0] for exc in errors) and errors[0] is not None
        # A failed evaluation is not cached: the next caller runs it again.
        monkeypatch.undo()
        assert bridge.evaluate(cps[0], task).value == 0.5 and bridge.invocations == 1

    @pytest.mark.parametrize(
        "outcome, error, message",
        [
            (math.nan, EvaluatorError, "task 'A': non-finite score nan"),
            (True, EvaluatorError, "task 'A': 'score' is not a number: True"),
            (EvaluatorError("target gone"), EvaluatorError, "task 'A': target gone"),
            (TypeError("a bug"), TypeError, "a bug"),
        ],
        ids=["NaN", "bool", "evaluator error", "other error"],
    )
    def test_a_builtins_outcome_passes_the_score_rule(self, monkeypatch, outcome, error, message):
        """A builtin's return passes the score rule, and its failure or an
        EvaluatorError from the builtin names the task; an exception of
        another kind is raised as it is."""

        def score(spec, cp):
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(ConstantTask, "score", score)
        with pytest.raises(error) as info:
            EvaluationBridge().evaluate(cp_with_target(np.ones(4)), EvalTask("A", ConstantTask()))
        assert str(info.value) == message

    def test_cached_equals_fresh_for_builtin(self):
        task_spec = SyntheticLinearTask(seed=3, dim=DIM, n_eval=200, target="head.w")
        cp = cp_with_target(np.linspace(-2, 2, DIM))
        bridge = EvaluationBridge()
        cached = bridge.evaluate(cp, EvalTask("A", task_spec)).value
        assert cached == task_spec.score(cp)
        assert bridge.evaluate(cp, EvalTask("A", task_spec)).value == cached


class TestExternalProtocol:
    def test_score_echo(self, script_evaluator):
        cmd = script_evaluator(
            """
            import sys
            print('{"score": 0.75}')
            """
        )
        bridge = EvaluationBridge()
        res = bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        assert res.value == 0.75

    def test_checkpoint_path_substituted(self, script_evaluator):
        cmd = script_evaluator(
            """
            import json, struct, sys
            blob = open(sys.argv[1], 'rb').read()
            n = struct.unpack('<Q', blob[:8])[0]
            header = json.loads(blob[8:8+n])
            names = [k for k in header if k != '__metadata__']
            print(json.dumps({"score": float(len(names))}))
            """
        )
        bridge = EvaluationBridge()
        cp = checkpoint_from_arrays({"a": [1.0], "b": [2.0]})
        assert bridge.evaluate(cp, EvalTask("A", cmd)).value == 2.0

    def test_nonzero_exit_surfaces_stderr(self, script_evaluator):
        cmd = script_evaluator(
            """
            import sys
            print("model exploded", file=sys.stderr)
            sys.exit(3)
            """
        )
        bridge = EvaluationBridge()
        with pytest.raises(EvaluatorError, match="model exploded"):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))

    def test_stdout_noise_rejected(self, script_evaluator):
        cmd = script_evaluator(
            """
            print("loading model...")
            print('{"score": 0.5}')
            """
        )
        bridge = EvaluationBridge()
        with pytest.raises(EvaluatorError, match="single JSON object"):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))

    def test_non_numeric_score_rejected(self, script_evaluator):
        cmd = script_evaluator("""print('{"score": "high"}')""")
        bridge = EvaluationBridge()
        with pytest.raises(EvaluatorError, match="not a number"):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("""print('{"score": ' + '9' * 400 + '}')""", "out of range"),
            ("""print('{"score": ' + '9' * 5000 + '}')""", "not a single JSON object"),
            ("""print('[' * 100_000 + ']' * 100_000)""", "not a single JSON object"),
        ],
        ids=["400-digit score", "5000-digit score", "100000-deep stdout"],
    )
    def test_stdout_a_float_or_the_parser_cannot_hold_is_rejected(
        self, script_evaluator, body, message
    ):
        cmd = script_evaluator(body)
        bridge = EvaluationBridge()
        with pytest.raises(EvaluatorError, match=message):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))

    def test_non_finite_score_rejected(self, script_evaluator):
        cmd = script_evaluator("""print('{"score": NaN}')""")
        bridge = EvaluationBridge()
        with pytest.raises(EvaluatorError, match="non-finite"):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))

    def test_timeout(self, script_evaluator):
        cmd = script_evaluator(
            """
            import time
            time.sleep(60)
            """
        )
        bridge = EvaluationBridge()
        task = EvalTask("A", cmd, timeout=0.5)
        with pytest.raises(EvaluatorError, match="timed out"):
            bridge.evaluate(cp_with_target(np.ones(3)), task)

    def test_timeout_kills_the_evaluators_process_group(self, script_evaluator, tmp_path):
        pid_file = tmp_path / "grandchild.pid"
        cmd = script_evaluator(
            f"""
            import subprocess, time
            child = subprocess.Popen(["sleep", "7.25"])
            open({str(pid_file)!r}, "w").write(str(child.pid))
            time.sleep(60)
            """
        )
        task = EvalTask("A", cmd, timeout=1.0)
        with pytest.raises(EvaluatorError, match="timed out"):
            EvaluationBridge().evaluate(cp_with_target(np.ones(3)), task)
        stat = Path(f"/proc/{int(pid_file.read_text())}/stat")
        deadline = time.monotonic() + 2.0
        state = "?"
        while time.monotonic() < deadline:
            try:
                state = stat.read_text().rsplit(")", 1)[1].split()[0]
            except FileNotFoundError:
                return
            if state == "Z":
                return
            time.sleep(0.05)
        pytest.fail(f"grandchild sleep still running (state {state})")

    def test_stdout_that_is_not_utf8_is_an_evaluator_error(self, script_evaluator):
        cmd = script_evaluator(
            """
            import sys
            sys.stdout.buffer.write(b'\\xff{"score": 0.5}\\n')
            """
        )
        with pytest.raises(EvaluatorError, match="single JSON object.*\\ufffd"):
            EvaluationBridge().evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))

    def test_stderr_that_is_not_utf8_is_shown_with_replacement_characters(self, script_evaluator):
        cmd = script_evaluator(
            """
            import sys
            sys.stderr.buffer.write(b'bad \\xff byte\\n')
            sys.stderr.flush()
            print('{"score": 0.5}')
            """
        )
        bridge = EvaluationBridge()
        assert bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd)).value == 0.5
        failing = cmd.replace("eval.py", "fail.py")
        script_evaluator(
            """
            import sys
            sys.stderr.buffer.write(b'bad \\xff byte\\n')
            sys.exit(1)
            """,
            name="fail.py",
        )
        with pytest.raises(EvaluatorError, match="stderr: bad \ufffd byte"):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", failing))

    def test_timeout_is_capped_at_the_longest_poll(self, script_evaluator):
        # A poll waits at most 2**31 - 1 ms; above the cap subprocess raised
        # OverflowError at the first evaluation.
        assert evaluation.MAX_TIMEOUT == 2147483.0
        cmd = script_evaluator("""print('{"score": 0.25}')""")
        task = EvalTask("A", cmd, timeout=evaluation.MAX_TIMEOUT)
        assert EvaluationBridge().evaluate(cp_with_target(np.ones(3)), task).value == 0.25
        for above in (math.nextafter(evaluation.MAX_TIMEOUT, math.inf), 1e7, math.nan):
            with pytest.raises(ConfigError, match="<= 2147483, got"):
                EvalTask("A", cmd, timeout=above)

    def test_placeholder_required(self):
        with pytest.raises(ConfigError, match="placeholder"):
            EvalTask("A", "python eval.py")

    def _seen_candidate(self, script_evaluator, tmp_path):
        """An evaluator that records the candidate path it was given."""
        seen = tmp_path / "seen.txt"
        cmd = script_evaluator(
            f"""
            import sys
            open({str(seen)!r}, "w").write(sys.argv[1])
            print('{{"score": 1.0}}')
            """
        )
        return cmd, seen

    def test_keep_candidates(self, script_evaluator, tmp_path):
        cmd, seen = self._seen_candidate(script_evaluator, tmp_path)
        keep = tmp_path / "keep"
        bridge = EvaluationBridge(keep_dir=keep)
        bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        assert list(keep.glob("cand-*.safetensors")) == [Path(seen.read_text())]

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_a_candidate_scored_by_two_tasks_is_kept_once(
        self, script_evaluator, tmp_path, monkeypatch, parallel
    ):
        cmd, _ = self._seen_candidate(script_evaluator, tmp_path)
        writes = []

        def counting(cp, fh):
            writes.append(cp)
            return write_checkpoint(cp, fh)

        monkeypatch.setattr(evaluation, "write_checkpoint", counting)
        keep = tmp_path / "keep"
        bridge = EvaluationBridge(keep_dir=keep, parallel=parallel)
        cp = cp_with_target(np.ones(3))
        bridge.map(lambda task_id: bridge.evaluate(cp, EvalTask(task_id, cmd)), "AB")
        assert bridge.invocations == 2
        # The second task reads the kept file; at 2, the tasks may race to write it.
        assert len(writes) == 1 if parallel == 1 else 1 <= len(writes) <= 2
        (kept,) = keep.iterdir()
        assert kept.name == f"cand-{fingerprint(cp)}.safetensors"
        assert kept.read_bytes() == checkpoint_to_bytes(cp)

    def test_candidates_deleted_by_default(self, script_evaluator, tmp_path, monkeypatch):
        cmd, seen = self._seen_candidate(script_evaluator, tmp_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        bridge = EvaluationBridge()
        bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        # Written to tempfile's directory, and removed once scored.
        assert Path(seen.read_text()).parent == scratch
        assert not list(scratch.iterdir())

    def test_candidates_written_to_the_scratch_dir_as_temp_files(self, script_evaluator, tmp_path):
        cmd, seen = self._seen_candidate(script_evaluator, tmp_path)
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        bridge = EvaluationBridge(scratch_dir=scratch)
        bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        # Named so that remove_stale_temps removes one a killed run left.
        (key,) = bridge.evaluated_keys
        path = Path(seen.read_text())
        assert path.parent == scratch and path.name.startswith(f".cand-{key[:12]}.")
        assert _TEMP_NAME.fullmatch(path.name)
        assert not list(scratch.iterdir())

    @pytest.mark.parametrize(
        "body, error",
        [
            ("""print('{"score": 1.0}')""", None),
            ("import sys; sys.exit(1)", "exited 1"),
            (None, "cannot run evaluator"),  # no such program
            ("import time; time.sleep(60)", "timed out"),
        ],
        ids=["scores", "exits 1", "cannot start", "times out"],
    )
    def test_a_scratch_candidate_is_removed_on_every_exit(
        self, script_evaluator, tmp_path, monkeypatch, body, error
    ):
        writes = []

        def counting(cp, fh):
            writes.append(cp)
            return write_checkpoint(cp, fh)

        monkeypatch.setattr(evaluation, "write_checkpoint", counting)
        cmd = script_evaluator(body) if body else f"{tmp_path / 'missing'} {{checkpoint}}"
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        bridge = EvaluationBridge(scratch_dir=scratch)
        task = EvalTask("A", cmd, timeout=0.5)
        with pytest.raises(EvaluatorError, match=error) if error else contextlib.nullcontext():
            bridge.evaluate(cp_with_target(np.ones(3)), task)
        assert len(writes) == 1
        assert not list(scratch.iterdir())

    @pytest.mark.parametrize("kept", [True, False], ids=["kept", "scratch"])
    def test_a_candidate_whose_write_fails_leaves_no_temp_file(
        self, script_evaluator, tmp_path, monkeypatch, kept
    ):
        cmd, seen = self._seen_candidate(script_evaluator, tmp_path)

        def failing(cp, fh):
            fh.write(b"half a header")
            raise OSError("no space left on device")

        monkeypatch.setattr(evaluation, "write_checkpoint", failing)
        where = tmp_path / "candidates"
        where.mkdir()
        bridge = EvaluationBridge(**{"keep_dir" if kept else "scratch_dir": where})
        with pytest.raises(OSError, match="no space left"):
            bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        assert not list(where.iterdir())
        assert not seen.exists()  # the evaluator never ran

    def test_parallel_evaluate_many(self, script_evaluator):
        cmd = script_evaluator(
            """
            import sys
            blob = open(sys.argv[1], 'rb').read()
            print('{"score": %d}' % len(blob))
            """
        )
        bridge = EvaluationBridge(parallel=4)
        cps = [cp_with_target(np.full(i + 1, 1.0)) for i in range(6)]
        jobs = [(cp, EvalTask("A", cmd)) for cp in cps]
        results = bridge.map(lambda job: bridge.evaluate(*job), jobs)
        # Larger tensors serialize to strictly larger files, so the file-size
        # scores must come back in submission order.
        values = [r.value for r in results]
        assert values == sorted(values) and len(set(values)) == len(values)


class TestMap:
    """``EvaluationBridge.map`` is the ordered, bounded, lazy pool."""

    @pytest.mark.parametrize("parallel", [1, 2, 4])
    def test_lazy_bounded_and_in_order(self, parallel):
        bridge = EvaluationBridge(parallel=parallel)
        lock = threading.Lock()
        state = {"taken": 0, "finished": 0, "most_outstanding": 0, "taken_by": set()}

        def items():
            for i in range(24):
                with lock:
                    state["taken"] += 1
                    outstanding = state["taken"] - state["finished"]
                    state["most_outstanding"] = max(state["most_outstanding"], outstanding)
                state["taken_by"].add(threading.get_ident())
                yield i

        def call(i):
            time.sleep(0.001 * ((i * 7) % 5))  # finish out of order
            with lock:
                state["finished"] += 1
            return i * i

        assert bridge.map(call, items()) == [i * i for i in range(24)]
        assert state["taken_by"] == {threading.get_ident()}
        assert state["most_outstanding"] == parallel

    @pytest.mark.parametrize("parallel", [1, 2, 4])
    def test_map_drops_each_finished_item_before_taking_the_next(self, parallel, monkeypatch):
        """A generator of large items, such as sweep candidates, then holds
        at most ``parallel`` of them at a time: as the next one is built,
        only the calls still running hold theirs.  A pool thread that is
        slow to drop its work item after a call returns keeps no item."""
        from concurrent.futures import thread

        run = thread._WorkItem.run

        def lingering_run(work_item):
            run(work_item)
            time.sleep(0.01)

        monkeypatch.setattr(thread._WorkItem, "run", lingering_run)

        class Item:
            pass

        alive = weakref.WeakSet()
        seen = []

        def track(item):
            alive.add(item)
            return item

        def items():
            for _ in range(12):
                seen.append(len(alive))  # items still referenced as the next is built
                yield track(Item())

        EvaluationBridge(parallel=parallel).map(lambda item: None, items())
        assert max(seen) <= parallel - 1

    @pytest.mark.parametrize("parallel", [1, 2, 4])
    def test_first_failure_in_item_order_stops_taking_items(self, parallel):
        bridge = EvaluationBridge(parallel=parallel)
        taken = []

        def items():
            for i in range(50):
                taken.append(i)
                yield i

        def call(i):
            # Items 5 and 6 fail, and the later failure finishes first.
            if i >= 5:
                time.sleep(0.0 if i == 6 else 0.05)
            if i in (5, 6):
                raise EvaluatorError(f"item {i}")
            return i

        with pytest.raises(EvaluatorError, match="item 5"):
            bridge.map(call, items())
        # Once item 6 has failed, no slot frees up for another item.
        assert len(taken) <= 5 + parallel

    @pytest.mark.parametrize("parallel", [1, 2])
    def test_failure_to_take_an_item_waits_for_the_calls_before_it(self, parallel):
        bridge = EvaluationBridge(parallel=parallel)

        def items():
            yield 0
            yield 1
            raise FormatError("cannot build item 2")

        def call(i):
            time.sleep(0.02)
            if i == 1:
                raise EvaluatorError("item 1")
            return i

        # Item 1 fails before item 2 would be built in the serial loop.
        with pytest.raises(EvaluatorError, match="item 1"):
            bridge.map(call, items())
        with pytest.raises(FormatError, match="item 2"):
            bridge.map(lambda i: i, items())


class TestCacheFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "cache.jsonl"
        path.write_text(text)
        return path

    def test_torn_last_line_truncated(self, tmp_path):
        good = '{"v": 2, "key": "f1", "task_id": "A", "evaluator": "e1", "score": 0.5}\n'
        path = self._write(tmp_path, good + '{"v": 2, "key": "f2", "ta')
        cache = EvalCache(path)
        assert cache.get("f1", "A", "e1") == 0.5 and len(cache) == 1
        assert path.read_text() == good
        cache.put("f2", "A", "e1", 0.25)
        assert len(EvalCache(path)) == 2

    def test_entry_missing_only_its_newline_kept(self, tmp_path):
        line = '{"v": 2, "key": "f1", "task_id": "A", "evaluator": "e1", "score": 0.5}'
        path = self._write(tmp_path, line)
        assert EvalCache(path).get("f1", "A", "e1") == 0.5
        assert path.read_text() == line + "\n"

    @pytest.mark.parametrize(
        "text",
        [
            '{"v": 2, "key": "f1"\n{}\n',
            '[1, 2]\n\n',
            '{"v": 2, "key": "f1", "task_id": "A", "evaluator": "e1"}\n',
        ],
    )
    def test_corruption_elsewhere_raises(self, tmp_path, text):
        path = self._write(tmp_path, text)
        with pytest.raises(FormatError, match="line 1"):
            EvalCache(path)
        assert path.read_text() == text

    @pytest.mark.parametrize(
        "score", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400, "true", '"0.5"'],
        ids=["NaN", "Infinity", "-Infinity", "1e999", "1e400 as an integer", "true", "string"],
    )
    def test_a_score_that_is_not_a_finite_number_is_corruption(self, tmp_path, score):
        """json reads each of these scores; none may come back from the
        cache.  Before the last line it is an error naming the line, and as
        a torn last line it is truncated away, so the entry is evaluated
        again."""
        good = '{"v": 2, "key": "f1", "task_id": "A", "evaluator": "e1", "score": 0.5}\n'
        bad = good.replace("f1", "f2").replace("0.5", score)
        path = self._write(tmp_path, bad + good)
        with pytest.raises(FormatError, match="line 1"):
            EvalCache(path)
        assert path.read_text() == bad + good
        path.write_text(good + bad.rstrip("\n"))
        cache = EvalCache(path)
        assert len(cache) == 1 and cache.get("f2", "A", "e1") is None
        assert path.read_text() == good


@st.composite
def cache_lines(draw, min_size=0):
    """Valid cache lines, each ending in a newline: distinct keys, some in
    an older format (no ``"v"``), which loading skips, and some written
    without escaping non-ASCII text, so a cut may split a character."""
    lines = []
    for number in range(draw(st.integers(min_size, 6))):
        entry = {"key": f"f{number}", "task_id": draw(st.sampled_from("AB")),
                 "evaluator": draw(st.text(max_size=6)),
                 "score": draw(st.floats(allow_nan=False, allow_infinity=False))}
        if draw(st.booleans()):
            entry["v"] = evaluation.CACHE_VERSION
        lines.append(json.dumps(entry, ensure_ascii=draw(st.booleans())).encode() + b"\n")
    return lines


def _cache_at(tmp, data):
    path = Path(tmp) / "cache.jsonl"
    path.write_bytes(data)
    return path


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_cache_cut_at_any_byte_keeps_the_lines_whose_json_it_holds(data):
    """A crash may cut the file anywhere: a line whose whole JSON lies
    before the cut is kept, the rest of the file is dropped.  Loading
    rewrites the file in its canonical form: one line per kept v2 entry,
    in key order, which loading again leaves as it is."""
    lines = data.draw(cache_lines())
    cut = data.draw(st.integers(0, sum(map(len, lines))))
    kept, end = [], 0
    for line in lines:
        end += len(line)
        if end - 1 > cut:
            break
        kept.append(line)
    scores = {}
    for line in kept:
        entry = json.loads(line)
        if entry.get("v") == evaluation.CACHE_VERSION:
            scores[entry["key"], entry["task_id"], entry["evaluator"]] = entry["score"]
    canonical = b"".join(
        json.dumps({"v": evaluation.CACHE_VERSION, "key": key, "task_id": task_id,
                    "evaluator": evaluator, "score": score}).encode() + b"\n"
        for (key, task_id, evaluator), score in sorted(scores.items())
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = _cache_at(tmp, b"".join(lines)[:cut])
        cache = EvalCache(path)
        assert path.read_bytes() == canonical
        EvalCache(path)
        assert path.read_bytes() == canonical
    assert len(cache) == len(scores)
    for line in lines:
        entry = json.loads(line)
        slot = (entry["key"], entry["task_id"], entry["evaluator"])
        assert cache.get(*slot) == scores.get(slot)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_a_cut_line_that_a_newline_ends_is_an_error_naming_it(data):
    """A cut line that a newline ends is not a torn append, which is a
    prefix of one whole line: it is corrupt, the last one included."""
    lines = data.draw(cache_lines(min_size=1))
    torn = data.draw(st.integers(0, len(lines) - 1))
    line = lines[torn]
    lines[torn] = line[:data.draw(st.integers(1, len(line) - 2))] + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = _cache_at(tmp, b"".join(lines))
        with pytest.raises(FormatError, match=f"corrupt cache entry on line {torn + 1}:"):
            EvalCache(path)
        assert path.read_bytes() == b"".join(lines)
