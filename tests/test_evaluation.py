import json
import math
import tempfile
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest

from himerge import evaluation
from himerge import (
    ConfigError,
    ConstantTask,
    EvalCache,
    EvalTask,
    EvaluationBridge,
    EvaluatorError,
    FormatError,
    SyntheticCompositeTask,
    SyntheticLinearTask,
    hidden_optimum,
)
from himerge.checkpoint import _TEMP_NAME, checkpoint_to_bytes, fingerprint

from conftest import checkpoint_from_arrays


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
        assert bridge.evaluate(cp, EvalTask("A", ConstantTask(0.25))).value == 0.25
        assert (bridge.invocations, bridge.cache_hits) == (1, 0)
        lines = cache_path.read_text().splitlines()
        assert lines[0] == old and json.loads(lines[1])["v"] == 2

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
    def test_a_candidate_scored_by_two_tasks_is_kept_once(self, script_evaluator, tmp_path, parallel):
        cmd, _ = self._seen_candidate(script_evaluator, tmp_path)
        keep = tmp_path / "keep"
        bridge = EvaluationBridge(keep_dir=keep, parallel=parallel)
        cp = cp_with_target(np.ones(3))
        bridge.map(lambda task_id: bridge.evaluate(cp, EvalTask(task_id, cmd)), "AB")
        assert bridge.invocations == 2
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

    def test_serial_map_drops_each_item_before_taking_the_next(self):
        """A generator of large items, such as sweep candidates, then holds
        one of them at a time."""

        class Item:
            pass

        alive = weakref.WeakSet()
        seen = []

        def track(item):
            alive.add(item)
            return item

        def items():
            for _ in range(5):
                seen.append(len(alive))  # items still referenced as the next is built
                yield track(Item())

        EvaluationBridge(parallel=1).map(lambda item: None, items())
        assert seen == [0] * 5

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
