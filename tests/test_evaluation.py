import json
import threading
import time
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
    synthetic_linear_eval,
)
from himerge.checkpoint import fingerprint
from himerge.evaluation import synthetic_composite_eval

from conftest import checkpoint_from_arrays


DIM = 64


def cp_with_target(w, name="head.w"):
    return checkpoint_from_arrays({name: np.asarray(w, dtype=np.float32)})


class TestSyntheticLinear:
    def test_optimum_scores_one(self):
        task = SyntheticLinearTask(seed=5, dim=DIM, n_eval=500, target="head.w")
        w_star = hidden_optimum(5, DIM)
        assert synthetic_linear_eval(cp_with_target(w_star), task) == 1.0

    def test_negated_optimum_scores_zero(self):
        task = SyntheticLinearTask(seed=5, dim=DIM, n_eval=500, target="head.w")
        w_star = hidden_optimum(5, DIM)
        assert synthetic_linear_eval(cp_with_target(-w_star), task) == 0.0

    def test_orthogonal_scores_near_half(self):
        task = SyntheticLinearTask(seed=9, dim=256, n_eval=4000, target="head.w")
        w_star = hidden_optimum(9, 256)
        rng = np.random.default_rng(123)
        v = rng.standard_normal(256)
        v -= (v @ w_star) / (w_star @ w_star) * w_star
        score = synthetic_linear_eval(cp_with_target(v), task)
        assert abs(score - 0.5) <= 3 / np.sqrt(4000)

    def test_determinism_bitwise(self):
        task = SyntheticLinearTask(seed=11, dim=DIM, n_eval=777, target="head.w")
        cp = cp_with_target(np.linspace(-1, 1, DIM))
        assert synthetic_linear_eval(cp, task) == synthetic_linear_eval(cp, task)

    def test_missing_target(self):
        task = SyntheticLinearTask(seed=1, dim=DIM, n_eval=10, target="nope")
        with pytest.raises(EvaluatorError, match="nope"):
            synthetic_linear_eval(cp_with_target(np.zeros(DIM)), task)

    def test_ill_shaped_target(self):
        task = SyntheticLinearTask(seed=1, dim=DIM, n_eval=10, target="head.w")
        bad = checkpoint_from_arrays({"head.w": np.zeros((8, 8), dtype=np.float32)})
        with pytest.raises(EvaluatorError, match="1-D"):
            synthetic_linear_eval(bad, task)

    def test_optimum_beats_perturbed_copy(self):
        task = SyntheticLinearTask(seed=21, dim=DIM, n_eval=2000, target="head.w")
        w_star = hidden_optimum(21, DIM)
        rng = np.random.default_rng(0)
        perturbed = w_star + rng.standard_normal(DIM) * 2.0
        good = synthetic_linear_eval(cp_with_target(w_star), task)
        worse = synthetic_linear_eval(cp_with_target(perturbed), task)
        assert good > worse


class TestSyntheticComposite:
    def test_shared_seed_shares_optimum(self):
        # A composite over one tensor with seed s must agree with the linear
        # task of seed s on the same tensor values (same optimum), up to the
        # probe stream.
        w_star = hidden_optimum(33, DIM)
        cp = cp_with_target(w_star)
        task = SyntheticCompositeTask(probe_seed=1, n_eval=300, targets=(("head.w", 33),))
        assert synthetic_composite_eval(cp, task) == 1.0

    def test_concatenation_order_matters(self):
        cp = checkpoint_from_arrays(
            {"a": np.ones(4, dtype=np.float32), "b": -np.ones(4, dtype=np.float32)}
        )
        t1 = SyntheticCompositeTask(probe_seed=2, n_eval=500, targets=(("a", 1), ("b", 2)))
        t2 = SyntheticCompositeTask(probe_seed=2, n_eval=500, targets=(("b", 1), ("a", 2)))
        assert synthetic_composite_eval(cp, t1) != synthetic_composite_eval(cp, t2)

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
        assert synthetic_composite_eval(cp, task) == 1.0


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

        def slow_failure(cp, spec):
            runs.append(spec)
            time.sleep(0.3)
            raise EvaluatorError("evaluator crashed")

        monkeypatch.setattr(evaluation, "run_builtin", slow_failure)
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
        assert cached == synthetic_linear_eval(cp, task_spec)
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

    def test_placeholder_required(self):
        with pytest.raises(ConfigError, match="placeholder"):
            EvalTask("A", "python eval.py")

    def test_keep_candidates(self, script_evaluator, tmp_path):
        cmd = script_evaluator("""print('{"score": 1.0}')""")
        scratch = tmp_path / "scratch"
        bridge = EvaluationBridge(scratch_dir=scratch, keep_candidates=True)
        bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        assert list(scratch.glob("cand-*.safetensors"))

    def test_candidates_deleted_by_default(self, script_evaluator, tmp_path):
        cmd = script_evaluator("""print('{"score": 1.0}')""")
        scratch = tmp_path / "scratch"
        bridge = EvaluationBridge(scratch_dir=scratch)
        bridge.evaluate(cp_with_target(np.ones(3)), EvalTask("A", cmd))
        assert not list(scratch.glob("cand-*.safetensors"))

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
