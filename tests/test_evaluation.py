import json

import numpy as np
import pytest

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
        results = bridge.evaluate_many(jobs)
        # Larger tensors serialize to strictly larger files, so the file-size
        # scores must come back in submission order.
        values = [r.value for r in results]
        assert values == sorted(values) and len(set(values)) == len(values)


class TestCacheFile:
    def _write(self, tmp_path, text):
        path = tmp_path / "cache.jsonl"
        path.write_text(text)
        return path

    def test_torn_last_line_truncated(self, tmp_path):
        good = '{"fingerprint": "f1", "task_id": "A", "score": 0.5}\n'
        path = self._write(tmp_path, good + '{"fingerprint": "f2", "ta')
        cache = EvalCache(path)
        assert cache.get("f1", "A") == 0.5 and len(cache) == 1
        assert path.read_text() == good
        cache.put("f2", "A", 0.25)
        assert len(EvalCache(path)) == 2

    def test_entry_missing_only_its_newline_kept(self, tmp_path):
        line = '{"fingerprint": "f1", "task_id": "A", "score": 0.5}'
        path = self._write(tmp_path, line)
        assert EvalCache(path).get("f1", "A") == 0.5
        assert path.read_text() == line + "\n"

    @pytest.mark.parametrize(
        "text", ['{"fingerprint": "f1"\n{}\n', '[1, 2]\n\n', '{"fingerprint": "f1", "task_id": "A"}\n']
    )
    def test_corruption_elsewhere_raises(self, tmp_path, text):
        path = self._write(tmp_path, text)
        with pytest.raises(FormatError, match="line 1"):
            EvalCache(path)
        assert path.read_text() == text
