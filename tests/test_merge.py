import numpy as np
import pytest

from himerge import (
    CompatError,
    ConfigError,
    MergeWeights,
    assemble_final,
    compute_delta,
    delta_weighted_merge,
    weighted_average_merge,
)
from himerge.checkpoint import checkpoint_to_bytes, fingerprint

from conftest import checkpoint_from_arrays, random_checkpoint
from instances import delta_from_arrays


class TestMergeWeights:
    def test_positive_required(self):
        with pytest.raises(ConfigError):
            MergeWeights({"A": 0.0, "B": 1.0})
        with pytest.raises(ConfigError):
            MergeWeights({"A": -0.2, "B": 1.2})

    def test_convexity_check(self):
        MergeWeights({"A": 0.5, "B": 0.5}).require_convex()
        with pytest.raises(ConfigError, match="sum to 1"):
            MergeWeights({"A": 0.7, "B": 0.7}).require_convex()

    def test_weights_name_exactly_the_merged_models(self):
        a = checkpoint_from_arrays({"w": [1.0]})
        b = checkpoint_from_arrays({"w": [3.0]})
        three = MergeWeights({"A": 0.4, "B": 0.4, "C": 0.2})
        assert three.ordered(["C", "A", "B"]) == [0.2, 0.4, 0.4]
        mismatch = "merge weights are for models"
        # A and B's weights sum to 0.8: that is no average (it gave 1.6).
        with pytest.raises(ConfigError, match=mismatch):
            weighted_average_merge({"A": a, "B": b}, three)
        # The id mismatch is named before the weights' sum is checked.
        with pytest.raises(ConfigError, match=mismatch):
            weighted_average_merge({"A": a, "B": b}, MergeWeights({"A": 0.5}))
        with pytest.raises(ConfigError, match=mismatch):
            weighted_average_merge({"A": a}, MergeWeights({"A": 0.5, "B": 0.5}))
        with pytest.raises(ConfigError, match=mismatch):
            three.ordered(["A", "B", "C", "A"])

    def test_two_deltas_of_one_model_are_refused(self):
        base = checkpoint_from_arrays({"w": [0.0]})
        da = compute_delta(checkpoint_from_arrays({"w": [1.0]}), base, provenance="A")
        also_a = compute_delta(checkpoint_from_arrays({"w": [2.0]}), base, provenance="A")
        with pytest.raises(ConfigError, match="merge weights are for models"):
            delta_weighted_merge(base, [da, also_a], MergeWeights({"A": 0.5, "B": 0.5}))


class TestWeightedAverage:
    def test_identical_models_fixed_point(self):
        rng = np.random.default_rng(0)
        cp = random_checkpoint(rng)
        out = weighted_average_merge({"A": cp, "B": cp}, MergeWeights({"A": 0.25, "B": 0.75}))
        for name in cp.names:
            assert np.array_equal(out.as_f32(name), cp.as_f32(name))

    def test_simple_average(self):
        a = checkpoint_from_arrays({"w": [2.0]})
        b = checkpoint_from_arrays({"w": [4.0]})
        out = weighted_average_merge({"A": a, "B": b}, MergeWeights({"A": 0.5, "B": 0.5}))
        assert out.as_f32("w")[0] == 3.0

    def test_compat_enforced(self):
        a = checkpoint_from_arrays({"w": [1.0]})
        b = checkpoint_from_arrays({"w": [[1.0]]})
        with pytest.raises(CompatError):
            weighted_average_merge({"A": a, "B": b}, MergeWeights({"A": 0.5, "B": 0.5}))

    def test_convexity_bound_elementwise(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            shape = (int(rng.integers(1, 50)),)
            a = checkpoint_from_arrays({"w": rng.standard_normal(shape).astype(np.float32)})
            b = checkpoint_from_arrays({"w": rng.standard_normal(shape).astype(np.float32)})
            wa = float(rng.uniform(0.05, 0.95))
            out = weighted_average_merge(
                {"A": a, "B": b}, MergeWeights({"A": wa, "B": 1.0 - wa})
            )
            lo = np.minimum(a.as_f32("w"), b.as_f32("w"))
            hi = np.maximum(a.as_f32("w"), b.as_f32("w"))
            merged = out.as_f32("w")
            assert np.all(merged >= lo) and np.all(merged <= hi)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        a = random_checkpoint(rng, dyadic=False)
        b = checkpoint_from_arrays(
            {n: rng.standard_normal(a.as_f32(n).shape).astype(np.float32) for n in a.names}
        )
        w_ab = weighted_average_merge({"A": a, "B": b}, MergeWeights({"A": 0.3, "B": 0.7}))
        w_ba = weighted_average_merge({"B": b, "A": a}, MergeWeights({"A": 0.3, "B": 0.7}))
        assert checkpoint_to_bytes(w_ab) == checkpoint_to_bytes(w_ba)


class TestDeltaWeighted:
    def test_single_delta_unit_weight_matches_apply(self):
        rng = np.random.default_rng(3)
        base = random_checkpoint(rng)
        model = checkpoint_from_arrays(
            {n: rng.standard_normal(base.as_f32(n).shape).astype(np.float32) for n in base.names}
        )
        delta = compute_delta(model, base, provenance="A")
        out = delta_weighted_merge(base, [delta], MergeWeights({"A": 1.0}))
        from himerge import apply_delta

        ref = apply_delta(base, [delta])
        assert checkpoint_to_bytes(out) == checkpoint_to_bytes(ref)

    def test_zero_deltas_return_base(self):
        rng = np.random.default_rng(4)
        base = random_checkpoint(rng)
        delta = compute_delta(base, base, provenance="A")
        out = delta_weighted_merge(base, [delta], MergeWeights({"A": 0.9}))
        for name in base.names:
            assert np.array_equal(out.as_f32(name), base.as_f32(name))

    def test_cancellation(self):
        base = checkpoint_from_arrays({"w": [0.0]})
        fp = fingerprint(base)
        da = delta_from_arrays({"w": np.array([1.0], dtype=np.float32)}, fp, "A")
        db = delta_from_arrays({"w": np.array([-1.0], dtype=np.float32)}, fp, "B")
        out = delta_weighted_merge(base, [da, db], MergeWeights({"A": 0.5, "B": 0.5}))
        assert out.as_f32("w")[0] == 0.0


class TestEquationEquivalence:
    def test_eq1_matches_eq3_under_convex_weights(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            base = checkpoint_from_arrays(
                {"w": rng.uniform(-1, 1, size=64).astype(np.float32)}
            )
            a = checkpoint_from_arrays({"w": rng.uniform(-1, 1, size=64).astype(np.float32)})
            b = checkpoint_from_arrays({"w": rng.uniform(-1, 1, size=64).astype(np.float32)})
            wa = float(rng.uniform(0.05, 0.95))
            weights = MergeWeights({"A": wa, "B": 1.0 - wa})
            eq1 = weighted_average_merge({"A": a, "B": b}, weights)
            eq3 = delta_weighted_merge(
                base,
                [compute_delta(a, base, "A"), compute_delta(b, base, "B")],
                weights,
            )
            diff = np.abs(eq1.as_f32("w") - eq3.as_f32("w")).max()
            assert diff <= 1e-6


class TestAssembleFinal:
    def test_zero_deltas_give_base(self):
        rng = np.random.default_rng(6)
        base = random_checkpoint(rng)
        zero = compute_delta(base, base, "A")
        zero_b = compute_delta(base, base, "B")
        out = assemble_final(base, zero, zero_b)
        for name in base.names:
            assert np.array_equal(out.as_f32(name), base.as_f32(name))

    def test_dropped_b_reduces_to_base_plus_a(self):
        rng = np.random.default_rng(7)
        base = random_checkpoint(rng)
        model = checkpoint_from_arrays(
            {n: rng.standard_normal(base.as_f32(n).shape).astype(np.float32) for n in base.names}
        )
        da = compute_delta(model, base, "A")
        db = compute_delta(base, base, "B")
        out = assemble_final(base, da, db)
        from himerge import apply_delta

        ref = apply_delta(base, [da])
        assert checkpoint_to_bytes(out) == checkpoint_to_bytes(ref)

    def test_matches_unit_weight_delta_merge(self):
        rng = np.random.default_rng(8)
        base = random_checkpoint(rng)
        ma = checkpoint_from_arrays(
            {n: rng.standard_normal(base.as_f32(n).shape).astype(np.float32) for n in base.names}
        )
        mb = checkpoint_from_arrays(
            {n: rng.standard_normal(base.as_f32(n).shape).astype(np.float32) for n in base.names}
        )
        da, db = compute_delta(ma, base, "A"), compute_delta(mb, base, "B")
        out = assemble_final(base, da, db)
        ref = delta_weighted_merge(base, [da, db], MergeWeights({"A": 1.0, "B": 1.0}))
        assert checkpoint_to_bytes(out) == checkpoint_to_bytes(ref)
