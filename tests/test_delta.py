import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from himerge import (
    CompatError,
    ConfigError,
    DeltaVector,
    PruneScaleParams,
    apply_delta,
    compute_delta,
    load_checkpoint,
    model_wise_process,
    prune_topp,
    save_delta,
)
from himerge.checkpoint import fingerprint, partition_layers
from himerge.delta import _retain_count

import reference_delta
from conftest import checkpoint_from_arrays, dyadic_random, random_checkpoint


def brute_force_topp(values: np.ndarray, p: float) -> np.ndarray:
    """Independent oracle: full Python sort on (|v| desc, index asc)."""
    flat = [float(v) for v in values.reshape(-1)]
    k = _retain_count(p, len(flat))
    order = sorted(range(len(flat)), key=lambda i: (-abs(flat[i]), i))
    keep = set(order[:k])
    out = np.zeros(len(flat), dtype=np.float32)
    for i in keep:
        out[i] = flat[i]
    return out.reshape(values.shape)


def delta_from_vector(values) -> DeltaVector:
    arr = np.asarray(values, dtype=np.float32)
    return DeltaVector("fp", {"w": arr})


class TestRetainCount:
    def test_exact_grid_products(self):
        # 0.1 * 30 floats to 3.0000000000000004; the decimal 0.1 gives 3.
        assert _retain_count(0.1, 30) == 3
        assert _retain_count(0.3, 10) == 3
        assert _retain_count(1 / 3, 3) == 1
        assert _retain_count(1.0, 17) == 17
        assert _retain_count(0.0, 17) == 0

    def test_fractional_rounds_up(self):
        assert _retain_count(0.25, 10) == 3
        assert _retain_count(0.101, 10) == 2

    def test_large_scope_is_exact(self):
        # 0.001 * 7_000_000_001 is 7_000_000.001, which a float tolerance
        # scaled by n would round down.
        assert _retain_count(0.001, 7_000_000_001) == 7_000_001

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_decimal_p_matches_integer_ceil(self, data):
        # p has at most six decimal places, so ceil(p * n) is an integer
        # ceil.  n is a multiple of the period after which p * n is whole,
        # plus at most 3, so p * n often lies just above an integer.
        micros = data.draw(st.integers(0, 10**6))
        period = 10**6 // math.gcd(micros, 10**6)
        n = data.draw(st.integers(0, 10**11 // period)) * period + data.draw(st.integers(0, 3))
        assert _retain_count(micros / 10**6, n) == -(-micros * n // 10**6)


class TestPruneTopp:
    def test_p_one_is_identity(self):
        delta = delta_from_vector([3.0, -1.0, 2.0, 0.5])
        out = prune_topp(delta, 1.0)
        assert np.array_equal(out.deltas["w"], delta.deltas["w"])

    def test_p_zero_zeroes_scope(self):
        delta = delta_from_vector([3.0, -1.0])
        out = prune_topp(delta, 0.0)
        assert not out.deltas["w"].any()

    def test_spec_example(self):
        delta = delta_from_vector([3.0, -1.0, 2.0, 0.5])
        out = prune_topp(delta, 0.5)
        assert out.deltas["w"].tolist() == [3.0, 0.0, 2.0, 0.0]

    def test_tie_breaks_by_ascending_index(self):
        delta = delta_from_vector([1.0, -1.0, 1.0])
        out = prune_topp(delta, 1 / 3)
        assert out.deltas["w"].tolist() == [1.0, 0.0, 0.0]

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(42)
        for trial in range(50):
            n = int(rng.integers(1, 400))
            values = rng.standard_normal(n).astype(np.float32)
            # Force ties by quantizing some magnitudes.
            if trial % 2:
                values = np.round(values * 4) / 4
            p = float(rng.uniform(0, 1))
            delta = delta_from_vector(values)
            ours = prune_topp(delta, p).deltas["w"]
            assert np.array_equal(ours, brute_force_topp(values, p)), (trial, p)

    def test_layer_scope_leaves_rest_untouched(self):
        cp = checkpoint_from_arrays(
            {
                "m.layers.0.w": [3.0, -1.0, 2.0, 0.5],
                "m.layers.1.w": [10.0, -20.0],
                "m.embed": [7.0],
            }
        )
        part = partition_layers(cp)
        delta = DeltaVector("fp", {n: cp.as_f32(n) for n in cp.names})
        out = prune_topp(delta, 0.5, partition=part, layers={0})
        assert out.deltas["m.layers.0.w"].tolist() == [3.0, 0.0, 2.0, 0.0]
        assert out.deltas["m.layers.1.w"].tolist() == [10.0, -20.0]
        assert out.deltas["m.embed"].tolist() == [7.0]

    def test_scope_spanning_layers_uses_shared_budget(self):
        cp = checkpoint_from_arrays(
            {"m.layers.0.w": [1.0, 5.0], "m.layers.1.w": [4.0, 0.5]}
        )
        part = partition_layers(cp)
        delta = DeltaVector("fp", {n: cp.as_f32(n) for n in cp.names})
        out = prune_topp(delta, 0.5, partition=part, layers={0, 1})
        assert out.deltas["m.layers.0.w"].tolist() == [0.0, 5.0]
        assert out.deltas["m.layers.1.w"].tolist() == [4.0, 0.0]

    def test_layer_scope_requires_partition(self):
        with pytest.raises(ConfigError):
            prune_topp(delta_from_vector([1.0]), 0.5, layers={0})

    @given(
        st.lists(
            st.floats(
                min_value=-8, max_value=8, allow_nan=False, width=32
            ).map(lambda x: round(x * 8) / 8),
            min_size=1,
            max_size=64,
        ),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=150, deadline=None)
    def test_properties(self, values, p):
        delta = delta_from_vector(values)
        arr = delta.deltas["w"]
        once = prune_topp(delta, p)
        out = once.deltas["w"]
        # Idempotence.
        assert np.array_equal(prune_topp(once, p).deltas["w"], out)
        # Sparsity bound and value preservation.
        k = _retain_count(p, arr.size)
        assert np.count_nonzero(out) <= k
        kept = out != 0
        assert np.array_equal(out[kept], arr[kept])

    @given(
        st.lists(
            st.floats(min_value=-8, max_value=8, allow_nan=False, width=32),
            min_size=1,
            max_size=48,
        ),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_nesting(self, values, p1, p2):
        p1, p2 = min(p1, p2), max(p1, p2)
        delta = delta_from_vector(values)
        small = prune_topp(delta, p1).deltas["w"]
        large = prune_topp(delta, p2).deltas["w"]
        assert np.all((small != 0) <= (large != 0))


# Few distinct magnitudes, so most cuts fall inside a run of ties.
TIED_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, np.inf, -np.inf]),
    st.integers(-4, 4).map(lambda i: i / 4),
    st.floats(width=32, allow_nan=False),
)
SHAPES = st.sampled_from([(), (1,), (5,), (2, 3), (0, 2)])


@st.composite
def scoped_prunes(draw, global_only=False):
    """(delta, p, partition, layers) over one to four tensors in up to three
    layers and a non-layer tensor; layers=None is the global scope."""
    n_tensors = draw(st.integers(1, 4))
    arrays = {}
    for i in range(n_tensors):
        layer = draw(st.sampled_from(["0", "1", "2", None]))
        name = f"m.embed{i}" if layer is None else f"m.layers.{layer}.w{i}"
        shape = draw(SHAPES)
        size = int(np.prod(shape, dtype=int))
        values = draw(st.lists(TIED_VALUES, min_size=size, max_size=size))
        arrays[name] = np.array(values, dtype=np.float32).reshape(shape)
    delta = DeltaVector("fp", arrays)
    partition = partition_layers(checkpoint_from_arrays(arrays))
    layers = None if global_only else draw(
        st.one_of(st.none(), st.sets(st.sampled_from(partition.all_layers())))
    )
    in_scope = [n for n in delta.names if layers is None or partition.layer_of(n) in layers]
    n = sum(delta.deltas[name].size for name in in_scope)
    p = draw(
        st.one_of(
            st.sampled_from([0.0, 1.0]),
            st.just((n - 1) / n if n else 0.5),  # k = N - 1
            st.floats(min_value=0, max_value=1),
        )
    )
    return delta, p, partition, layers


class TestAgainstReference:
    """Threshold selection against the argsort reference in reference_delta.py."""

    @given(scoped_prunes())
    @settings(max_examples=300, deadline=None)
    def test_byte_equal_to_argsort(self, case):
        delta, p, partition, layers = case
        ours = prune_topp(delta, p, partition=partition, layers=layers)
        expected = reference_delta.prune_topp(delta, p, partition=partition, layers=layers)
        assert ours.names == expected.names
        for name in delta.names:
            got, want = ours.deltas[name], expected.deltas[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name

    @given(scoped_prunes(global_only=True), st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_fused_prune_and_scale_byte_equal_to_prune_then_scale(self, case, s):
        delta, p, _, _ = case
        before = {name: arr.tobytes() for name, arr in delta.deltas.items()}
        with np.errstate(invalid="ignore"):  # inf * 0 in both
            ours = model_wise_process(delta, PruneScaleParams(p, s))
            expected = reference_delta.scale(reference_delta.prune_topp(delta, p), s)
        assert ours.names == expected.names
        for name in delta.names:
            got, want = ours.deltas[name], expected.deltas[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert delta.deltas[name].tobytes() == before[name], name  # input untouched

    @given(scoped_prunes(), st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0, 1))
    @settings(max_examples=300, deadline=None)
    def test_prune_and_scale_byte_equal_to_prune_then_scale_of_the_scope(self, case, s):
        delta, p, partition, layers = case
        before = {name: arr.tobytes() for name, arr in delta.deltas.items()}
        scope = [n for n in delta.names if layers is None or partition.layer_of(n) in layers]
        with np.errstate(invalid="ignore"):  # inf * 0 in both
            ours = prune_topp(delta, p, s, partition=partition, layers=layers)
            pruned = reference_delta.prune_topp(delta, p, partition=partition, layers=layers)
            expected = reference_delta.scale(pruned, s, names=scope)
        assert ours.names == expected.names
        for name in delta.names:
            got, want = ours.deltas[name], expected.deltas[name]
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert delta.deltas[name].tobytes() == before[name], name  # input untouched
            if name not in scope:
                assert got is delta.deltas[name], name
        n = sum(delta.deltas[name].size for name in scope)
        if s == 1.0 and _retain_count(p, n) >= n:
            assert ours is delta
        else:
            assert all(ours.deltas[name] is not delta.deltas[name] for name in scope)

    @pytest.mark.parametrize("p, signs", [(0.5, [True, False, False, False]),
                                          (1.0, [True, False, True, False])])
    def test_zero_scale_in_a_layer_scope_gives_negative_zero_for_kept_negatives(self, p, signs):
        delta = DeltaVector("fp", {
            "m.layers.0.w": np.array([-3.0, 1.0, -0.5, 2.0], dtype=np.float32),
            "m.layers.1.w": np.array([-1.0], dtype=np.float32),
        })
        partition = partition_layers(checkpoint_from_arrays(delta.deltas))
        out = prune_topp(delta, p, 0.0, partition=partition, layers={0})
        assert not out.deltas["m.layers.0.w"].any()
        assert np.signbit(out.deltas["m.layers.0.w"]).tolist() == signs
        assert out.deltas["m.layers.1.w"] is delta.deltas["m.layers.1.w"]

    def test_ties_fill_the_budget_in_flat_order_across_tensors(self):
        delta = DeltaVector("fp", {
            "a": np.array([1.0, 3.0], dtype=np.float32),
            "b": np.array(-1.0, dtype=np.float32),  # 0-d
            "c": np.array([], dtype=np.float32),
            "d": np.array([1.0, -1.0], dtype=np.float32),
        })
        for p, kept in [(0.2, [[0.0, 3.0], 0.0, [], [0.0, 0.0]]),
                        (0.4, [[1.0, 3.0], 0.0, [], [0.0, 0.0]]),
                        (0.6, [[1.0, 3.0], -1.0, [], [0.0, 0.0]]),
                        (0.8, [[1.0, 3.0], -1.0, [], [1.0, 0.0]])]:
            out = prune_topp(delta, p)
            assert [out.deltas[n].tolist() for n in "abcd"] == kept, p
            assert out.deltas["b"].shape == () and out.deltas["c"].shape == (0,)

    def test_zero_scale_gives_negative_zero_for_kept_negative_entries(self):
        delta = delta_from_vector([-3.0, 1.0, -0.5, 2.0])
        out = model_wise_process(delta, PruneScaleParams(0.5, 0.0)).deltas["w"]
        assert not out.any()
        assert np.signbit(out).tolist() == [True, False, False, False]

    def test_keeping_every_entry_scales_a_copy(self):
        delta = delta_from_vector([1.0, -2.0, 3.0, 4.0, 5.0])
        assert prune_topp(delta, 0.9) is delta  # ceil(0.9 * 5) = 5
        out = model_wise_process(delta, PruneScaleParams(0.9, 0.5))
        assert out.deltas["w"].tolist() == [0.5, -1.0, 1.5, 2.0, 2.5]
        assert delta.deltas["w"].tolist() == [1.0, -2.0, 3.0, 4.0, 5.0]

    def test_large_quantised_vector(self):
        rng = np.random.default_rng(11)
        values = np.round(rng.standard_normal(200_000) * 4) / 4
        values[::7] = -0.0
        delta = delta_from_vector(values)
        n = values.size
        for p in (0.0, 0.1, 0.5, 0.9, (n - 1) / n, 1.0):
            ours = prune_topp(delta, p).deltas["w"]
            assert ours.tobytes() == reference_delta.prune_topp(delta, p).deltas["w"].tobytes(), p


# Float32 bit patterns at the edges of Top_p's magnitude keys: +-0.0, the
# smallest and largest subnormal, the smallest normal, the largest finite
# value and +-inf.  Each magnitude appears at least twice in layer 0, and
# again outside it, so that a cut can fall on a tie within a scope and
# across tensors; layer 0 holds a 0-d and an empty tensor.
_EDGE_BITS = {
    "+0": 0x00000000, "-0": 0x80000000, "sub_min": 0x00000001, "-sub_max": 0x807FFFFF,
    "normal_min": 0x00800000, "-max": 0xFF7FFFFF, "inf": 0x7F800000, "-inf": 0xFF800000,
}


def _edge(names) -> np.ndarray:
    """The named edge values, in an array of the nesting of ``names``."""
    if isinstance(names, str):
        return np.uint32(_EDGE_BITS[names]).view(np.float32)
    return np.array([_edge(name) for name in names], dtype=np.float32)


EDGE_DELTA = DeltaVector("fp", {
    "m.embed": np.array(_edge("-max")),  # 0-d, outside every layer
    "m.layers.0.a": _edge(["+0", "sub_min", "-max", "inf", "-sub_max", "normal_min"]),
    "m.layers.0.b": np.zeros((0, 2), dtype=np.float32),
    "m.layers.0.c": np.array(_edge("-0")),  # 0-d
    "m.layers.0.d": _edge([["-inf", "normal_min", "-sub_max"], ["-max", "-0", "sub_min"]]),
    "m.layers.1.a": _edge(["normal_min", "-0", "inf", "sub_min"]),
})
EDGE_PARTITION = partition_layers(checkpoint_from_arrays(EDGE_DELTA.deltas))


def _edge_scope(layers) -> list[str]:
    return [n for n in EDGE_DELTA.names if layers is None or EDGE_PARTITION.layer_of(n) in layers]


def _edge_cases():
    """(layers, k, s): k = 0, each k whose cut splits a tie, k = N - 1 and
    k = N, for the global scope and layer 0, each with s in {0, 0.5, 1}."""
    for layers in (None, {0}):
        flat = np.concatenate([EDGE_DELTA.deltas[n].reshape(-1) for n in _edge_scope(layers)])
        mags = np.sort(np.abs(flat))[::-1]
        n = mags.size
        on_ties = [k for k in range(1, n) if mags[k - 1] == mags[k]]
        for k in sorted({0, *on_ties, n - 1, n}):
            for s in (0.0, 0.5, 1.0):
                yield layers, k, s


def _p_for(k: int, n: int) -> float:
    """A p whose retain count on n entries is k."""
    p = k / n
    while _retain_count(p, n) > k:
        p = math.nextafter(p, 0.0)
    assert _retain_count(p, n) == k
    return p


@pytest.mark.parametrize("layers, k, s", list(_edge_cases()))
def test_topp_at_the_bit_edges_is_byte_equal_to_the_reference(layers, k, s):
    scope = _edge_scope(layers)
    n = sum(EDGE_DELTA.deltas[name].size for name in scope)
    p = _p_for(k, n)
    with np.errstate(invalid="ignore"):  # inf * 0 in both
        ours = prune_topp(EDGE_DELTA, p, s, partition=EDGE_PARTITION, layers=layers)
        pruned = reference_delta.prune_topp(EDGE_DELTA, p, partition=EDGE_PARTITION, layers=layers)
        expected = reference_delta.scale(pruned, s, names=scope)
    assert (ours is EDGE_DELTA) == (k == n and s == 1.0)
    for name in EDGE_DELTA.names:
        got, want = ours.deltas[name], expected.deltas[name]
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name
        if name not in scope:
            assert got is EDGE_DELTA.deltas[name], name


class TestScaleAndProcess:
    def test_scale_identity_and_zero(self):
        delta = delta_from_vector([2.0, -4.0])
        assert np.array_equal(prune_topp(delta, 1.0, 1.0).deltas["w"], delta.deltas["w"])
        assert not prune_topp(delta, 1.0, 0.0).deltas["w"].any()

    def test_scale_elementwise(self):
        delta = delta_from_vector([2.0, -4.0])
        assert prune_topp(delta, 1.0, 0.5).deltas["w"].tolist() == [1.0, -2.0]

    def test_scale_range_checked(self):
        with pytest.raises(ConfigError):
            prune_topp(delta_from_vector([1.0]), 1.0, 1.5)
        with pytest.raises(ConfigError):
            PruneScaleParams(p=-0.1, s=0.5)

    def test_model_wise_process_spec_example(self):
        delta = delta_from_vector([3.0, -1.0, 2.0, 0.5])
        out = model_wise_process(delta, PruneScaleParams(0.5, 0.5))
        assert out.deltas["w"].tolist() == [1.5, 0.0, 1.0, 0.0]

    def test_p1_s1_identity(self):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(100).astype(np.float32)
        out = model_wise_process(delta_from_vector(arr), PruneScaleParams(1.0, 1.0))
        assert np.array_equal(out.deltas["w"], arr)

    def test_scale_then_prune_equals_prune_then_scale(self):
        rng = np.random.default_rng(1)
        arr = rng.standard_normal(200).astype(np.float32)
        delta = delta_from_vector(arr)
        for s in (0.25, 0.5, 1.0):
            a = prune_topp(prune_topp(delta, 0.3), 1.0, s).deltas["w"]
            b = prune_topp(prune_topp(delta, 1.0, s), 0.3).deltas["w"]
            assert np.array_equal(a, b)


class TestNonFiniteDeltas:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_compute_delta_names_the_first_bad_tensor(self, bad):
        base = checkpoint_from_arrays({"a": [1.0], "b": [1.0, 2.0], "c": [0.0]})
        model = checkpoint_from_arrays({"a": [1.0], "b": [1.0, bad], "c": [bad]})
        with pytest.raises(CompatError, match="tensor 'b'"):
            compute_delta(model, base, provenance="A")

    def test_overflowing_difference_is_rejected(self):
        base = checkpoint_from_arrays({"w": [-3e38]})
        model = checkpoint_from_arrays({"w": [3e38]})
        with pytest.raises(CompatError, match="tensor 'w'"):
            compute_delta(model, base)


class TestComputeApply:
    def test_identical_models_zero_delta(self):
        rng = np.random.default_rng(2)
        cp = random_checkpoint(rng)
        delta = compute_delta(cp, cp)
        assert all(not arr.any() for arr in delta.deltas.values())

    def test_direct_subtraction(self):
        base = checkpoint_from_arrays({"w": [1.0, 2.0]})
        model = checkpoint_from_arrays({"w": [1.5, 0.0]})
        delta = compute_delta(model, base)
        assert delta.deltas["w"].tolist() == [0.5, -2.0]

    def test_compat_failure_propagates(self):
        a = checkpoint_from_arrays({"w": [1.0]})
        b = checkpoint_from_arrays({"v": [1.0]})
        with pytest.raises(CompatError):
            compute_delta(a, b)

    def test_roundtrip_exact_on_dyadic_grid(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            base = random_checkpoint(rng)
            model = checkpoint_from_arrays(
                {n: dyadic_random(rng, base.as_f32(n).shape) for n in base.names}
            )
            delta = compute_delta(model, base)
            rebuilt = apply_delta(base, [delta])
            for name in base.names:
                assert np.array_equal(rebuilt.as_f32(name), model.as_f32(name))

    def test_roundtrip_within_rounding_on_arbitrary_floats(self):
        rng = np.random.default_rng(4)
        base = random_checkpoint(rng, dyadic=False)
        model = checkpoint_from_arrays(
            {n: rng.standard_normal(base.as_f32(n).shape).astype(np.float32) for n in base.names}
        )
        delta = compute_delta(model, base)
        rebuilt = apply_delta(base, [delta])
        for name in base.names:
            np.testing.assert_allclose(
                rebuilt.as_f32(name), model.as_f32(name), rtol=0, atol=1e-6
            )

    def test_empty_delta_list_returns_base(self):
        rng = np.random.default_rng(5)
        base = random_checkpoint(rng)
        out = apply_delta(base, [])
        for name in base.names:
            assert np.array_equal(out.as_f32(name), base.as_f32(name))

    def test_spec_addition_example(self):
        base = checkpoint_from_arrays({"w": [1.0, 1.0]})
        fp = fingerprint(base)
        da = DeltaVector(fp, {"w": np.array([0.5, 0.0], dtype=np.float32)})
        db = DeltaVector(fp, {"w": np.array([0.0, -1.0], dtype=np.float32)})
        out = apply_delta(base, [da, db])
        assert out.as_f32("w").tolist() == [1.5, 0.0]

    def test_fingerprint_mismatch(self):
        base = checkpoint_from_arrays({"w": [1.0]})
        stray = DeltaVector("not-the-base", {"w": np.zeros(1, dtype=np.float32)})
        with pytest.raises(CompatError, match="was computed against"):
            apply_delta(base, [stray])

    def test_linearity_within_one_ulp(self):
        rng = np.random.default_rng(6)
        base = random_checkpoint(rng, dyadic=False)
        model = checkpoint_from_arrays(
            {n: rng.standard_normal(base.as_f32(n).shape).astype(np.float32) for n in base.names}
        )
        delta = compute_delta(model, base)
        s = 0.37
        scaled = prune_topp(delta, 1.0, s)
        out = apply_delta(base, [scaled])
        for name in base.names:
            expected = base.as_f32(name) + scaled.deltas[name]
            got = out.as_f32(name)
            ulp = np.spacing(np.abs(expected).astype(np.float32))
            assert np.all(np.abs(got - expected) <= ulp)


def test_zero_extent_tensor_through_pipeline():
    base = checkpoint_from_arrays(
        {"m.layers.0.w": [1.0, 2.0], "m.layers.0.empty": np.zeros((0, 4), dtype=np.float32)}
    )
    model = checkpoint_from_arrays(
        {"m.layers.0.w": [3.0, 1.5], "m.layers.0.empty": np.zeros((0, 4), dtype=np.float32)}
    )
    delta = compute_delta(model, base)
    # N counts only real elements (2), so k = ceil(0.5 * 2) = 1.
    out = model_wise_process(delta, PruneScaleParams(0.5, 0.5))
    assert out.deltas["m.layers.0.empty"].shape == (0, 4)
    assert out.deltas["m.layers.0.w"].tolist() == [1.0, 0.0]
    rebuilt = apply_delta(base, [out])
    assert rebuilt.record("m.layers.0.empty").shape == (0, 4)


def test_delta_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    base = random_checkpoint(rng)
    model = checkpoint_from_arrays(
        {n: dyadic_random(rng, base.as_f32(n).shape) for n in base.names}
    )
    delta = compute_delta(model, base, provenance="model-a")
    path = tmp_path / "delta.safetensors"
    save_delta(delta, path)
    loaded = load_checkpoint(path)
    assert dict(loaded.metadata) == {
        "kind": "delta", "base_fingerprint": fingerprint(base), "provenance": "model-a"
    }
    assert loaded.names == delta.names
    for rec in loaded:
        assert rec.dtype == "f32"
        assert rec.as_f32().tobytes() == delta.deltas[rec.name].tobytes()
