"""Differential tests: each merge operation built on ``delta.combine``
against its own float64 loop in reference_merge.py, byte for byte."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference_merge as ref
from himerge import (
    Checkpoint,
    CompatError,
    MergeWeights,
    apply_delta,
    assemble_final,
    delta_weighted_merge,
    fingerprint,
    weighted_average_merge,
)
from himerge.analysis import shifted_checkpoint
from himerge.checkpoint import checkpoint_to_bytes
from himerge.cli import sweep_candidates
from himerge.delta import combine, compute_delta

import reference_delta

from conftest import record_from_array
from instances import delta_from_arrays

VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 65504.0]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
)
SHAPES = st.sampled_from([(), (1,), (3,), (2, 3)])
DTYPES = st.sampled_from(["f32", "f16", "bf16"])
SETTINGS = settings(max_examples=60, deadline=None)

# The library rejects a non-finite result with a CompatError; it must not
# also let numpy warn.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@st.composite
def layouts(draw):
    """{name: (shape, dtype)} for one to three tensors."""
    n = draw(st.integers(1, 3))
    return {f"model.layers.{i}.w": (draw(SHAPES), draw(DTYPES)) for i in range(n)}


def draw_array(draw, shape):
    size = int(np.prod(shape, dtype=int))
    values = draw(st.lists(VALUES, min_size=size, max_size=size))
    return np.array(values, dtype=np.float32).reshape(shape)


@st.composite
def instances(draw, n_terms=st.integers(0, 3)):
    """A reference checkpoint and float32 term arrays on the same tensors."""
    layout = draw(layouts())
    base = Checkpoint(
        [
            record_from_array(name, draw_array(draw, shape), dtype)
            for name, (shape, dtype) in layout.items()
        ]
    )
    terms = [
        {name: draw_array(draw, shape) for name, (shape, _) in layout.items()}
        for _ in range(draw(n_terms))
    ]
    return base, terms


def deltas_for(base, terms):
    fp = fingerprint(base)
    return [delta_from_arrays(arrays, fp, str(i)) for i, arrays in enumerate(terms)]


def outcome(fn, *args):
    """The canonical bytes of fn's result, or the CompatError message when
    a sum is not finite in its dtype (beyond 65504 in f16, say)."""
    try:
        return checkpoint_to_bytes(fn(*args))
    except CompatError as exc:
        return f"CompatError: {exc}"


def ref_outcome(fn, *args):
    """``outcome`` of a reference loop, which lets numpy warn on overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        return outcome(fn, *args)


@SETTINGS
@given(instances())
def test_apply_delta_matches_reference(inst):
    base, terms = inst
    deltas = deltas_for(base, terms)
    assert outcome(apply_delta, base, deltas) == ref_outcome(ref.apply_delta, base, deltas)


@SETTINGS
@given(instances(), st.lists(st.floats(0.01, 4.0), min_size=3, max_size=3))
def test_delta_weighted_merge_matches_reference(inst, raw_weights):
    base, terms = inst
    deltas = deltas_for(base, terms)
    weights = raw_weights[: len(deltas)]
    w = MergeWeights({str(i): wt for i, wt in enumerate(weights)})
    assert outcome(delta_weighted_merge, base, deltas, w) == ref_outcome(
        ref.delta_weighted_merge, base, deltas, weights
    )


@SETTINGS
@given(instances(n_terms=st.just(2)))
def test_assemble_final_matches_reference(inst):
    base, terms = inst
    delta_a, delta_b = deltas_for(base, terms)
    assert outcome(assemble_final, base, delta_a, delta_b) == ref_outcome(
        ref.assemble_final, base, delta_a, delta_b
    )


@SETTINGS
@given(instances(n_terms=st.integers(1, 3)), st.data())
def test_shifted_checkpoint_matches_reference(inst, data):
    base, terms = inst
    # Partial terms: each covers only some of the tensors.
    partial = [
        {n: a for n, a in arrays.items() if data.draw(st.booleans(), label=n)}
        for arrays in terms
    ]
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    result = outcome(shifted_checkpoint, base, partial, sign)
    assert result == ref_outcome(ref.shifted_checkpoint, base, partial, sign)
    if isinstance(result, str):
        return  # both rejected the overflow
    got = shifted_checkpoint(base, partial, sign)
    want = ref.shifted_checkpoint(base, partial, sign)
    assert (got is base) == (want is base)
    touched = {n for arrays in partial for n, a in arrays.items() if a.any()}
    for name in base.names:
        if name not in touched:
            assert got.record(name) is base.record(name)


@SETTINGS
@given(layouts(), st.lists(st.floats(0.05, 1.0), min_size=1, max_size=3), st.data())
def test_weighted_average_merge_matches_reference(layout, raw_weights, data):
    models = {
        f"M{i}": Checkpoint(
            [
                record_from_array(name, draw_array(data.draw, shape), dtype)
                for name, (shape, dtype) in layout.items()
            ]
        )
        for i in range(len(raw_weights))
    }
    total = sum(raw_weights)
    weights = [wt / total for wt in raw_weights]
    w = MergeWeights(dict(zip(models, weights)))
    assert outcome(weighted_average_merge, models, w) == ref_outcome(
        ref.weighted_average_merge, models, weights
    )


def test_negative_zero_survives_when_accumulating_from_the_reference():
    base = Checkpoint([record_from_array("w", np.array([-0.0], dtype=np.float32))])
    (delta,) = deltas_for(base, [{"w": np.array([-0.0], dtype=np.float32)}])
    out = apply_delta(base, [delta]).as_f32("w")
    assert np.signbit(out[0])


def test_weighted_average_accumulates_from_positive_zero():
    neg = Checkpoint([record_from_array("w", np.array([-0.0], dtype=np.float32))])
    out = weighted_average_merge({"A": neg, "B": neg}, MergeWeights({"A": 0.5, "B": 0.5}))
    assert not np.signbit(out.as_f32("w")[0])


# Single-term sums (one term of weight +1 or -1) run in float32 rather than
# float64.  These tests hold that path to the float64 reference loops at the
# edges of the three storage formats, given as float32 bit patterns.
EDGE_BITS = [
    0x00000000, 0x80000000,  # +0.0, -0.0
    0x00000001, 0x00000002, 0x007FFFFF, 0x00800000,  # f32 subnormals, smallest normal
    0x7F7FFFFF, 0x7F7FFFFE,  # f32 max and its neighbour
    0x477FE000, 0x477FEFFF, 0x477FF000,  # f16 max 65504, the last value that rounds to it, 65520
    0x33800000, 0x33000000, 0x38800000,  # f16's smallest subnormal, half of it, smallest normal
    0x7F7F0000, 0x7F7F7FFF, 0x7F7F8000,  # bf16 max, the last value that rounds to it, the tie above
    0x3F808000, 0x3F818000, 0x3F807FFF, 0x3F808001,  # bf16 ties to even, and their neighbours
    0x3F800000, 0x3F7FFFFF, 0x33FFFFFF,  # 1.0, just below it, a value with a full significand
]
_EXPONENT = 0x7F800000  # all ones in a NaN or an inf


def _finite(bits):
    return bits & _EXPONENT != _EXPONENT


def _from_bits(bits):
    return np.array(bits, dtype=np.uint32).view(np.float32)


def _edge_values():
    """Every edge pattern, its neighbours one ulp away, and their negations."""
    bits = {(b + d) & 0x7FFFFFFF for b in EDGE_BITS for d in (-1, 0, 1)}
    values = _from_bits(sorted(filter(_finite, bits)))
    return np.concatenate([values, -values])


EDGE_BIT_PATTERNS = st.one_of(
    st.sampled_from(EDGE_BITS).flatmap(
        lambda b: st.integers(-2, 2).map(lambda d: (b + d) & 0xFFFFFFFF)
    ),
    st.integers(0, 2**32 - 1),
).filter(_finite)


@st.composite
def single_term_instances(draw):
    """A one-tensor reference of any dtype and one float32 term, both
    drawn from edge bit patterns; the reference is finite in its dtype."""
    dtype = draw(DTYPES)
    size = draw(st.integers(1, 4))
    ref_values = _from_bits(draw(st.lists(EDGE_BIT_PATTERNS, min_size=size, max_size=size)))
    term = _from_bits(draw(st.lists(EDGE_BIT_PATTERNS, min_size=size, max_size=size)))
    base = Checkpoint([record_from_array("model.layers.0.w", ref_values, dtype)])
    assume(np.isfinite(base.as_f32("model.layers.0.w")).all())
    return base, {"model.layers.0.w": term}


@settings(max_examples=300, deadline=None)
@given(single_term_instances(), st.sampled_from([1.0, -1.0]))
def test_single_term_sums_match_the_float64_loops(inst, sign):
    base, term = inst
    if sign == 1.0:
        (delta,) = deltas_for(base, [term])
        assert outcome(apply_delta, base, [delta]) == ref_outcome(ref.apply_delta, base, [delta])
    assert outcome(shifted_checkpoint, base, [term], sign) == ref_outcome(
        ref.shifted_checkpoint, base, [term], sign
    )


@pytest.mark.parametrize("dtype", ["f32", "f16", "bf16"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_single_term_sums_match_on_every_pair_of_edge_values(dtype, sign):
    """Every (reference, term) pair of edge values at once, in one tensor.
    Pairs whose sum is not finite in the dtype are left out, since one of
    them rejects the whole tensor; the hypothesis test above covers them."""
    values = _edge_values()
    refs = record_from_array("w", values, dtype).as_f32()  # as stored in the dtype
    r, t = np.meshgrid(refs[np.isfinite(refs)], values, indexing="ij")
    r, t = r.ravel(), t.ravel()
    with np.errstate(over="ignore"):
        exact = (r.astype(np.float64) + sign * t.astype(np.float64)).astype(np.float32)
        finite = np.isfinite(record_from_array("w", exact, dtype).as_f32())
    base = Checkpoint([record_from_array("w", r[finite], dtype)])
    terms = [{"w": t[finite]}]
    got = shifted_checkpoint(base, terms, sign)
    assert checkpoint_to_bytes(got) == checkpoint_to_bytes(ref.shifted_checkpoint(base, terms, sign))
    if sign == 1.0:
        deltas = deltas_for(base, terms)
        assert checkpoint_to_bytes(apply_delta(base, deltas)) == checkpoint_to_bytes(
            ref.apply_delta(base, deltas)
        )


def _one_tensor(values, dtype):
    return Checkpoint([record_from_array("model.layers.0.w", values, dtype)])


@st.composite
def base_and_model(draw):
    """A base and a model of the same layout."""
    layout = draw(layouts())
    return tuple(
        Checkpoint([record_from_array(name, draw_array(draw, shape), dtype)
                    for name, (shape, dtype) in layout.items()])
        for _ in range(2)
    )


def reference_sweep(base, model, p_values, s_values):
    """Each cell by the formula kept here: ``combine(base, [Top_p * f32(s)])``,
    with the argsort Top_p of the whole delta."""
    delta = compute_delta(model, base, provenance="A")
    for p in p_values:
        top_p = reference_delta.prune_topp(delta, p)
        for s in s_values:
            factor = np.float32(s)
            yield p, s, combine(base, [lambda name: top_p.array(name) * factor])


def sweep_outcomes(cells):
    """(p, s, fingerprint) of each cell in row order, then the CompatError
    that ended the grid, if one did."""
    got = []
    try:
        for p, s, cp in cells:
            got.append((p, s, fingerprint(cp)))
    except CompatError as exc:
        got.append(f"CompatError: {exc}")
    return got


GRID = st.lists(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
                min_size=1, max_size=3, unique=True)


@SETTINGS
@given(base_and_model(), GRID, GRID)
# Signed zeros: +0.0 + -0.0 is +0.0 in either order.
@example((_one_tensor([-0.0, 0.0, -0.0, 1.0], "f16"), _one_tensor([0.0, -0.0, -0.0, 1.0], "f16")),
         [0.0, 0.5, 1.0], [0.0, 1.0])
# Near each dtype's maximum: the cells stay finite, or the delta is an inf.
@example((_one_tensor([-65504.0, 65504.0], "f16"), _one_tensor([65504.0, -65504.0], "f16")),
         [0.0, 0.5, 1.0], [0.0, 0.5, 1.0])
@example((_one_tensor([3.3e38, -1.0], "bf16"), _one_tensor([3.38e38, 1.0], "bf16")),
         [0.5, 1.0], [0.5, 1.0])
@example((_one_tensor([-3e38, 1.0], "bf16"), _one_tensor([3e38, 2.0], "bf16")), [1.0], [1.0])
@example((_one_tensor([-3e38, 1.0], "f32"), _one_tensor([3e38, 2.0], "f32")), [0.0, 1.0], [0.0])
def test_sweep_cells_match_one_combine_of_the_base_and_scaled_top_p(inst, p_values, s_values):
    base, model = inst
    assert sweep_outcomes(sweep_candidates(base, model, p_values, s_values)) == sweep_outcomes(
        reference_sweep(base, model, p_values, s_values)
    )
