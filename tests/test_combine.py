"""Differential tests: each merge operation built on ``delta.combine``
against its own float64 loop in reference_merge.py, byte for byte."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_merge as ref
from himerge import (
    Checkpoint,
    CompatError,
    DeltaVector,
    MergeWeights,
    apply_delta,
    assemble_final,
    delta_weighted_merge,
    fingerprint,
    weighted_average_merge,
)
from himerge.analysis import shifted_checkpoint
from himerge.checkpoint import checkpoint_to_bytes

from conftest import record_from_array

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
    return [DeltaVector(fp, arrays, provenance=str(i)) for i, arrays in enumerate(terms)]


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
