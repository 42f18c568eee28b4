"""Hi-Merging treats models A and B alike, except where the paper's rule
says otherwise: a SEVERE tie (c_AA == c_BB) keeps model A.

The inputs are dyadic (``conftest.dyadic_random``) and so are p and s, so
every sum a run takes is exact and its order cannot matter.  Swapping the
models together with their evaluators, p and s must then swap every A/B
quantity of the run and leave the merged model's bytes alone.
"""

import re
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from himerge import (
    EvalTask,
    HiMergeConfig,
    IterationPolicy,
    PruneScaleParams,
    SyntheticCompositeTask,
    compute_delta,
    hi_merge,
    hidden_optimum,
    model_wise_process,
)
from himerge.checkpoint import checkpoint_to_bytes

from conftest import checkpoint_from_arrays, dyadic_random

DIM = 16
N_EVAL = 200
SWAP = str.maketrans("AB", "BA")


def instance(seed: int, n_layers: int):
    """(base, model A, model B, evaluator A, evaluator B).  Each model adds
    a dyadic rounding of its task's optimum plus dyadic noise to every
    layer, and its task scores all layers, so the two deltas interfere and
    all three conflict cases occur.  The embedding is a PRE tensor."""
    rng = np.random.default_rng(seed)
    names = ["model.embed.w", *(f"model.layers.{layer}.w" for layer in range(n_layers))]
    base = {name: dyadic_random(rng, DIM) for name in names}

    def model(task_seed):
        return {
            name: base[name]
            + np.round(hidden_optimum(task_seed + i, DIM) * 256) / 64
            + dyadic_random(rng, DIM, span=1024)
            for i, name in enumerate(names)
        }

    def evaluator(task_seed, probe_seed):
        targets = tuple((name, task_seed + i) for i, name in enumerate(names))
        return SyntheticCompositeTask(probe_seed, N_EVAL, targets)

    cps = [checkpoint_from_arrays(arrays) for arrays in (base, model(100), model(200))]
    return (*cps, evaluator(100, 7), evaluator(200, 8))


def run(base, models, evaluators, params, policy=IterationPolicy()):
    config = HiMergeConfig(
        {"A": params[0], "B": params[1]},
        {"A": EvalTask("A", evaluators[0]), "B": EvalTask("B", evaluators[1])},
        policy=policy,
    )
    return hi_merge(base, *models, config)


def swapped_profile(profile: dict) -> dict:
    """The profile with the roles of A and B exchanged."""

    def table(values):
        return {key.translate(SWAP): value for key, value in values.items()}

    return {
        "baselines": table(profile["baselines"]),
        "layers": [
            {
                **row,
                "alpha": table(row["alpha"]),
                "beta": table(row["beta"]),
                "c": table(row["c"]),
                "gamma_a": row["gamma_b"],
                "gamma_b": row["gamma_a"],
            }
            for row in profile["layers"]
        ],
    }


def swapped_action(action: dict) -> dict:
    """A log action with the roles of A and B exchanged, its note too."""
    own = re.fullmatch(r"own contributions c_AA=(\S+) c_BB=(\S+)", action["note"])
    if own:
        note = f"own contributions c_AA={own[2]} c_BB={own[1]}"
    else:
        note = re.sub(r"model ([AB])", lambda m: "model " + m[1].translate(SWAP), action["note"])
    model = action["model"] and action["model"].translate(SWAP)
    return {**action, "model": model, "gamma_a": action["gamma_b"],
            "gamma_b": action["gamma_a"], "note": note}


DYADIC_P = st.sampled_from([0.25, 0.5, 1.0])
DYADIC_S = st.sampled_from([0.5, 0.75, 1.0])
POLICIES = st.builds(
    IterationPolicy,
    recompute=st.booleans(),
    max_passes=st.integers(1, 2),
    single_halving=st.booleans(),
    include_pre_post=st.booleans(),
)


@given(
    seed=st.integers(0, 2**16),
    n_layers=st.integers(2, 4),
    p=st.tuples(DYADIC_P, DYADIC_P),
    s=st.tuples(DYADIC_S, DYADIC_S),
    policy=POLICIES,
)
@settings(max_examples=40, deadline=None)
def test_swapping_the_models_swaps_every_a_b_quantity(seed, n_layers, p, s, policy):
    base, ma, mb, ea, eb = instance(seed, n_layers)
    params = [PruneScaleParams(*ps) for ps in zip(p, s)]
    ab = run(base, (ma, mb), (ea, eb), params, policy)
    assume(not any("tie" in action.note for action in ab.log.actions))
    ba = run(base, (mb, ma), (eb, ea), params[::-1], policy)

    assert ba.profile.to_json_dict() == swapped_profile(ab.profile.to_json_dict())
    assert [a.to_dict() for a in ba.log.actions] == [
        swapped_action(a.to_dict()) for a in ab.log.actions
    ]
    for model_id, delta in ab.deltas.items():
        other = ba.deltas[model_id.translate(SWAP)]
        for name in delta.names:
            assert other.array(name).tobytes() == delta.array(name).tobytes(), name
    assert checkpoint_to_bytes(ba.theta_g) == checkpoint_to_bytes(ab.theta_g)
    assert checkpoint_to_bytes(ba.merged) == checkpoint_to_bytes(ab.merged)


@given(seed=st.integers(0, 2**16), n_layers=st.integers(2, 4), p=DYADIC_P, s=DYADIC_S)
@settings(max_examples=25, deadline=None)
def test_a_severe_tie_keeps_model_a(seed, n_layers, p, s):
    """Model B is model A and both tasks are A's: every own contribution
    ties, and the run differs from a symmetric one only by the tie rule.
    Each SEVERE layer drops B's layer delta, and A's delta is untouched."""
    base, ma, _, ea, _ = instance(seed, n_layers)
    params = [PruneScaleParams(p, s)] * 2
    result = run(base, (ma, ma), (ea, ea), params)
    for row in result.profile.rows:
        assert row.gamma_a == row.gamma_b and row.c["AA"] == row.c["BB"]
    severe = [a.layer for a in result.log.actions if a.case == "SEVERE"]
    assume(severe)
    for action in result.log.actions:
        if action.case == "SEVERE":
            assert (action.kind, action.model) == ("DROP", "B")
            assert action.note.endswith(" (tie: kept A)")
        else:
            assert action.kind == "KEEP"
    a, b = result.deltas["A"], result.deltas["B"]
    kept = model_wise_process(compute_delta(ma, base), params[0])
    for name in a.names:
        assert a.array(name).tobytes() == kept.array(name).tobytes(), name
        layer = int(name.split(".")[2]) if ".layers." in name else None
        expected = np.zeros(DIM, np.float32) if layer in severe else kept.array(name)
        assert b.array(name).tobytes() == expected.tobytes(), name


@given(
    seed=st.integers(0, 2**16),
    n_layers=st.integers(2, 4),
    p=st.tuples(DYADIC_P, DYADIC_P),
    s=st.tuples(DYADIC_S, DYADIC_S),
    policy=POLICIES,
    above=st.sampled_from([0.0, 2.0**-40, 1.0]),
)
@settings(max_examples=25, deadline=None)
def test_a_threshold_above_every_gamma_merges_theta_g(seed, n_layers, p, s, policy, above):
    """No layer's Gamma exceeds the threshold, so nothing is resolved: the
    log is empty and the merged model is theta_G, byte for byte."""
    base, ma, mb, ea, eb = instance(seed, n_layers)
    params = [PruneScaleParams(*ps) for ps in zip(p, s)]
    profiled = run(base, (ma, mb), (ea, eb), params, policy)
    threshold = max(row.Gamma for row in profiled.profile.rows) + above
    result = run(base, (ma, mb), (ea, eb), params, replace(policy, gamma_threshold=threshold))
    assert result.log.actions == []
    assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(result.theta_g)
    assert result.profile.to_json_dict() == profiled.profile.to_json_dict()
