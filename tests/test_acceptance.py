"""Acceptance suite.

Full-scale LLM benchmark numbers are out of reach for a unit suite, so
acceptance is defined by desk-scale property checks: exact pruning
semantics against an independent oracle, algebraic merge identities,
contribution arithmetic, synthetic conflict detection and resolution,
multi-task retention, sweep grid semantics, evaluator call budgets, and
bit-exact serialization.  Each test prints one PASS line; a failing
criterion fails its test.
"""

import csv
import json
import time

import numpy as np

from himerge import (
    Checkpoint,
    ConstantTask,
    EvalCache,
    EvalTask,
    EvaluationBridge,
    HiMergeConfig,
    MergeWeights,
    PruneScaleParams,
    apply_delta,
    compute_delta,
    conflict_profile,
    delta_weighted_merge,
    hi_merge,
    load_checkpoint,
    model_wise_process,
    prune_topp,
    save_checkpoint,
    weighted_average_merge,
)
from himerge.checkpoint import checkpoint_to_bytes
from himerge.cli import main
from himerge.delta import _retain_count
from himerge.evaluation import SyntheticLinearTask

from conftest import checkpoint_from_arrays, dyadic_random, random_checkpoint
from instances import (
    N_LAYERS,
    conflict_instance,
    delta_from_arrays,
    layer_name,
    make_context,
    specialists_instance,
)


def report(name):
    print(f"ACCEPTANCE PASS: {name}")


def brute_force_topp(values, p):
    """Independent oracle: full sort of (|v| desc, index asc) in plain Python."""
    flat = [float(v) for v in values]
    k = _retain_count(p, len(flat))
    order = sorted(range(len(flat)), key=lambda i: (-abs(flat[i]), i))
    keep = set(order[:k])
    return np.array(
        [flat[i] if i in keep else 0.0 for i in range(len(flat))], dtype=np.float32
    )


def test_top_p_oracle_equivalence():
    """200 seeded random vectors up to N=1e5 match the full-sort oracle exactly."""
    start = time.monotonic()
    rng = np.random.default_rng(20240601)
    for trial in range(200):
        n = int(rng.integers(20_000, 100_001)) if trial % 10 == 0 else int(rng.integers(1, 2000))
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
        if trial % 3 == 0:
            values = np.round(values * 8) / 8  # force magnitude ties
        if trial % 5 == 0:
            values[rng.integers(0, n, size=max(1, n // 10))] = 0.0
        values = values.astype(np.float32)
        p = float(rng.choice([0.0, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0, rng.uniform(0, 1)]))
        delta = delta_from_arrays({"w": values})
        ours = prune_topp(delta, p).array("w")
        expected = brute_force_topp(values, p)
        assert np.array_equal(ours, expected), (trial, n, p)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"
    report(f"top-p oracle equivalence (200 trials, {elapsed:.1f}s)")


def test_algebraic_merge_identity():
    """Eq-1 output equals Eq-3 output within 1e-6; the p=1, s=1 identity cell
    reproduces the fine-tuned model bit-exactly through model-wise processing."""
    rng = np.random.default_rng(7)
    max_diff = 0.0
    for _ in range(50):
        n = int(rng.integers(16, 10_001))
        base = checkpoint_from_arrays({"w": rng.uniform(-1, 1, n).astype(np.float32)})
        a = checkpoint_from_arrays({"w": rng.uniform(-1, 1, n).astype(np.float32)})
        b = checkpoint_from_arrays({"w": rng.uniform(-1, 1, n).astype(np.float32)})
        wa = float(rng.uniform(0.02, 0.98))
        weights = MergeWeights({"A": wa, "B": 1.0 - wa})
        eq1 = weighted_average_merge({"A": a, "B": b}, weights)
        eq3 = delta_weighted_merge(
            base, [compute_delta(a, base, "A"), compute_delta(b, base, "B")], weights
        )
        max_diff = max(max_diff, float(np.abs(eq1.as_f32("w") - eq3.as_f32("w")).max()))
    assert max_diff <= 1e-6, max_diff

    for trial in range(50):
        shape = (int(rng.integers(4, 200)),)
        base = checkpoint_from_arrays({"w": dyadic_random(rng, shape)})
        model = checkpoint_from_arrays({"w": dyadic_random(rng, shape)})
        processed = model_wise_process(
            compute_delta(model, base, "A"), PruneScaleParams(1.0, 1.0)
        )
        rebuilt = apply_delta(base, [processed])
        assert checkpoint_to_bytes(rebuilt) == checkpoint_to_bytes(model), trial
    report(f"algebraic merge identity (max |eq1-eq3| = {max_diff:.2e}, identity cell bit-exact)")


def test_contribution_arithmetic():
    """c = alpha + beta, gamma = c_mm - c_mG, Gamma = gamma_A + gamma_B hold
    exactly; a constant oracle zeroes everything and leaves hi_merge equal to
    the unit-weight delta merge bit-exactly."""
    base, ma, mb, ta, tb, _ = conflict_instance(seed=12, dim=64, n_eval=400)
    ctx = make_context(
        base, ma, mb, ta, tb, PruneScaleParams(1.0, 0.5), PruneScaleParams(1.0, 0.5)
    )
    profile = conflict_profile(ctx)
    for row in profile.rows:
        for key in row.c:
            assert row.c[key] == row.alpha[key] + row.beta[key]
        assert row.gamma_a == row.c["AA"] - row.c["AG"]
        assert row.gamma_b == row.c["BB"] - row.c["BG"]
        assert row.Gamma == row.gamma_a + row.gamma_b

    const_a, const_b = EvalTask("A", ConstantTask()), EvalTask("B", ConstantTask())
    params = PruneScaleParams(0.7, 0.6)
    ctx0 = make_context(base, ma, mb, const_a, const_b, params, params)
    profile0 = conflict_profile(ctx0)
    for row in profile0.rows:
        assert all(v == 0.0 for v in row.alpha.values())
        assert all(v == 0.0 for v in row.beta.values())
        assert row.gamma_a == 0.0 and row.gamma_b == 0.0 and row.Gamma == 0.0

    config = HiMergeConfig(
        params={"A": params, "B": params}, tasks={"A": const_a, "B": const_b}
    )
    result = hi_merge(base, ma, mb, config)
    da = model_wise_process(compute_delta(ma, base, "A"), params)
    db = model_wise_process(compute_delta(mb, base, "B"), params)
    ref = delta_weighted_merge(base, [da, db], MergeWeights({"A": 1.0, "B": 1.0}))
    assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(ref)
    report("contribution arithmetic (identities exact, constant oracle degenerate)")


def test_synthetic_conflict_detection():
    """Across 20 seeds the argmax-Gamma layer is the injected one in >= 95%
    of runs, and in every detecting run the resolved merge scores at least
    as well as the unit-weight merge of the processed deltas on both tasks."""
    start = time.monotonic()
    detections = 0
    for seed in range(20):
        base, ma, mb, ta, tb, k = conflict_instance(seed=seed)
        bridge = EvaluationBridge()
        config = HiMergeConfig(
            params={"A": PruneScaleParams(1.0, 0.5), "B": PruneScaleParams(1.0, 0.5)},
            tasks={"A": ta, "B": tb},
        )
        result = hi_merge(base, ma, mb, config, bridge=bridge)
        profile = result.profile
        top = max(profile.rows, key=lambda r: r.Gamma)
        detected = top.layer == k and top.Gamma > 0
        if not detected:
            continue
        detections += 1
        naive = result.theta_g  # unit-weight merge without layer-wise resolution
        score_a_naive = bridge.evaluate(naive, ta).value
        score_b_naive = bridge.evaluate(naive, tb).value
        score_a_hi = bridge.evaluate(result.merged, ta).value
        score_b_hi = bridge.evaluate(result.merged, tb).value
        assert score_a_hi >= score_a_naive, (seed, score_a_hi, score_a_naive)
        assert score_b_hi >= score_b_naive, (seed, score_b_hi, score_b_naive)
    elapsed = time.monotonic() - start
    assert detections >= 19, f"detected {detections}/20"
    assert elapsed < 60.0, f"conflict suite took {elapsed:.1f}s"
    report(
        f"synthetic conflict detection ({detections}/20 detected, resolution "
        f"never worse than naive, {elapsed:.1f}s)"
    )


def test_synthetic_multi_task_retention():
    """Merging two orthogonal-coordinate specialists retains >= 90% of each
    specialist's accuracy; the plain averaging baseline is reported."""
    base, ma, mb, ta, tb = specialists_instance(seed=0)
    bridge = EvaluationBridge()
    spec_a = bridge.evaluate(ma, ta).value
    spec_b = bridge.evaluate(mb, tb).value
    config = HiMergeConfig(
        params={"A": PruneScaleParams(1.0, 1.0), "B": PruneScaleParams(1.0, 1.0)},
        tasks={"A": ta, "B": tb},
    )
    result = hi_merge(base, ma, mb, config, bridge=bridge)
    merged_a = bridge.evaluate(result.merged, ta).value
    merged_b = bridge.evaluate(result.merged, tb).value
    soup = weighted_average_merge(
        {"A": ma, "B": mb}, MergeWeights({"A": 0.5, "B": 0.5})
    )
    soup_a = bridge.evaluate(soup, ta).value
    soup_b = bridge.evaluate(soup, tb).value
    print(
        f"specialists A={spec_a:.4f} B={spec_b:.4f} | merged A={merged_a:.4f} "
        f"B={merged_b:.4f} | naive-average A={soup_a:.4f} B={soup_b:.4f}"
    )
    assert merged_a >= 0.9 * spec_a, (merged_a, spec_a)
    assert merged_b >= 0.9 * spec_b, (merged_b, spec_b)
    report(
        f"multi-task retention (A {merged_a / spec_a:.1%}, B {merged_b / spec_b:.1%} "
        f"of specialist accuracy)"
    )


def test_sweep_completeness(tmp_path):
    """The default 10x10 grid emits exactly 100 unique rows; the (1, 1) cell
    equals the direct fine-tuned evaluation and every (p, 0) cell equals the
    base evaluation."""
    rng = np.random.default_rng(99)
    dim = 48
    base_cp = checkpoint_from_arrays({layer_name(0): dyadic_random(rng, dim)})
    model_cp = checkpoint_from_arrays({layer_name(0): dyadic_random(rng, dim)})
    spec = SyntheticLinearTask(seed=5150, dim=dim, n_eval=500, target=layer_name(0))
    eval_spec = json.dumps(
        {
            "builtin": "synthetic_linear",
            "seed": spec.seed,
            "dim": spec.dim,
            "n_eval": spec.n_eval,
            "target": spec.target,
        }
    )
    base = tmp_path / "base.safetensors"
    model = tmp_path / "model.safetensors"
    save_checkpoint(base_cp, base)
    save_checkpoint(model_cp, model)

    out_default = tmp_path / "default"
    rc = main(
        ["sweep", "--base", str(base), "--model-a", str(model), "--out", str(out_default), "--eval-a", eval_spec]
    )
    assert rc == 0
    with open(out_default / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert len({(r["p"], r["s"]) for r in rows}) == 100
    by_cell = {(float(r["p"]), float(r["s"])): float(r["score"]) for r in rows}
    assert by_cell[(1.0, 1.0)] == spec.score(model_cp)

    out_zero = tmp_path / "zero"
    rc = main(
        [
            "sweep",
            "--base",
            str(base),
            "--model-a",
            str(model),
            "--out",
            str(out_zero),
            "--eval-a",
            eval_spec,
            "--p-values",
            "0,0.3,1",
            "--s-values",
            "0,1",
        ]
    )
    assert rc == 0
    with open(out_zero / "sweep.csv") as fh:
        zero_rows = {(float(r["p"]), float(r["s"])): float(r["score"]) for r in csv.DictReader(fh)}
    base_score = spec.score(base_cp)
    for p in (0.0, 0.3, 1.0):
        assert zero_rows[(p, 0.0)] == base_score
    assert zero_rows[(0.0, 1.0)] == base_score
    report("sweep completeness (100 unique rows, identity and zero cells exact)")


def test_evaluator_call_budget(tmp_path):
    """Analysis touches at most 6L + 4 distinct candidate checkpoints
    (counted via cache misses); a warm rerun issues zero evaluator calls."""
    base, ma, mb, ta, tb, _ = conflict_instance(seed=31, dim=96, n_eval=400)
    cache_path = tmp_path / "cache.jsonl"
    bridge = EvaluationBridge(EvalCache(cache_path))
    ctx = make_context(
        base, ma, mb, ta, tb,
        PruneScaleParams(1.0, 0.5), PruneScaleParams(1.0, 0.5), bridge=bridge,
    )
    conflict_profile(ctx)
    budget = 6 * N_LAYERS + 4
    assert bridge.distinct_checkpoints <= budget, (bridge.distinct_checkpoints, budget)

    rerun_bridge = EvaluationBridge(EvalCache(cache_path))
    ctx2 = make_context(
        base, ma, mb, ta, tb,
        PruneScaleParams(1.0, 0.5), PruneScaleParams(1.0, 0.5), bridge=rerun_bridge,
    )
    conflict_profile(ctx2)
    assert rerun_bridge.invocations == 0
    report(
        f"evaluator call budget ({bridge.distinct_checkpoints} distinct checkpoints "
        f"<= {budget}, warm rerun 0 calls)"
    )


def test_serialization_roundtrip(tmp_path):
    """100 random checkpoints survive save -> load -> save byte-identically."""
    rng = np.random.default_rng(2718)
    path = tmp_path / "cp.safetensors"
    for trial in range(100):
        dtype = ("f32", "f16", "bf16")[trial % 3]
        cp = random_checkpoint(rng, n_tensors=int(rng.integers(0, 7)), dtype=dtype)
        if trial % 4 == 0:
            cp = Checkpoint(list(cp), {"trial": str(trial)})
        save_checkpoint(cp, path)
        first = path.read_bytes()
        save_checkpoint(load_checkpoint(path), path)
        assert path.read_bytes() == first, trial
    report("serialization round trip (100 checkpoints byte-identical)")
