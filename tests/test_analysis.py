import csv
import json
import sys

import numpy as np
import pytest

from himerge import (
    ConstantTask,
    EvalCache,
    EvalTask,
    EvaluationBridge,
    HiMergeConfig,
    IterationPolicy,
    PruneScaleParams,
    addition_impact,
    conflict_profile,
    deletion_impact,
    hi_merge,
)
from himerge import analysis as analysis_mod
from himerge import resolver as resolver_mod
from himerge.analysis import PAIR_KEYS
from himerge.checkpoint import checkpoint_to_bytes

import reference_analysis as ref

from conftest import checkpoint_from_arrays, dyadic_random
from instances import (
    N_LAYERS,
    conflict_instance,
    layer_name,
    make_context,
    single_signal_instance,
    specialists_instance,
)


def constant_tasks(value=0.5):
    return EvalTask("A", ConstantTask(value)), EvalTask("B", ConstantTask(value))


class TestImpacts:
    def test_zero_layer_delta_gives_zero_alpha_via_cache(self):
        base, ma, mb, ta, tb = single_signal_instance()
        ctx = make_context(base, ma, mb, ta, tb)
        # Model A's delta is confined to layer 0, so removing layer 5 from A
        # rebuilds the identical checkpoint and must hit the cache.
        before = ctx.bridge.invocations
        alpha = deletion_impact("A", "A", 5, ctx)
        assert alpha == 0.0
        assert ctx.bridge.invocations == before + 1  # only the reference itself

    def test_signal_layer_deletion_strictly_negative(self):
        base, ma, mb, ta, tb = single_signal_instance()
        ctx = make_context(base, ma, mb, ta, tb)
        assert deletion_impact("A", "A", 0, ctx) < -0.1

    def test_signal_layer_addition_positive_and_maximal(self):
        base, ma, mb, ta, tb = single_signal_instance()
        ctx = make_context(base, ma, mb, ta, tb)
        betas = [addition_impact("A", "A", l, ctx) for l in range(N_LAYERS)]
        assert betas[0] > 0.1
        assert betas[0] == max(betas)
        assert all(b == 0.0 for b in betas[1:])

    def test_constant_evaluator_zero_impacts(self):
        base, ma, mb, _, _ = single_signal_instance()
        ta, tb = constant_tasks()
        ctx = make_context(base, ma, mb, ta, tb)
        for layer in range(3):
            for m1 in ("A", "B"):
                for m2 in ("A", "B", "G"):
                    assert deletion_impact(m1, m2, layer, ctx) == 0.0
                    assert addition_impact(m1, m2, layer, ctx) == 0.0

    def test_labels_on_evaluator_failure(self, script_evaluator):
        base, ma, mb, _, _ = single_signal_instance()
        cmd = script_evaluator("import sys; sys.exit(1)")
        bad = EvalTask("A", cmd)
        ctx = make_context(base, ma, mb, bad, bad)
        with pytest.raises(Exception, match="capability=A, source=G, layer=2"):
            deletion_impact("A", "G", 2, ctx)


class TestConflictProfile:
    def test_zero_deltas_everywhere(self):
        base, *_ , ta, tb = single_signal_instance()
        ctx = make_context(base, base, base, ta, tb)
        profile = conflict_profile(ctx)
        for row in profile.rows:
            assert row.gamma_a == row.gamma_b == row.Gamma == 0.0
            assert all(v == 0.0 for v in row.alpha.values())
            assert all(v == 0.0 for v in row.beta.values())

    def test_constant_evaluator_zero_gammas(self):
        base, ma, mb, _, _ = single_signal_instance()
        ta, tb = constant_tasks()
        ctx = make_context(base, ma, mb, ta, tb)
        profile = conflict_profile(ctx)
        assert all(row.Gamma == 0.0 for row in profile.rows)

    def test_exact_identities(self):
        base, ma, mb, ta, tb, k = conflict_instance(seed=1, dim=96, n_eval=500)
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

    def test_detects_injected_layer(self):
        base, ma, mb, ta, tb, k = conflict_instance(seed=2)
        ctx = make_context(
            base, ma, mb, ta, tb, PruneScaleParams(1.0, 0.5), PruneScaleParams(1.0, 0.5)
        )
        profile = conflict_profile(ctx)
        top = max(profile.rows, key=lambda r: r.Gamma)
        assert top.layer == k
        assert top.Gamma > 0

    def test_call_budget_and_resume(self, tmp_path):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=3, dim=64, n_eval=300)
        cache_path = tmp_path / "cache.jsonl"
        bridge = EvaluationBridge(EvalCache(cache_path))
        ctx = make_context(base, ma, mb, ta, tb, bridge=bridge)
        conflict_profile(ctx)
        assert bridge.distinct_checkpoints <= 6 * N_LAYERS + 4

        rerun = EvaluationBridge(EvalCache(cache_path))
        ctx2 = make_context(base, ma, mb, ta, tb, bridge=rerun)
        second = conflict_profile(ctx2)
        assert rerun.invocations == 0
        assert second.rows  # fully served from cache

    def test_full_matrix_does_not_grow_checkpoint_budget(self):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=5, dim=48, n_eval=200)
        core = EvaluationBridge()
        conflict_profile(make_context(base, ma, mb, ta, tb, bridge=core))
        full = EvaluationBridge()
        conflict_profile(
            make_context(base, ma, mb, ta, tb, bridge=full), full_matrix=True
        )
        # Cross pairs reuse existing candidates, so only invocation counts
        # may grow, never the set of distinct checkpoints.
        assert full.distinct_checkpoints == core.distinct_checkpoints
        assert full.invocations > core.invocations

    def test_baselines_present(self):
        base, ma, mb, ta, tb = single_signal_instance()
        ctx = make_context(base, ma, mb, ta, tb)
        profile = conflict_profile(ctx, layers=[0])
        assert set(profile.baselines) == {"A:A", "B:B", "A:G", "B:G", "A:F", "B:F"}

    def test_full_matrix_adds_cross_pairs(self):
        base, ma, mb, ta, tb = single_signal_instance(n_eval=300)
        ctx = make_context(base, ma, mb, ta, tb)
        profile = conflict_profile(ctx, layers=[0, 1], full_matrix=True)
        for row in profile.rows:
            assert set(row.alpha) == set(PAIR_KEYS)
        assert "A:B" in profile.baselines

    def test_deterministic_given_deterministic_evaluators(self):
        base, ma, mb, ta, tb = single_signal_instance(n_eval=400)
        p1 = conflict_profile(make_context(base, ma, mb, ta, tb))
        p2 = conflict_profile(make_context(base, ma, mb, ta, tb))
        assert p1.to_json_dict() == p2.to_json_dict()

    def test_contribution_triples(self):
        base, ma, mb, ta, tb = single_signal_instance(n_eval=300)
        ctx = make_context(base, ma, mb, ta, tb)
        profile = conflict_profile(ctx, layers=[0, 1])
        triples = [(row, key) for row in profile.rows for key in row.c]
        assert len(triples) == 2 * 4  # two layers, four core pairs
        for row, key in triples:
            assert row.c[key] == row.alpha[key] + row.beta[key]
            assert key[0] in ("A", "B")
            assert key[1] in ("A", "B", "G")

    def test_pre_post_pseudo_layers_analyzable(self):
        arrays = {
            "model.embed": np.full(8, 0.5, dtype=np.float32),
            "model.layers.0.w": np.ones(8, dtype=np.float32),
            "model.layers.1.w": np.ones(8, dtype=np.float32),
            "model.norm": np.full(8, 2.0, dtype=np.float32),
        }
        base = checkpoint_from_arrays(arrays)
        ta, tb = constant_tasks()
        ctx = make_context(base, base, base, ta, tb)
        layers = ctx.partition.all_layers()
        assert layers == ["PRE", 0, 1, "POST"]
        profile = conflict_profile(ctx, layers=layers)
        assert [row.layer for row in profile.rows] == layers
        assert all(row.Gamma == 0.0 for row in profile.rows)


@pytest.mark.parametrize("full_matrix", [False, True])
def test_each_layer_builds_six_candidates(monkeypatch, full_matrix):
    """A deletion and an addition candidate per source A, B and G: the
    (A, G) and (B, G) pairs, and with the full matrix every capability,
    share them.  Each layer still makes 8 evaluations, or 12 with the full
    matrix, and scores exactly the candidates it built."""
    rng = np.random.default_rng(16)
    layers = 16

    def random_model():
        return checkpoint_from_arrays({layer_name(l): dyadic_random(rng, 8) for l in range(layers)})

    base, ma, mb = random_model(), random_model(), random_model()
    ta, tb = constant_tasks()
    ctx = make_context(base, ma, mb, ta, tb)
    built = []
    original = analysis_mod.shifted_checkpoint

    def counting(ref, arrays_list, sign):
        built.append(original(ref, arrays_list, sign))
        return built[-1]

    monkeypatch.setattr(analysis_mod, "shifted_checkpoint", counting)
    scored = []
    evaluate = ctx.bridge.evaluate

    def recording(cp, task):
        scored.append(cp)
        return evaluate(cp, task)

    monkeypatch.setattr(ctx.bridge, "evaluate", recording)
    profile = conflict_profile(ctx, full_matrix=full_matrix)
    assert len(profile.rows) == layers
    assert len(built) == 6 * layers
    assert len({id(cp) for cp in built}) == 6 * layers
    per_layer = 12 if full_matrix else 8
    assert len(scored) == len(profile.baselines) + per_layer * layers
    assert {id(cp) for cp in scored[len(profile.baselines):]} == {id(cp) for cp in built}


@pytest.fixture
def fine_switching():
    """Switch threads as often as possible, to interleave pool threads."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


class TestAgainstReference:
    """The profile equals the reference analysis, a serial loop that scores
    each reference again in every impact, at any ``parallel``; every
    evaluation the job table makes is one baseline or one candidate.  At
    ``parallel`` 1 the cache file is byte-identical to the reference's, so
    the evaluations also run in the reference's order."""

    @pytest.mark.parametrize("parallel", [1, 2, 4])
    @pytest.mark.parametrize("full_matrix", [False, True])
    @pytest.mark.parametrize("seed", [2, 5])
    def test_profile_matches_reference(self, tmp_path, fine_switching, seed, full_matrix, parallel):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=seed, dim=48, n_eval=300)
        ref_bridge = EvaluationBridge(EvalCache(tmp_path / "ref.jsonl"))
        expected = ref.conflict_profile(
            make_context(base, ma, mb, ta, tb, bridge=ref_bridge), full_matrix=full_matrix
        )
        bridge = EvaluationBridge(EvalCache(tmp_path / "cache.jsonl"), parallel=parallel)
        ctx = make_context(base, ma, mb, ta, tb, bridge=bridge)
        profile = conflict_profile(ctx, full_matrix=full_matrix)
        assert profile.to_json_dict() == expected.to_json_dict()
        pairs = len(profile.rows[0].c)
        evaluations = len(profile.baselines) + 2 * pairs * len(profile.rows)
        assert bridge.invocations + bridge.cache_hits == evaluations
        assert bridge.invocations == ref_bridge.invocations
        assert_same_cache(tmp_path / "cache.jsonl", tmp_path / "ref.jsonl", parallel)

    @pytest.mark.parametrize("parallel", [1, 2, 4])
    def test_recompute_hi_merge_matches_reference(
        self, tmp_path, monkeypatch, fine_switching, parallel
    ):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=6, dim=48, n_eval=300)
        config = HiMergeConfig(
            params={"A": PruneScaleParams(1.0, 0.5), "B": PruneScaleParams(1.0, 0.5)},
            tasks={"A": ta, "B": tb},
            policy=IterationPolicy(recompute=True, max_passes=2),
        )

        def run(profile_fn, bridge):
            # Every profile, including those the resolver recomputes on a
            # context whose theta_G has changed.
            profiles = []

            def recording(ctx, layers=None, full_matrix=False):
                profile = profile_fn(ctx, layers=layers, full_matrix=full_matrix)
                profiles.append(profile.to_json_dict())
                return profile

            monkeypatch.setattr(resolver_mod, "conflict_profile", recording)
            result = hi_merge(base, ma, mb, config, bridge=bridge)
            actions = [a.to_dict() for a in result.log.actions]
            return profiles, actions, checkpoint_to_bytes(result.merged)

        expected = run(ref.conflict_profile, EvaluationBridge(EvalCache(tmp_path / "ref.jsonl")))
        assert len(expected[0]) > 2
        bridge = EvaluationBridge(EvalCache(tmp_path / "cache.jsonl"), parallel=parallel)
        assert run(conflict_profile, bridge) == expected
        assert_same_cache(tmp_path / "cache.jsonl", tmp_path / "ref.jsonl", parallel)


def assert_same_cache(path, ref_path, parallel):
    """Byte-identical at parallel 1; otherwise the same lines, whose order
    follows completion."""
    if parallel == 1:
        assert path.read_bytes() == ref_path.read_bytes()
    else:
        lines = path.read_text().splitlines()
        assert sorted(lines) == sorted(ref_path.read_text().splitlines())


class TestReports:
    def _profile(self):
        base, ma, mb, ta, tb = specialists_instance(n_eval=300)
        ctx = make_context(base, ma, mb, ta, tb)
        return conflict_profile(ctx, layers=[0, 1])

    def test_json_report(self, tmp_path):
        profile = self._profile()
        profile.write(tmp_path)
        path = tmp_path / "profile.json"
        doc = json.loads(path.read_text())
        assert {"baselines", "layers"} <= set(doc)
        assert [row["layer"] for row in doc["layers"]] == [0, 1]
        row = doc["layers"][0]
        assert row["Gamma"] == row["gamma_a"] + row["gamma_b"]

    def test_csv_report_schema(self, tmp_path):
        profile = self._profile()
        profile.write(tmp_path)
        path = tmp_path / "profile.csv"
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[0] == "layer"
        for key in PAIR_KEYS:
            assert f"alpha_{key}" in header
            assert f"beta_{key}" in header
            assert f"c_{key}" in header
        assert header[-3:] == ["gamma_a", "gamma_b", "Gamma"]
        assert len(rows) == 3
        # Cross pairs are not computed by default and stay empty.
        ab_col = header.index("alpha_AB")
        aa_col = header.index("alpha_AA")
        assert rows[1][ab_col] == ""
        float(rows[1][aa_col])  # populated and parseable
