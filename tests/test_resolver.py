import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import himerge.resolver as resolver_mod
from himerge import (
    ConflictCase,
    ConstantTask,
    DeltaVector,
    EvalTask,
    EvaluationBridge,
    EvaluatorError,
    HiMergeConfig,
    IterationPolicy,
    MergeWeights,
    PruneScaleParams,
    classify_layer,
    compute_delta,
    delta_weighted_merge,
    fingerprint,
    hi_merge,
    iterate,
    model_wise_process,
    partition_layers,
    resolve_layer,
)
from himerge.analysis import LayerConflictRow, conflict_profile
from himerge.checkpoint import checkpoint_to_bytes

from conftest import checkpoint_from_arrays
from instances import conflict_instance, make_context, single_signal_instance


def make_row(layer, gamma_a, gamma_b, c_aa=0.0, c_bb=0.0):
    c = {"AA": c_aa, "BB": c_bb, "AG": 0.0, "BG": 0.0}
    return LayerConflictRow(
        layer=layer,
        alpha={},
        beta={},
        c=c,
        gamma_a=gamma_a,
        gamma_b=gamma_b,
        Gamma=gamma_a + gamma_b,
    )


class TestClassify:
    def test_spec_examples(self):
        assert classify_layer(0.3, 0.1) is ConflictCase.SEVERE
        assert classify_layer(-0.2, 0.4) is ConflictCase.PARTIAL
        assert classify_layer(0.0, 0.0) is ConflictCase.MUTUAL

    def test_boundary_zero_with_positive_is_mutual(self):
        assert classify_layer(0.0, 0.4) is ConflictCase.MUTUAL
        assert classify_layer(0.4, 0.0) is ConflictCase.MUTUAL

    def test_non_finite_rejected(self):
        with pytest.raises(EvaluatorError):
            classify_layer(float("nan"), 0.0)
        with pytest.raises(EvaluatorError):
            classify_layer(0.0, float("inf"))

    @given(
        st.floats(allow_nan=False, allow_infinity=False, width=32),
        st.floats(allow_nan=False, allow_infinity=False, width=32),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_partition(self, ga, gb):
        case = classify_layer(ga, gb)
        matches = [
            case is ConflictCase.SEVERE and (ga > 0 and gb > 0),
            case is ConflictCase.PARTIAL and (ga * gb < 0),
            case is ConflictCase.MUTUAL and not (ga > 0 and gb > 0) and not (ga * gb < 0),
        ]
        assert sum(matches) == 1


class TwoLayerFixture:
    def __init__(self):
        arrays = {
            "m.layers.0.w": np.zeros(4, dtype=np.float32),
            "m.layers.1.w": np.zeros(4, dtype=np.float32),
        }
        self.base = checkpoint_from_arrays(arrays)
        self.partition = partition_layers(self.base)
        fp = fingerprint(self.base)
        self.delta_a = DeltaVector(
            fp,
            {
                "m.layers.0.w": np.array([3.0, -1.0, 2.0, 0.5], dtype=np.float32),
                "m.layers.1.w": np.array([1.0, 1.0, 1.0, 1.0], dtype=np.float32),
            },
            "A",
        )
        self.delta_b = DeltaVector(
            fp,
            {
                "m.layers.0.w": np.array([-2.0, 4.0, 0.0, 1.0], dtype=np.float32),
                "m.layers.1.w": np.array([2.0, 2.0, 2.0, 2.0], dtype=np.float32),
            },
            "B",
        )
        self.params = {"A": (0.5, 0.5), "B": (0.5, 0.5)}


class TestResolveLayer:
    def test_severe_drops_smaller_contribution(self):
        fx = TwoLayerFixture()
        row = make_row(0, 0.3, 0.2, c_aa=0.5, c_bb=0.2)
        da, db, action = resolve_layer(
            0, row, fx.delta_a, fx.delta_b, fx.partition, fx.params
        )
        assert action.kind == "DROP" and action.model == "B"
        assert not db.deltas["m.layers.0.w"].any()
        # Other layers and the other model untouched bitwise.
        assert np.array_equal(db.deltas["m.layers.1.w"], fx.delta_b.deltas["m.layers.1.w"])
        assert np.array_equal(da.deltas["m.layers.0.w"], fx.delta_a.deltas["m.layers.0.w"])

    def test_severe_tie_keeps_model_a(self):
        fx = TwoLayerFixture()
        row = make_row(0, 0.3, 0.2, c_aa=0.4, c_bb=0.4)
        _, db, action = resolve_layer(0, row, fx.delta_a, fx.delta_b, fx.partition, fx.params)
        assert action.model == "B"
        assert "tie" in action.note
        assert not db.deltas["m.layers.0.w"].any()

    def test_partial_reprunes_negative_gamma_model(self):
        fx = TwoLayerFixture()
        row = make_row(0, -0.2, 0.4)
        da, db, action = resolve_layer(0, row, fx.delta_a, fx.delta_b, fx.partition, fx.params)
        assert action.kind == "REPRUNE" and action.model == "A"
        assert action.p_layer == 0.5 and action.s_layer == 0.5
        assert da.deltas["m.layers.0.w"].tolist() == [1.5, 0.0, 1.0, 0.0]
        assert np.array_equal(da.deltas["m.layers.1.w"], fx.delta_a.deltas["m.layers.1.w"])
        assert np.array_equal(db.deltas["m.layers.0.w"], fx.delta_b.deltas["m.layers.0.w"])

    def test_mutual_keeps_everything_bitwise(self):
        fx = TwoLayerFixture()
        row = make_row(0, -0.1, -0.3)
        da, db, action = resolve_layer(0, row, fx.delta_a, fx.delta_b, fx.partition, fx.params)
        assert action.kind == "KEEP"
        for name in da.names:
            assert np.array_equal(da.deltas[name], fx.delta_a.deltas[name])
            assert np.array_equal(db.deltas[name], fx.delta_b.deltas[name])

    def test_reprune_support_nesting_and_shrinkage(self):
        fx = TwoLayerFixture()
        row = make_row(0, -0.2, 0.4)
        da, _, action = resolve_layer(0, row, fx.delta_a, fx.delta_b, fx.partition, fx.params)
        before = fx.delta_a.deltas["m.layers.0.w"]
        after = da.deltas["m.layers.0.w"]
        assert np.all((after != 0) <= (before != 0))
        assert np.abs(after).max() == pytest.approx(0.5 * np.abs(before).max())


def fixed_profile_factory(rows):
    def fake_conflict_profile(ctx, layers=None, full_matrix=False):
        wanted = set(layers) if layers is not None else None
        from himerge.analysis import ConflictProfile

        picked = [r for r in rows if wanted is None or r.layer in wanted]
        return ConflictProfile(baselines={}, rows=picked)

    return fake_conflict_profile


class TestIterate:
    def _ctx(self):
        fx = TwoLayerFixture()
        task = EvalTask("A", ConstantTask())
        return make_context(fx.base, fx.base, fx.base, task, task), fx

    def test_no_conflicts_no_actions(self):
        ctx, fx = self._ctx()
        from himerge.analysis import ConflictProfile

        profile = ConflictProfile(baselines={}, rows=[make_row(0, -0.1, 0.0), make_row(1, 0.0, 0.0)])
        da, db, log = iterate(
            ctx, profile, IterationPolicy(), PruneScaleParams(1, 1), PruneScaleParams(1, 1)
        )
        assert log.actions == []
        for name in da.names:
            assert np.array_equal(da.deltas[name], ctx.delta_a.deltas[name])

    def test_descending_gamma_order(self):
        ctx, fx = self._ctx()
        from himerge.analysis import ConflictProfile

        profile = ConflictProfile(
            baselines={},
            rows=[make_row(0, 0.1, 0.05, 1.0, 0.0), make_row(1, 0.4, 0.2, 1.0, 0.0)],
        )
        _, _, log = iterate(
            ctx, profile, IterationPolicy(), PruneScaleParams(1, 1), PruneScaleParams(1, 1)
        )
        assert [a.layer for a in log.actions] == [1, 0]
        assert [a.Gamma for a in log.actions] == sorted(
            (a.Gamma for a in log.actions), reverse=True
        )

    def test_halving_schedule_across_passes(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = ctx.__class__(**{**ctx.__dict__, "delta_a": fx.delta_a, "delta_b": fx.delta_b})
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=3, max_halvings=3)
        _, _, log = iterate(ctx, profile, policy, PruneScaleParams(1.0, 1.0), PruneScaleParams(1.0, 1.0))
        reprunes = [a for a in log.actions if a.kind == "REPRUNE"]
        assert [(a.p_layer, a.s_layer) for a in reprunes] == [
            (0.5, 0.5),
            (0.25, 0.25),
            (0.125, 0.125),
        ]

    def test_halving_cap_keeps_layer(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = ctx.__class__(**{**ctx.__dict__, "delta_a": fx.delta_a, "delta_b": fx.delta_b})
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=4, max_halvings=2)
        _, _, log = iterate(ctx, profile, policy, PruneScaleParams(1.0, 1.0), PruneScaleParams(1.0, 1.0))
        kinds = [a.kind for a in log.actions]
        assert kinds == ["REPRUNE", "REPRUNE", "KEEP", "KEEP"]
        assert "halving cap" in log.actions[2].note

    def test_partial_log_attached_on_failure(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = ctx.__class__(**{**ctx.__dict__, "delta_a": fx.delta_a, "delta_b": fx.delta_b})
        rows = [make_row(0, -0.2, 0.4)]

        def failing_profile(*args, **kwargs):
            raise EvaluatorError("oracle went away")

        monkeypatch.setattr(resolver_mod, "conflict_profile", failing_profile)
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=2)
        with pytest.raises(EvaluatorError) as excinfo:
            iterate(ctx, profile, policy, PruneScaleParams(1, 1), PruneScaleParams(1, 1))
        partial = excinfo.value.partial_log
        assert [a.kind for a in partial.actions] == ["REPRUNE"]

    def test_single_halving_mode(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = ctx.__class__(**{**ctx.__dict__, "delta_a": fx.delta_a, "delta_b": fx.delta_b})
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=2, max_halvings=3, single_halving=True)
        _, _, log = iterate(ctx, profile, policy, PruneScaleParams(1.0, 0.8), PruneScaleParams(1.0, 0.8))
        reprunes = [a for a in log.actions if a.kind == "REPRUNE"]
        assert [(a.p_layer, a.s_layer) for a in reprunes] == [(0.5, 0.4), (0.5, 0.4)]


class TestHiMerge:
    def test_identical_models_give_base(self):
        base, *_ , ta, tb = single_signal_instance(n_eval=200)
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 1.0),
            params_b=PruneScaleParams(1.0, 1.0),
            task_a=ta,
            task_b=tb,
        )
        result = hi_merge(base, base, base, config)
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(base)
        assert all(row.Gamma == 0.0 for row in result.profile.rows)

    def test_constant_evaluator_equals_unit_weight_merge_bitwise(self):
        base, ma, mb, _, _ = single_signal_instance(n_eval=200)
        params = PruneScaleParams(0.6, 0.7)
        config = HiMergeConfig(
            params_a=params,
            params_b=params,
            task_a=EvalTask("A", ConstantTask()),
            task_b=EvalTask("B", ConstantTask()),
        )
        result = hi_merge(base, ma, mb, config)
        da = model_wise_process(compute_delta(ma, base, "A"), params)
        db = model_wise_process(compute_delta(mb, base, "B"), params)
        ref = delta_weighted_merge(base, [da, db], MergeWeights({"A": 1.0, "B": 1.0}))
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(ref)
        assert result.log.actions == []

    def test_degenerate_pipeline_p1_s1_constant(self):
        # With p=1, s=1 the processed deltas are the raw ones, so the whole
        # pipeline must collapse to the plain unit-weight delta merge.
        base, ma, mb, _, _ = single_signal_instance(n_eval=200)
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 1.0),
            params_b=PruneScaleParams(1.0, 1.0),
            task_a=EvalTask("A", ConstantTask()),
            task_b=EvalTask("B", ConstantTask()),
        )
        result = hi_merge(base, ma, mb, config)
        ref = delta_weighted_merge(
            base,
            [compute_delta(ma, base, "A"), compute_delta(mb, base, "B")],
            MergeWeights({"A": 1.0, "B": 1.0}),
        )
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(ref)

    def test_conflict_instance_resolved_and_logged(self):
        base, ma, mb, ta, tb, k = conflict_instance(seed=4)
        bridge = EvaluationBridge()
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 0.5),
            params_b=PruneScaleParams(1.0, 0.5),
            task_a=ta,
            task_b=tb,
        )
        result = hi_merge(base, ma, mb, config, bridge=bridge)
        acted = [a for a in result.log.actions if a.kind != "KEEP"]
        assert acted and acted[0].layer == k
        # The resolved merge must not hurt either task vs the pre-merge model.
        sa_g = bridge.evaluate(result.theta_g, ta).value
        sb_g = bridge.evaluate(result.theta_g, tb).value
        sa_m = bridge.evaluate(result.merged, ta).value
        sb_m = bridge.evaluate(result.merged, tb).value
        assert sa_m >= sa_g and sb_m >= sb_g

    def test_half_precision_checkpoints_keep_their_dtype(self):
        rng = np.random.default_rng(11)
        names = [f"m.layers.{l}.w" for l in range(2)]
        base = checkpoint_from_arrays(
            {n: rng.standard_normal(16).astype(np.float32) for n in names}, dtype="f16"
        )
        ma = checkpoint_from_arrays(
            {n: base.as_f32(n) + rng.standard_normal(16).astype(np.float32) * 0.125 for n in names},
            dtype="f16",
        )
        mb = checkpoint_from_arrays(
            {n: base.as_f32(n) - rng.standard_normal(16).astype(np.float32) * 0.125 for n in names},
            dtype="f16",
        )
        config = HiMergeConfig(
            params_a=PruneScaleParams(0.5, 0.5),
            params_b=PruneScaleParams(0.5, 0.5),
            task_a=EvalTask("A", ConstantTask()),
            task_b=EvalTask("B", ConstantTask()),
        )
        result = hi_merge(base, ma, mb, config)
        assert all(rec.dtype == "f16" for rec in result.merged)

    def test_determinism(self):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=5, dim=64, n_eval=400)
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 0.5),
            params_b=PruneScaleParams(1.0, 0.5),
            task_a=ta,
            task_b=tb,
        )
        r1 = hi_merge(base, ma, mb, config)
        r2 = hi_merge(base, ma, mb, config)
        assert checkpoint_to_bytes(r1.merged) == checkpoint_to_bytes(r2.merged)
        assert [a.to_dict() for a in r1.log.actions] == [a.to_dict() for a in r2.log.actions]

    def test_recompute_mode_reprofiles_only_pending_layers(self, monkeypatch):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=6, dim=48, n_eval=300)
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 0.5),
            params_b=PruneScaleParams(1.0, 0.5),
            task_a=ta,
            task_b=tb,
            policy=IterationPolicy(recompute=True),
        )
        profiled = []

        def recording_profile(ctx, layers=None, full_matrix=False):
            profiled.append(list(layers))
            return conflict_profile(ctx, layers=layers, full_matrix=full_matrix)

        monkeypatch.setattr(resolver_mod, "conflict_profile", recording_profile)
        result = hi_merge(base, ma, mb, config)
        analyzed = [row.layer for row in result.profile.rows]
        assert profiled[0] == analyzed
        assert len(profiled) >= 2
        # A single pass re-profiles only the layers still pending, and
        # nothing after the last action.
        for layers in profiled[1:]:
            assert set(layers) < set(analyzed)

    def test_persistence(self, tmp_path):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=7, dim=48, n_eval=200)
        out = tmp_path / "run"
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 0.5),
            params_b=PruneScaleParams(1.0, 0.5),
            task_a=ta,
            task_b=tb,
            out_dir=out,
        )
        hi_merge(base, ma, mb, config)
        for name in (
            "merged.safetensors",
            "theta_g.safetensors",
            "delta_a_processed.safetensors",
            "delta_b_processed.safetensors",
            "delta_a_final.safetensors",
            "delta_b_final.safetensors",
            "profile.json",
            "profile.csv",
            "resolution_log.jsonl",
            "resolution_summary.txt",
        ):
            assert (out / name).exists(), name
        lines = (out / "resolution_log.jsonl").read_text().splitlines()
        assert all("layer" in json.loads(line) for line in lines)

    def test_partial_log_persisted_on_mid_run_failure(self, tmp_path, monkeypatch):
        fx = TwoLayerFixture()
        ma = checkpoint_from_arrays(
            {n: fx.base.as_f32(n) + fx.delta_a.deltas[n] for n in fx.base.names}
        )
        mb = checkpoint_from_arrays(
            {n: fx.base.as_f32(n) + fx.delta_b.deltas[n] for n in fx.base.names}
        )
        calls = {"n": 0}
        good_rows = [make_row(0, -0.2, 0.4), make_row(1, -0.1, 0.3)]

        def flaky_profile(ctx, layers=None, full_matrix=False):
            calls["n"] += 1
            if calls["n"] > 1:
                raise EvaluatorError("oracle went away")
            return fixed_profile_factory(good_rows)(ctx, layers=layers)

        monkeypatch.setattr(resolver_mod, "conflict_profile", flaky_profile)
        out = tmp_path / "run"
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 1.0),
            params_b=PruneScaleParams(1.0, 1.0),
            task_a=EvalTask("A", ConstantTask()),
            task_b=EvalTask("B", ConstantTask()),
            policy=IterationPolicy(recompute=True),
            out_dir=out,
        )
        with pytest.raises(EvaluatorError, match="stage resolution"):
            hi_merge(fx.base, ma, mb, config)
        lines = (out / "resolution_log.partial.jsonl").read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["kind"] == "REPRUNE"

    def test_rule_matching_nothing_degenerates_to_pre_merge(self):
        # No analyzable layers: the pipeline reduces to model-wise
        # processing plus assembly, with an empty profile and no actions.
        rng = np.random.default_rng(12)
        names = ["alpha.w", "beta.w"]
        base = checkpoint_from_arrays({n: rng.standard_normal(8).astype(np.float32) for n in names})
        ma = checkpoint_from_arrays({n: rng.standard_normal(8).astype(np.float32) for n in names})
        mb = checkpoint_from_arrays({n: rng.standard_normal(8).astype(np.float32) for n in names})
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 1.0),
            params_b=PruneScaleParams(1.0, 1.0),
            task_a=EvalTask("A", ConstantTask()),
            task_b=EvalTask("B", ConstantTask()),
        )
        result = hi_merge(base, ma, mb, config)
        assert result.profile.rows == []
        assert result.log.actions == []
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(result.theta_g)

    def test_stage_labels_on_failure(self):
        base, ma, mb, ta, tb = single_signal_instance(n_eval=100)
        bad = checkpoint_from_arrays({"other": [1.0]})
        config = HiMergeConfig(
            params_a=PruneScaleParams(1.0, 1.0),
            params_b=PruneScaleParams(1.0, 1.0),
            task_a=ta,
            task_b=tb,
        )
        with pytest.raises(Exception, match="stage compat"):
            hi_merge(base, bad, mb, config)
