import dataclasses
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import himerge.resolver as resolver_mod
from himerge import (
    ConfigError,
    ConflictCase,
    ConstantTask,
    EvalTask,
    EvaluationBridge,
    EvaluatorError,
    FormatError,
    HiMergeConfig,
    IterationPolicy,
    MergeWeights,
    PruneScaleParams,
    ResolutionLog,
    assemble_final,
    classify_layer,
    compute_delta,
    delta_weighted_merge,
    fingerprint,
    hi_merge,
    iterate,
    load_checkpoint,
    model_wise_process,
    partition_layers,
    resolve_layer,
)
from himerge.analysis import (
    AnalysisContext,
    ConflictProfile,
    LayerConflictRow,
    conflict_profile,
)
from himerge.checkpoint import FileRecord, checkpoint_to_bytes

import reference_resolver
from conftest import backdate, checkpoint_from_arrays
from instances import conflict_instance, delta_from_arrays, make_context, single_signal_instance


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


def both(p, s):
    """The same model-wise (p, s) for models A and B."""
    return {"A": PruneScaleParams(p, s), "B": PruneScaleParams(p, s)}


class TestClassify:
    def test_spec_examples(self):
        assert classify_layer(0.3, 0.1) is ConflictCase.SEVERE
        assert classify_layer(-0.2, 0.4) is ConflictCase.PARTIAL
        assert classify_layer(0.0, 0.0) is ConflictCase.MUTUAL

    def test_boundary_zero_with_positive_is_mutual(self):
        assert classify_layer(0.0, 0.4) is ConflictCase.MUTUAL
        assert classify_layer(0.4, 0.0) is ConflictCase.MUTUAL

    def test_opposite_gammas_whose_product_underflows_are_partial(self):
        assert 1e-200 * -1e-200 == 0 and -3e-170 * 2e-160 == 0
        assert classify_layer(1e-200, -1e-200) is ConflictCase.PARTIAL
        assert classify_layer(-3e-170, 2e-160) is ConflictCase.PARTIAL

    def test_non_finite_rejected(self):
        with pytest.raises(EvaluatorError):
            classify_layer(float("nan"), 0.0)
        with pytest.raises(EvaluatorError):
            classify_layer(0.0, float("inf"))

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_total_partition(self, ga, gb):
        case = classify_layer(ga, gb)
        severe = ga > 0 and gb > 0
        opposite = (ga < 0 < gb) or (gb < 0 < ga)
        matches = [
            case is ConflictCase.SEVERE and severe,
            case is ConflictCase.PARTIAL and opposite,
            case is ConflictCase.MUTUAL and not severe and not opposite,
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
        self.delta_a = delta_from_arrays(
            {
                "m.layers.0.w": np.array([3.0, -1.0, 2.0, 0.5], dtype=np.float32),
                "m.layers.1.w": np.array([1.0, 1.0, 1.0, 1.0], dtype=np.float32),
            },
            fp,
            "A",
        )
        self.delta_b = delta_from_arrays(
            {
                "m.layers.0.w": np.array([-2.0, 4.0, 0.0, 1.0], dtype=np.float32),
                "m.layers.1.w": np.array([2.0, 2.0, 2.0, 2.0], dtype=np.float32),
            },
            fp,
            "B",
        )
        self.deltas = {"A": self.delta_a, "B": self.delta_b}
        self.params = {"A": (0.5, 0.5), "B": (0.5, 0.5)}


def resolve(fx, row, params=None):
    """``resolve_layer`` on the fixture's layer 0: (delta A, delta B, action)."""
    out, action = resolve_layer(0, row, fx.deltas, fx.partition, params or fx.params)
    return out["A"], out["B"], action


class TestResolveLayer:
    def test_severe_drops_smaller_contribution(self):
        fx = TwoLayerFixture()
        row = make_row(0, 0.3, 0.2, c_aa=0.5, c_bb=0.2)
        da, db, action = resolve(fx, row)
        assert action.kind == "DROP" and action.model == "B"
        assert not db.array("m.layers.0.w").any()
        # Other layers and the other model untouched bitwise.
        assert np.array_equal(db.array("m.layers.1.w"), fx.delta_b.array("m.layers.1.w"))
        assert np.array_equal(da.array("m.layers.0.w"), fx.delta_a.array("m.layers.0.w"))

    def test_severe_tie_keeps_model_a(self):
        fx = TwoLayerFixture()
        row = make_row(0, 0.3, 0.2, c_aa=0.4, c_bb=0.4)
        _, db, action = resolve(fx, row)
        assert action.model == "B"
        assert "tie" in action.note
        assert not db.array("m.layers.0.w").any()

    def test_partial_reprunes_negative_gamma_model(self):
        fx = TwoLayerFixture()
        row = make_row(0, -0.2, 0.4)
        da, db, action = resolve(fx, row)
        assert action.kind == "REPRUNE" and action.model == "A"
        assert action.p_layer == 0.5 and action.s_layer == 0.5
        assert da.array("m.layers.0.w").tolist() == [1.5, 0.0, 1.0, 0.0]
        assert np.array_equal(da.array("m.layers.1.w"), fx.delta_a.array("m.layers.1.w"))
        assert np.array_equal(db.array("m.layers.0.w"), fx.delta_b.array("m.layers.0.w"))

    def test_partial_whose_gamma_product_underflows_reprunes(self):
        fx = TwoLayerFixture()
        row = make_row(0, -3e-170, 2e-160)
        da, db, action = resolve(fx, row)
        assert (action.kind, action.case, action.model) == ("REPRUNE", "PARTIAL", "A")
        assert (action.p_layer, action.s_layer) == fx.params["A"]
        assert da.array("m.layers.0.w").tolist() == [1.5, 0.0, 1.0, 0.0]
        assert db is fx.delta_b

    def test_mutual_keeps_everything_bitwise(self):
        fx = TwoLayerFixture()
        row = make_row(0, -0.1, -0.3)
        da, db, action = resolve(fx, row)
        assert action.kind == "KEEP"
        for name in da.names:
            assert np.array_equal(da.array(name), fx.delta_a.array(name))
            assert np.array_equal(db.array(name), fx.delta_b.array(name))

    def test_partial_aggressor_at_its_halving_cap_is_kept(self):
        fx = TwoLayerFixture()
        params = {"A": "halving cap (0) reached for model A", "B": (0.5, 0.5)}
        row = make_row(0, -0.2, 0.4)
        da, db, action = resolve(fx, row, params)
        assert (action.kind, action.case, action.model) == ("KEEP", "PARTIAL", None)
        assert action.note == params["A"]
        assert (action.p_layer, action.s_layer) == (None, None)
        assert da is fx.delta_a and db is fx.delta_b
        # Only the aggressor's entry matters: B's cap does not stop A's re-prune.
        params = {"A": (0.5, 0.5), "B": "halving cap (0) reached for model B"}
        _, _, action = resolve(fx, row, params)
        assert (action.kind, action.model) == ("REPRUNE", "A")

    def test_severe_loser_already_zero_is_kept(self, tmp_path):
        fx = TwoLayerFixture()
        row = make_row(0, 0.25, 0.5, c_aa=0.5, c_bb=0.25)
        _, fx.deltas["B"], _ = resolve(fx, row)
        deltas, action = resolve_layer(0, row, fx.deltas, fx.partition, fx.params)
        assert deltas == fx.deltas
        assert all(deltas[m] is fx.deltas[m] for m in "AB")
        ResolutionLog([action]).write_jsonl(tmp_path / "log.jsonl")
        assert (tmp_path / "log.jsonl").read_bytes() == (
            b'{"Gamma": 0.75, "case": "SEVERE", "gamma_a": 0.25, "gamma_b": 0.5, '
            b'"kind": "KEEP", "layer": 0, "model": null, '
            b'"note": "layer delta of model B is already zero", "p_layer": null, "s_layer": null}\n'
        )

    def test_reprune_support_nesting_and_shrinkage(self):
        fx = TwoLayerFixture()
        row = make_row(0, -0.2, 0.4)
        da, _, action = resolve(fx, row)
        before = fx.delta_a.array("m.layers.0.w")
        after = da.array("m.layers.0.w")
        assert np.all((after != 0) <= (before != 0))
        assert np.abs(after).max() == pytest.approx(0.5 * np.abs(before).max())


def fixed_profile_factory(rows):
    def fake_conflict_profile(ctx, layers=None, full_matrix=False):
        wanted = set(layers) if layers is not None else None
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
        profile = ConflictProfile(baselines={}, rows=[make_row(0, -0.1, 0.0), make_row(1, 0.0, 0.0)])
        da, db, log = iterate(ctx, profile, IterationPolicy(), both(1, 1))
        assert log.actions == []
        for name in da.names:
            assert np.array_equal(da.array(name), ctx.deltas["A"].array(name))

    def test_descending_gamma_order(self):
        ctx, fx = self._ctx()
        profile = ConflictProfile(
            baselines={},
            rows=[make_row(0, 0.1, 0.05, 1.0, 0.0), make_row(1, 0.4, 0.2, 1.0, 0.0)],
        )
        _, _, log = iterate(ctx, profile, IterationPolicy(), both(1, 1))
        assert [a.layer for a in log.actions] == [1, 0]
        assert [a.Gamma for a in log.actions] == sorted(
            (a.Gamma for a in log.actions), reverse=True
        )

    def test_halving_schedule_across_passes(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=3, max_halvings=3)
        _, _, log = iterate(ctx, profile, policy, both(1.0, 1.0))
        reprunes = [a for a in log.actions if a.kind == "REPRUNE"]
        assert [(a.p_layer, a.s_layer) for a in reprunes] == [
            (0.5, 0.5),
            (0.25, 0.25),
            (0.125, 0.125),
        ]

    def test_halving_cap_keeps_layer(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=4, max_halvings=2)
        _, _, log = iterate(ctx, profile, policy, both(1.0, 1.0))
        kinds = [a.kind for a in log.actions]
        # The third pass only keeps, so it changes no delta and is the last.
        assert kinds == ["REPRUNE", "REPRUNE", "KEEP"]
        assert "halving cap" in log.actions[2].note

    def test_halving_cap_keep_line_bytes(self, monkeypatch, tmp_path):
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, -0.25, 0.5)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=2, max_halvings=1)
        _, _, log = iterate(ctx, profile, policy, both(1.0, 1.0))
        log.write_jsonl(tmp_path / "log.jsonl")
        lines = (tmp_path / "log.jsonl").read_bytes().splitlines()
        assert lines[1] == (
            b'{"Gamma": 0.25, "case": "PARTIAL", "gamma_a": -0.25, "gamma_b": 0.5, '
            b'"kind": "KEEP", "layer": 0, "model": null, '
            b'"note": "halving cap (1) reached for model A", "p_layer": null, "s_layer": null}'
        )

    def test_a_severe_layer_is_dropped_once(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, 0.25, 0.5, c_aa=0.5, c_bb=0.25)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        _, db, log = iterate(ctx, profile, IterationPolicy(max_passes=4), both(1.0, 1.0))
        # The second pass finds B's layer already zero, keeps it and ends the run.
        assert [(a.kind, a.case, a.model) for a in log.actions] == [
            ("DROP", "SEVERE", "B"),
            ("KEEP", "SEVERE", None),
        ]
        assert log.actions[1].note == "layer delta of model B is already zero"
        assert not db.array("m.layers.0.w").any()

    def test_a_pass_that_changes_no_delta_ends_the_run(self, monkeypatch):
        ctx, fx = self._ctx()
        rows = [make_row(0, 0.0, 0.4)]  # a boundary keep whose Gamma is above 0
        profiled = []

        def recording(ctx, layers=None, full_matrix=False):
            profiled.append(list(layers))
            return fixed_profile_factory(rows)(ctx, layers=layers)

        monkeypatch.setattr(resolver_mod, "conflict_profile", recording)
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(recompute=True, max_passes=4)
        _, _, log = iterate(ctx, profile, policy, both(1.0, 1.0))
        assert [a.kind for a in log.actions] == ["KEEP"]
        assert profiled == []

    def test_the_log_holds_the_actions_taken_before_a_failure(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, -0.2, 0.4)]

        def failing_profile(*args, **kwargs):
            raise EvaluatorError("oracle went away")

        monkeypatch.setattr(resolver_mod, "conflict_profile", failing_profile)
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=2)
        log = ResolutionLog()
        with pytest.raises(EvaluatorError, match="oracle went away"):
            iterate(ctx, profile, policy, both(1, 1), log)
        assert [a.kind for a in log.actions] == ["REPRUNE"]

    def test_single_halving_mode(self, monkeypatch):
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=2, max_halvings=3, single_halving=True)
        _, _, log = iterate(ctx, profile, policy, both(1.0, 0.8))
        reprunes = [a for a in log.actions if a.kind == "REPRUNE"]
        assert [(a.p_layer, a.s_layer) for a in reprunes] == [(0.5, 0.4), (0.5, 0.4)]

    def test_halving_past_the_float_exponent_range(self, monkeypatch):
        # 2**1024 is no float: halving by dividing by it overflowed at the
        # 1024th re-prune.  Past 2**-1074, the smallest float, (p, s) is 0.0.
        ctx, fx = self._ctx()
        ctx = dataclasses.replace(ctx, deltas=fx.deltas)
        rows = [make_row(0, -0.2, 0.4)]
        monkeypatch.setattr(resolver_mod, "conflict_profile", fixed_profile_factory(rows))
        profile = fixed_profile_factory(rows)(ctx)
        policy = IterationPolicy(max_passes=1100, max_halvings=1100)
        _, _, log = iterate(ctx, profile, policy, both(1.0, 1.0))
        assert [a.kind for a in log.actions] == ["REPRUNE"] * 1100
        for k, action in enumerate(log.actions, start=1):
            assert action.p_layer == action.s_layer == math.ldexp(1.0, -k)
        assert log.actions[-1].p_layer == 0.0


# Conflict values the stand-in profiler draws from: zeros, both signs and
# repeats, so Gamma ties, boundary keeps and c_AA == c_BB ties are common.
GAMMAS = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
OWN = (0.0, 0.5, 1.0)


class SeededProfiler:
    """A stand-in for ``conflict_profile`` whose rows are a seeded function
    of the call index and the layer, whatever the deltas: two runs that ask
    for the same layers in the same order see the same profiles."""

    def __init__(self, seed):
        self.seed = seed
        self.calls = []

    def rows(self, layers):
        index = len(self.calls)
        self.calls.append(list(layers))
        rows = []
        for layer in layers:
            rng = np.random.default_rng([self.seed, index, layer])
            ga, gb = (float(g) for g in rng.choice(GAMMAS, 2))
            if rng.random() < 0.25:
                gb = -ga  # an opposite-sign pair, Gamma == 0
            c_aa, c_bb = (float(c) for c in rng.choice(OWN, 2))
            rows.append(make_row(layer, ga, gb, c_aa, c_bb))
        return rows

    def conflict_profile(self, ctx, layers=None, full_matrix=False):
        return ConflictProfile(baselines={}, rows=self.rows(layers))


def random_context(seed, n_layers):
    """A context of ``n_layers`` two-tensor layers whose deltas hold quarter
    steps in [-1, 1] (equal magnitudes make Top_p ties), scored by a
    constant task."""
    rng = np.random.default_rng(seed)
    arrays = {}
    for layer in range(n_layers):
        arrays[f"m.layers.{layer}.a"] = np.zeros(3, np.float32)
        arrays[f"m.layers.{layer}.b"] = np.zeros((2, 2), np.float32)
    base = checkpoint_from_arrays(arrays)
    fp = fingerprint(base)
    da, db = (
        delta_from_arrays({n: rng.integers(-4, 5, a.shape).astype(np.float32) / 4
                           for n, a in arrays.items()}, fp, model)
        for model in ("A", "B")
    )
    task = EvalTask("A", ConstantTask())
    return AnalysisContext(
        base, {"A": base, "B": base}, {"A": da, "B": db}, assemble_final(base, da, db),
        partition_layers(base), {"A": task, "B": task}, EvaluationBridge(),
    )


class TestAgainstReference:
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_layers=st.integers(1, 5),
        gamma_threshold=st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.5]),
        recompute=st.booleans(),
        max_passes=st.integers(1, 4),
        max_halvings=st.integers(0, 3),
        single_halving=st.booleans(),
        p=st.sampled_from([0.25, 0.5, 1.0]),
        s=st.sampled_from([0.0, 0.5, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_iterate_matches_the_serial_reference(
        self, seed, n_layers, gamma_threshold, recompute, max_passes, max_halvings,
        single_halving, p, s,
    ):
        ctx = random_context(seed, n_layers)
        partition = ctx.partition
        policy = IterationPolicy(
            gamma_threshold=gamma_threshold,
            recompute=recompute,
            max_passes=max_passes,
            max_halvings=max_halvings,
            single_halving=single_halving,
        )
        params = PruneScaleParams(p, s)
        layers = partition.transformer_layers()

        lib = SeededProfiler(seed)
        profile = lib.conflict_profile(ctx, layers=layers)
        with mock.patch.object(resolver_mod, "conflict_profile", lib.conflict_profile):
            final_a, final_b, log = iterate(ctx, profile, policy, {"A": params, "B": params})

        ref = SeededProfiler(seed)
        ref_a, ref_b, actions = reference_resolver.iterate(
            ref.rows(layers), lambda a, b, wanted: ref.rows(wanted), partition,
            ctx.deltas["A"], ctx.deltas["B"], policy, params, params,
        )
        assert [json.dumps(a.to_dict(), sort_keys=True) for a in log.actions] == [
            json.dumps(a, sort_keys=True) for a in actions
        ]
        assert lib.calls == ref.calls
        for got, want in ((final_a, ref_a), (final_b, ref_b)):
            assert got.names == want.names
            for name in got.names:
                assert got.array(name).dtype == np.float32
                assert got.array(name).tobytes() == want.array(name).tobytes(), name


    @given(
        seed=st.integers(0, 2**32 - 1),
        n_layers=st.integers(1, 5),
        recompute=st.booleans(),
        max_passes=st.integers(2, 6),
        max_halvings=st.integers(0, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_no_layer_is_dropped_twice_and_a_keep_only_pass_is_the_last(
        self, seed, n_layers, recompute, max_passes, max_halvings
    ):
        ctx = random_context(seed, n_layers)
        layers = ctx.partition.transformer_layers()
        policy = IterationPolicy(
            recompute=recompute, max_passes=max_passes, max_halvings=max_halvings
        )
        # One event per profile and per action, in the order they happen.
        events = []
        profiler = SeededProfiler(seed)

        def profile(ctx, layers=None, full_matrix=False):
            events.append(("profile", list(layers)))
            return profiler.conflict_profile(ctx, layers=layers)

        def recording_resolve(*args):
            deltas, action = resolve_layer(*args)
            events.append((action.kind, action.layer, action.model))
            return deltas, action

        first = profiler.conflict_profile(ctx, layers=layers)
        with mock.patch.object(resolver_mod, "conflict_profile", profile), \
                mock.patch.object(resolver_mod, "resolve_layer", recording_resolve):
            iterate(ctx, first, policy, both(0.5, 0.5))
        drops = [event[1:] for event in events if event[0] == "DROP"]
        assert len(drops) == len(set(drops))
        # A later pass starts with a profile of every analyzed layer; a
        # --recompute profile after an action covers only the pending ones.
        passes = [[]]
        for event in events:
            if event == ("profile", layers):
                passes.append([])
            else:
                passes[-1].append(event[0])
        for kinds in passes[:-1]:
            assert any(kind in ("DROP", "REPRUNE") for kind in kinds)


class TestHiMerge:
    def test_identical_models_give_base(self):
        base, *_ , ta, tb = single_signal_instance(n_eval=200)
        config = HiMergeConfig(
            params=both(1.0, 1.0),
            tasks={"A": ta, "B": tb},
        )
        result = hi_merge(base, base, base, config)
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(base)
        assert all(row.Gamma == 0.0 for row in result.profile.rows)

    def test_constant_evaluator_equals_unit_weight_merge_bitwise(self):
        base, ma, mb, _, _ = single_signal_instance(n_eval=200)
        params = PruneScaleParams(0.6, 0.7)
        config = HiMergeConfig(
            params={"A": params, "B": params},
            tasks={"A": EvalTask("A", ConstantTask()), "B": EvalTask("B", ConstantTask())},
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
            params=both(1.0, 1.0),
            tasks={"A": EvalTask("A", ConstantTask()), "B": EvalTask("B", ConstantTask())},
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
            params=both(1.0, 0.5),
            tasks={"A": ta, "B": tb},
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

    def test_assembly_shares_theta_g_records_of_layers_left_alone(self):
        base, ma, mb, ta, tb, k = conflict_instance(seed=4)
        config = HiMergeConfig(
            params=both(0.5, 0.5),
            tasks={"A": ta, "B": tb},
            policy=IterationPolicy(gamma_threshold=-1.0),
        )
        result = hi_merge(base, ma, mb, config)
        acted = {a.layer for a in result.log.actions if a.kind != "KEEP"}
        partition = partition_layers(base)
        assert acted and set(partition.all_layers()) - acted
        for rec in result.merged:
            shared = rec is result.theta_g.record(rec.name)
            assert shared == (partition.layer_of(rec.name) not in acted)
        full = assemble_final(base, *result.deltas.values())
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(full)

    def test_reprofile_theta_g_shares_the_records_no_action_touched(self, monkeypatch):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=4)
        contexts = []
        original = resolver_mod.conflict_profile

        def recording(ctx, *args, **kwargs):
            contexts.append(ctx)
            return original(ctx, *args, **kwargs)

        monkeypatch.setattr(resolver_mod, "conflict_profile", recording)
        config = HiMergeConfig(
            params=both(0.5, 0.5),
            tasks={"A": ta, "B": tb},
            policy=IterationPolicy(gamma_threshold=-1.0, recompute=True, max_passes=2),
        )
        hi_merge(base, ma, mb, config)
        first, reprofiles = contexts[0], contexts[1:]
        assert reprofiles
        shared = []
        for ctx in reprofiles:
            for rec in ctx.theta_g:
                untouched = (
                    ctx.deltas["A"].record(rec.name) is first.deltas["A"].record(rec.name)
                    and ctx.deltas["B"].record(rec.name) is first.deltas["B"].record(rec.name)
                )
                assert (rec is first.theta_g.record(rec.name)) == untouched, rec.name
                shared.append(untouched)
            full = assemble_final(base, *ctx.deltas.values())
            assert checkpoint_to_bytes(ctx.theta_g) == checkpoint_to_bytes(full)
        assert any(shared) and not all(shared)

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
            params=both(0.5, 0.5),
            tasks={"A": EvalTask("A", ConstantTask()), "B": EvalTask("B", ConstantTask())},
        )
        result = hi_merge(base, ma, mb, config)
        assert all(rec.dtype == "f16" for rec in result.merged)

    def test_determinism(self):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=5, dim=64, n_eval=400)
        config = HiMergeConfig(
            params=both(1.0, 0.5),
            tasks={"A": ta, "B": tb},
        )
        r1 = hi_merge(base, ma, mb, config)
        r2 = hi_merge(base, ma, mb, config)
        assert checkpoint_to_bytes(r1.merged) == checkpoint_to_bytes(r2.merged)
        assert [a.to_dict() for a in r1.log.actions] == [a.to_dict() for a in r2.log.actions]

    def test_recompute_mode_reprofiles_only_pending_layers(self, monkeypatch):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=6, dim=48, n_eval=300)
        config = HiMergeConfig(
            params=both(1.0, 0.5),
            tasks={"A": ta, "B": tb},
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
            params=both(1.0, 0.5),
            tasks={"A": ta, "B": tb},
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
            {n: fx.base.as_f32(n) + fx.delta_a.array(n) for n in fx.base.names}
        )
        mb = checkpoint_from_arrays(
            {n: fx.base.as_f32(n) + fx.delta_b.array(n) for n in fx.base.names}
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
            params=both(1.0, 1.0),
            tasks={"A": EvalTask("A", ConstantTask()), "B": EvalTask("B", ConstantTask())},
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
            params=both(1.0, 1.0),
            tasks={"A": EvalTask("A", ConstantTask()), "B": EvalTask("B", ConstantTask())},
        )
        result = hi_merge(base, ma, mb, config)
        assert result.profile.rows == []
        assert result.log.actions == []
        assert checkpoint_to_bytes(result.merged) == checkpoint_to_bytes(result.theta_g)

    @pytest.mark.parametrize("field", ["params", "tasks"])
    @pytest.mark.parametrize("keys", [["A"], ["A", "B", "C"], ["a", "b"], ["A", 2]])
    def test_config_tables_are_keyed_by_a_and_b(self, field, keys):
        tables = {
            "params": {"A": PruneScaleParams(1.0, 1.0), "B": PruneScaleParams(1.0, 1.0)},
            "tasks": {m: EvalTask(m, ConstantTask()) for m in "AB"},
        }
        value = next(iter(tables[field].values()))
        tables[field] = {key: value for key in keys}
        with pytest.raises(ConfigError, match=f"{field} must be keyed by model ids A and B"):
            HiMergeConfig(**tables)

    def test_stage_labels_on_failure(self):
        base, ma, mb, ta, tb = single_signal_instance(n_eval=100)
        bad = checkpoint_from_arrays({"other": [1.0]})
        config = HiMergeConfig(
            params=both(1.0, 1.0),
            tasks={"A": ta, "B": tb},
        )
        with pytest.raises(Exception, match="stage compat"):
            hi_merge(base, bad, mb, config)


class TestFileBackedDeltas:
    """With ``out_dir`` the processed deltas stay in their files and are
    read back on use; without it they are held in memory.  Both runs must
    decide and write the same bytes."""

    @given(
        seed=st.integers(0, 20),
        p=st.sampled_from([0.25, 0.5, 1.0]),
        s=st.sampled_from([0.5, 1.0]),
        gamma_threshold=st.sampled_from([-1.0, 0.0]),
        recompute=st.booleans(),
        max_passes=st.integers(1, 3),
        max_halvings=st.integers(0, 2),
        full_matrix=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_in_memory_and_file_backed_runs_agree_bitwise(
        self, seed, p, s, gamma_threshold, recompute, max_passes, max_halvings, full_matrix
    ):
        base, ma, mb, ta, tb, _ = conflict_instance(seed=seed, dim=24, n_eval=300)
        policy = IterationPolicy(
            gamma_threshold=gamma_threshold, recompute=recompute, max_passes=max_passes,
            max_halvings=max_halvings,
        )
        config = HiMergeConfig(
            params=both(p, s), tasks={"A": ta, "B": tb}, policy=policy, full_matrix=full_matrix
        )
        in_memory = hi_merge(base, ma, mb, config)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            on_disk = hi_merge(base, ma, mb, dataclasses.replace(config, out_dir=out))
            for model_id, delta in on_disk.deltas.items():
                saved = load_checkpoint(out / f"delta_{model_id.lower()}_final.safetensors")
                assert saved.names == delta.names
                for rec in saved:
                    assert rec.as_f32().tobytes() == delta.array(rec.name).tobytes(), rec.name

            assert checkpoint_to_bytes(on_disk.merged) == checkpoint_to_bytes(in_memory.merged)
            assert checkpoint_to_bytes(on_disk.theta_g) == checkpoint_to_bytes(in_memory.theta_g)
            assert on_disk.profile.to_json_dict() == in_memory.profile.to_json_dict()
            assert [a.to_dict() for a in on_disk.log.actions] == [
                a.to_dict() for a in in_memory.log.actions
            ]
            for model_id, delta in in_memory.deltas.items():
                other = on_disk.deltas[model_id]
                assert other.names == delta.names
                for name in delta.names:
                    assert other.array(name).tobytes() == delta.array(name).tobytes(), name

            # The layers no action touched stay in the files, and the final
            # assembly shares theta_G's records there, as in memory.
            acted = {a.layer for a in on_disk.log.actions if a.kind != "KEEP"}
            partition = partition_layers(base)
            untouched = {n for n in base.names if partition.layer_of(n) not in acted}
            for run in (in_memory, on_disk):
                shared = {rec.name for rec in run.merged if rec is run.theta_g.record(rec.name)}
                assert shared == untouched
            for delta in on_disk.deltas.values():
                in_file = {rec.name for rec in delta if isinstance(rec, FileRecord)}
                assert untouched <= in_file

    def test_theta_g_is_saved_once_at_pre_merge_and_read_from_its_file(
        self, tmp_path, monkeypatch
    ):
        """With ``out_dir`` theta_G is written when it is made, before the
        first evaluation, and persist does not write it again.  The result's
        theta_G is that file: once the file changes, no record reads."""
        base, ma, mb, ta, tb, _ = conflict_instance(seed=7, dim=48, n_eval=200)
        out = tmp_path / "run"
        events = []
        save, evaluate = resolver_mod.save_checkpoint, EvaluationBridge.evaluate

        def recording_save(cp, path):
            events.append(Path(path).name)
            return save(cp, path)

        def recording_evaluate(bridge, cp, task):
            events.append("evaluate")
            return evaluate(bridge, cp, task)

        monkeypatch.setattr(resolver_mod, "save_checkpoint", recording_save)
        monkeypatch.setattr(EvaluationBridge, "evaluate", recording_evaluate)
        config = HiMergeConfig(params=both(1.0, 0.5), tasks={"A": ta, "B": tb}, out_dir=out)
        result = hi_merge(base, ma, mb, config)
        assert events.count("theta_g.safetensors") == 1
        assert events.index("theta_g.safetensors") < events.index("evaluate")
        path = out / "theta_g.safetensors"
        assert checkpoint_to_bytes(result.theta_g) == path.read_bytes()
        backdate(path)
        for rec in result.theta_g:
            with pytest.raises(FormatError, match="theta_g.safetensors: the file changed"):
                rec.data
