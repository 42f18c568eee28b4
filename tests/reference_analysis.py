"""Reference conflict analysis: every impact scores its shifted candidate
and then its unshifted reference again, as the analysis did before the
references became per-context baselines.  The differential tests in
test_analysis.py require the library's profiles to equal these exactly.
"""

from himerge.analysis import (
    CAPABILITIES,
    CORE_PAIRS,
    SOURCES,
    ConflictProfile,
    LayerConflictRow,
    shifted_checkpoint,
)
from himerge.delta import layer_arrays


def _source_arrays(ctx, source, layer):
    a, b = ctx.deltas["A"], ctx.deltas["B"]
    deltas = {"A": [a], "B": [b], "G": [a, b]}
    return [layer_arrays(delta, ctx.partition, layer) for delta in deltas[source]]


def _impact(capability, source, layer, ctx, ref, sign):
    task = ctx.tasks[capability]
    candidate = shifted_checkpoint(ref, _source_arrays(ctx, source, layer), sign)
    shifted = ctx.bridge.evaluate(candidate, task).value
    return shifted - ctx.bridge.evaluate(ref, task).value


def deletion_impact(capability, source, layer, ctx):
    ref = {"A": ctx.models["A"], "B": ctx.models["B"], "G": ctx.theta_g}[source]
    return _impact(capability, source, layer, ctx, ref, -1.0)


def addition_impact(capability, source, layer, ctx):
    return _impact(capability, source, layer, ctx, ctx.base, +1.0)


def _baselines(ctx, full_matrix):
    (model_a, model_b), (task_a, task_b) = ctx.models.values(), ctx.tasks.values()
    jobs = [
        ("A:A", model_a, task_a),
        ("B:B", model_b, task_b),
        ("A:G", ctx.theta_g, task_a),
        ("B:G", ctx.theta_g, task_b),
        ("A:F", ctx.base, task_a),
        ("B:F", ctx.base, task_b),
    ]
    if full_matrix:
        jobs += [("A:B", model_b, task_a), ("B:A", model_a, task_b)]
    return {key: ctx.bridge.evaluate(cp, task).value for key, cp, task in jobs}


def conflict_profile(ctx, layers=None, *, full_matrix=False):
    if layers is None:
        layers = ctx.partition.transformer_layers()
    baselines = _baselines(ctx, full_matrix)
    pairs = (
        [(m1, m2) for m1 in CAPABILITIES for m2 in SOURCES] if full_matrix else list(CORE_PAIRS)
    )
    profile = ConflictProfile(baselines=baselines)
    for layer in layers:
        alpha, beta, c = {}, {}, {}
        for m1, m2 in pairs:
            key = m1 + m2
            alpha[key] = deletion_impact(m1, m2, layer, ctx)
            beta[key] = addition_impact(m1, m2, layer, ctx)
            c[key] = alpha[key] + beta[key]
        gamma_a = c["AA"] - c["AG"]
        gamma_b = c["BB"] - c["BG"]
        profile.rows.append(
            LayerConflictRow(layer, alpha, beta, c, gamma_a, gamma_b, gamma_a + gamma_b)
        )
    return profile
