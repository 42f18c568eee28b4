"""Deterministic synthetic instances for analysis and resolver tests.

All constructions use the builtin sign-agreement evaluators.  The hidden
optima are reconstructible from the task seeds, which lets the builders
place capability (and interference) exactly where a test needs it.
"""

import numpy as np

from himerge import (
    DeltaVector,
    EvalTask,
    EvaluationBridge,
    HiMergeConfig,
    PruneScaleParams,
    SyntheticCompositeTask,
    SyntheticLinearTask,
    hidden_optimum,
)
from himerge.delta import _f32_record
from himerge.resolver import prepare

from conftest import checkpoint_from_arrays

N_LAYERS = 8


def layer_name(l: int) -> str:
    return f"model.layers.{l}.w"


def _noise_base(rng, dim: int):
    return {layer_name(l): rng.standard_normal(dim).astype(np.float32) for l in range(N_LAYERS)}


def delta_from_arrays(arrays, base_fingerprint="fp", provenance="") -> DeltaVector:
    """A DeltaVector holding ``arrays`` (name -> float32 values) in memory."""
    records = [_f32_record(name, arr) for name, arr in arrays.items()]
    return DeltaVector(base_fingerprint, records, provenance)


def make_context(
    base,
    model_a,
    model_b,
    task_a,
    task_b,
    params_a=PruneScaleParams(1.0, 1.0),
    params_b=PruneScaleParams(1.0, 1.0),
    bridge=None,
):
    """Assemble an AnalysisContext the way the pipeline does."""
    config = HiMergeConfig({"A": params_a, "B": params_b}, {"A": task_a, "B": task_b})
    bridge = bridge if bridge is not None else EvaluationBridge()
    return prepare(base, model_a, model_b, config, bridge)


def single_signal_instance(seed=0, dim=128, amp=3.0, n_eval=2000):
    """Model A whose whole task-A signal lives in layer 0; model B is noise.

    Returns (base, model_a, model_b, task_a, task_b).
    """
    rng = np.random.default_rng(seed)
    base_arrays = _noise_base(rng, dim)
    base = checkpoint_from_arrays(base_arrays)

    seed_a, seed_b = 1000 + seed, 2000 + seed
    task_a = EvalTask("A", SyntheticLinearTask(seed_a, dim, n_eval, layer_name(0)))
    task_b = EvalTask("B", SyntheticLinearTask(seed_b, dim, n_eval, layer_name(1)))

    a_arrays = dict(base_arrays)
    a_arrays[layer_name(0)] = (
        base_arrays[layer_name(0)] + amp * hidden_optimum(seed_a, dim)
    ).astype(np.float32)
    b_arrays = dict(base_arrays)
    b_arrays[layer_name(1)] = (
        base_arrays[layer_name(1)] + amp * hidden_optimum(seed_b, dim)
    ).astype(np.float32)
    return base, checkpoint_from_arrays(a_arrays), checkpoint_from_arrays(b_arrays), task_a, task_b


def conflict_instance(seed=0, dim=192, k=3, amp=3.0, n_eval=3000):
    """Destructive interference at layer k.

    Task A is a linear task on layer k's tensor; task B is a composite task
    over all layers whose layer-k optimum is shared with task A.  Model A
    adds amp * w_A at layer k; model B adds its own signal on every other
    layer but **subtracts** amp * w_A at layer k, so the two deltas carry
    large opposite-sign entries on shared coordinates and annihilate in the
    merged model, erasing task A's capability there.

    Returns (base, model_a, model_b, task_a, task_b, k).
    """
    stream = 1000 * seed
    rng = np.random.default_rng(stream + 3)
    base_arrays = _noise_base(rng, dim)
    base = checkpoint_from_arrays(base_arrays)

    seed_a = stream + 1
    layer_seeds = {l: (seed_a if l == k else stream + 10 + l) for l in range(N_LAYERS)}
    task_a = EvalTask("A", SyntheticLinearTask(seed_a, dim, n_eval, layer_name(k)))
    task_b = EvalTask(
        "B",
        SyntheticCompositeTask(
            probe_seed=stream + 2,
            n_eval=n_eval,
            targets=tuple((layer_name(l), layer_seeds[l]) for l in range(N_LAYERS)),
        ),
    )

    w_a = hidden_optimum(seed_a, dim)
    a_arrays = dict(base_arrays)
    a_arrays[layer_name(k)] = (base_arrays[layer_name(k)] + amp * w_a).astype(np.float32)

    b_arrays = dict(base_arrays)
    for l in range(N_LAYERS):
        if l == k:
            shift = -amp * w_a
        else:
            shift = amp * hidden_optimum(layer_seeds[l], dim)
        b_arrays[layer_name(l)] = (base_arrays[layer_name(l)] + shift).astype(np.float32)

    model_a = checkpoint_from_arrays(a_arrays)
    model_b = checkpoint_from_arrays(b_arrays)
    return base, model_a, model_b, task_a, task_b, k


def specialists_instance(seed=0, dim=128, amp=4.0, n_eval=3000):
    """Two specialists with signal on disjoint coordinates (different layers).

    Returns (base, model_a, model_b, task_a, task_b).
    """
    stream = 3000 + 1000 * seed
    rng = np.random.default_rng(stream)
    base_arrays = _noise_base(rng, dim)
    base = checkpoint_from_arrays(base_arrays)

    la, lb = 2, 5
    seed_a, seed_b = stream + 1, stream + 2
    task_a = EvalTask("A", SyntheticLinearTask(seed_a, dim, n_eval, layer_name(la)))
    task_b = EvalTask("B", SyntheticLinearTask(seed_b, dim, n_eval, layer_name(lb)))

    a_arrays = dict(base_arrays)
    a_arrays[layer_name(la)] = (
        base_arrays[layer_name(la)] + amp * hidden_optimum(seed_a, dim)
    ).astype(np.float32)
    b_arrays = dict(base_arrays)
    b_arrays[layer_name(lb)] = (
        base_arrays[layer_name(lb)] + amp * hidden_optimum(seed_b, dim)
    ).astype(np.float32)
    return base, checkpoint_from_arrays(a_arrays), checkpoint_from_arrays(b_arrays), task_a, task_b
