"""Whole-model passes hold one tensor's temporaries at a time.

Each bound is the memory a pass must keep (its output, or a header) plus a
few tensors of temporaries, plus SLACK for the Python objects around them
(records, views, dicts, read buffers).  The model has 16 tensors, so a pass
that materializes the whole model once more, as a joined copy or a dict of
float32 arrays, overshoots its bound several times over.
"""

import math
import tracemalloc

import numpy as np
import pytest

from himerge import (
    ConstantTask,
    DeltaVector,
    EvalTask,
    EvaluationBridge,
    HiMergeConfig,
    PruneScaleParams,
    hi_merge,
    load_checkpoint,
    save_checkpoint,
    save_delta,
)
from himerge.delta import combine
from himerge.checkpoint import decode_f32
from himerge.cli import main
from himerge.resolver import prepare

from conftest import checkpoint_from_arrays, traced_peak
from instances import delta_from_arrays

N_TENSORS = 16
SHAPE = (256, 256)
F32_TENSOR = 4 * math.prod(SHAPE)
SLACK = 64 * 1024


def names():
    return [f"model.layers.{i}.mlp.w" for i in range(N_TENSORS)]


def float32_arrays(seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return {name: (rng.standard_normal(SHAPE) * scale).astype(np.float32) for name in names()}


def bf16_model(seed):
    return checkpoint_from_arrays(float32_arrays(seed), dtype="bf16")


@pytest.mark.parametrize(
    "n_terms, f32_temporaries",
    [
        (1, 2),  # the float32 sum and its bf16 rounding temporary
        (2, 3),  # the float64 sum and its rounding to float32
    ],
)
def test_combine_encodes_each_tensor_as_soon_as_it_is_summed(n_terms, f32_temporaries):
    ref = bf16_model(0)
    terms = [float32_arrays(1 + i, scale=0.01).get for i in range(n_terms)]
    with traced_peak() as peak:
        out = combine(ref, terms)
    out_bytes = sum(len(rec.data) for rec in out)
    assert out_bytes == N_TENSORS * F32_TENSOR // 2
    assert peak[0] <= out_bytes + f32_temporaries * F32_TENSOR + SLACK


def test_save_delta_writes_views_of_the_float32_arrays(tmp_path):
    delta = delta_from_arrays(float32_arrays(2))
    path = tmp_path / "delta.safetensors"
    with traced_peak() as peak:
        save_delta(delta, path)
    header = path.stat().st_size - N_TENSORS * F32_TENSOR
    assert 0 < header < SLACK
    assert peak[0] <= header + F32_TENSOR + SLACK


def test_save_delta_streams_a_delta_held_in_its_file(tmp_path):
    """A delta whose tensors are records of a delta file is written one
    tensor at a time, each read from that file: it is never materialized."""
    source = tmp_path / "held.safetensors"
    save_delta(delta_from_arrays(float32_arrays(2)), source)
    held = DeltaVector("fp", load_checkpoint(source))
    path = tmp_path / "delta.safetensors"
    with traced_peak() as peak:
        save_delta(held, path)
    assert path.read_bytes() == source.read_bytes()
    header = path.stat().st_size - N_TENSORS * F32_TENSOR
    assert peak[0] <= header + F32_TENSOR + SLACK


@pytest.mark.parametrize("dtype", ["bf16", "f32"])
def test_load_checkpoint_reads_only_the_header(tmp_path, dtype):
    cp = checkpoint_from_arrays(float32_arrays(3), dtype=dtype)
    path = tmp_path / "model.safetensors"
    save_checkpoint(cp, path)
    header = path.stat().st_size - sum(len(rec.data) for rec in cp)
    with traced_peak() as peak:
        loaded = load_checkpoint(path)
    assert peak[0] <= header + SLACK
    for rec in loaded:
        assert bytes(rec.data) == bytes(cp.record(rec.name).data)


def _three_models(tmp_path, dtype="f32"):
    """Paths of a base and two models near it, all in ``dtype``."""
    paths = []
    for seed, scale in ((5, 1.0), (6, 0.01), (7, 0.01)):
        arrays = float32_arrays(seed, scale)
        if paths:
            base = float32_arrays(5)
            arrays = {name: base[name] + arr for name, arr in arrays.items()}
        paths.append(tmp_path / f"{seed}.safetensors")
        save_checkpoint(checkpoint_from_arrays(arrays, dtype), paths[-1])
    return paths


def _config(out_dir=None) -> HiMergeConfig:
    task_a, task_b = (EvalTask(t, ConstantTask(0.5)) for t in "AB")
    params = PruneScaleParams(0.5, 0.5)
    return HiMergeConfig({"A": params, "B": params}, {"A": task_a, "B": task_b}, out_dir=out_dir)


def _traced_hi_merge(paths, out_dir=None):
    """The traced peak of loading the models and merging them."""
    config = _config(out_dir)
    with traced_peak() as peak:
        result = hi_merge(*(load_checkpoint(path) for path in paths), config)
    assert len(result.merged) == N_TENSORS
    return peak[0]


def test_hi_merge_holds_no_copy_of_its_inputs(tmp_path):
    """Loading three f32 models and merging them in memory peaks within
    four float32 models' worth of the run's own data (one processed delta
    while the other's raw delta, Top_p's magnitude buffer and its kept
    arrays are alive; later theta_G, the merged model and the two deltas)
    plus a few tensors.  Holding the three inputs too would add three
    models."""
    model = N_TENSORS * F32_TENSOR
    assert _traced_hi_merge(_three_models(tmp_path)) <= 4 * model + 4 * F32_TENSOR + SLACK


def test_hi_merge_with_an_output_directory_keeps_the_deltas_in_their_files(tmp_path):
    """With ``out_dir`` each processed delta is saved and dropped before the
    next model's delta is computed, and read back from its file on use.
    The peak is then one model's raw delta and Top_p's magnitude buffer (or
    its kept arrays) plus a few tensors; theta_G is in its file too, and
    the merged model shares its records and holds only the tensors that
    resolution changed."""
    model = N_TENSORS * F32_TENSOR
    peak = _traced_hi_merge(_three_models(tmp_path), out_dir=tmp_path / "out")
    assert peak <= 2 * model + 4 * F32_TENSOR + SLACK


def test_prepare_with_an_output_directory_holds_under_a_byte_per_parameter(tmp_path):
    """With ``out_dir`` the processed deltas and theta_G are in their files
    once ``prepare`` returns: the context holds headers and records, not
    tensors.  theta_G held in memory would be 2 bytes per parameter of
    these bf16 models."""
    paths = _three_models(tmp_path, "bf16")
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ctx = prepare(*(load_checkpoint(path) for path in paths), _config(tmp_path / "out"),
                      EvaluationBridge())
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert len(ctx.theta_g) == N_TENSORS
    assert held < N_TENSORS * math.prod(SHAPE)


def test_an_f32_tensor_is_read_into_its_array_with_no_other_copy(tmp_path):
    path = tmp_path / "model.safetensors"
    save_checkpoint(checkpoint_from_arrays(float32_arrays(8)), path)
    cp = load_checkpoint(path)
    name = cp.names[0]
    with traced_peak() as peak:
        arr = cp.as_f32(name)
    assert arr.flags.writeable and arr.dtype == np.float32 and arr.shape == SHAPE
    assert arr.tobytes() == float32_arrays(8)[name].tobytes()
    assert peak[0] <= F32_TENSOR + SLACK // 16


def test_bf16_decode_makes_one_array():
    cp = bf16_model(4)
    rec = cp.record(cp.names[0])
    with traced_peak() as peak:
        arr = decode_f32("bf16", rec.data)
    assert arr.flags.writeable and arr.nbytes == F32_TENSOR
    assert peak[0] <= F32_TENSOR + SLACK // 16


def test_a_sweep_cell_scales_top_p_one_tensor_at_a_time(tmp_path):
    """A sweep holds one Top_p and the widened base, and builds each cell's
    candidate with the scaling inside its sum: the peak is those two and
    the candidate, three float32 models, plus a few tensors.  A whole
    scaled delta per cell would add a fourth model."""
    base, model, _ = _three_models(tmp_path)
    argv = ["sweep", "--base", str(base), "--model-a", str(model),
            "--eval-a", '{"builtin": "constant"}', "--p-values", "0.5", "--s-values", "0.5",
            "--out", str(tmp_path / "out")]
    with traced_peak() as peak:
        assert main(argv) == 0
    assert peak[0] <= 3 * N_TENSORS * F32_TENSOR + 4 * F32_TENSOR + SLACK


@pytest.mark.parametrize("dtype", ["f32", "bf16"])
def test_a_sweep_drops_each_p_values_top_p_and_widened_base(tmp_path, dtype):
    """Each p value computes its raw delta, prunes it and drops it, then
    widens the base once; its Top_p and widened base are dropped before the
    next p's delta is computed.  The peak is then a p's Top_p, its widened
    base and a candidate in the base's dtype (or, lower, the raw delta and
    Top_p's key buffer or kept arrays) plus a few tensors.  With bf16
    inputs, keeping either of a p's Top_p or widened base into the next
    p's prune overshoots this by half a model."""
    base, model, _ = _three_models(tmp_path, dtype)
    argv = ["sweep", "--base", str(base), "--model-a", str(model),
            "--eval-a", '{"builtin": "constant"}', "--p-values", "0.1,0.5,1.0",
            "--s-values", "0.5,1.0", "--out", str(tmp_path / "out")]
    with traced_peak() as peak:
        assert main(argv) == 0
    wide = N_TENSORS * F32_TENSOR  # one float32 model
    candidate = wide // 2 if dtype == "bf16" else wide
    assert peak[0] <= 2 * wide + candidate + 4 * F32_TENSOR + SLACK
