"""Whole-model passes hold one tensor's temporaries at a time.

Each bound is the memory a pass must keep (its output, a file buffer, a
header) plus a few tensors of temporaries, plus SLACK for the Python
objects around them (records, views, dicts, file buffers).  The model has
16 tensors, so a pass that materializes the whole model once more, as a
joined copy or a dict of float32 arrays, overshoots its bound several
times over.
"""

import math

import numpy as np
import pytest

from himerge import DeltaVector, load_checkpoint, save_checkpoint, save_delta
from himerge.delta import combine
from himerge.checkpoint import decode_f32

from conftest import checkpoint_from_arrays, traced_peak

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
    delta = DeltaVector("fp", float32_arrays(2))
    path = tmp_path / "delta.safetensors"
    with traced_peak() as peak:
        save_delta(delta, path)
    header = path.stat().st_size - N_TENSORS * F32_TENSOR
    assert 0 < header < SLACK
    assert peak[0] <= header + F32_TENSOR + SLACK


@pytest.mark.parametrize("dtype", ["bf16", "f32"])
def test_load_checkpoint_reads_into_one_buffer(tmp_path, dtype):
    cp = checkpoint_from_arrays(float32_arrays(3), dtype=dtype)
    path = tmp_path / "model.safetensors"
    save_checkpoint(cp, path)
    with traced_peak() as peak:
        loaded = load_checkpoint(path)
    one_tensor = max(len(rec.data) for rec in cp)
    assert peak[0] <= path.stat().st_size + one_tensor + SLACK
    for rec in loaded:
        assert isinstance(rec.data, memoryview) and rec.data.readonly
        assert rec.data == cp.record(rec.name).data


def test_bf16_decode_makes_one_array():
    cp = bf16_model(4)
    rec = cp.record(cp.names[0])
    with traced_peak() as peak:
        arr = decode_f32("bf16", rec.data)
    assert arr.flags.writeable and arr.nbytes == F32_TENSOR
    assert peak[0] <= F32_TENSOR + SLACK // 16
