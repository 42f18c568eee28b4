import contextlib
import os
import sys
import tempfile
import textwrap
import tracemalloc

import numpy as np
import pytest

from himerge import Checkpoint, TensorRecord, load_checkpoint

import reference_checkpoint


def record_from_array(name, arr, dtype="f32"):
    """A record of ``arr`` in ``dtype``, with no range check, so a test can
    build an input that holds a NaN or inf."""
    arr = np.asarray(arr, dtype=np.float32)
    return TensorRecord(name, dtype, arr.shape, reference_checkpoint.encode(dtype, arr))


def checkpoint_from_arrays(arrays, dtype="f32", metadata=None):
    """Checkpoint from {name: arraylike}, all tensors in one dtype."""
    records = [record_from_array(name, arr, dtype) for name, arr in arrays.items()]
    return Checkpoint(records, metadata)


def load_bytes(tmp_path, blob):
    """``load_checkpoint`` of container bytes, written to a fresh file under
    ``tmp_path`` (the file stays in place while the checkpoint is used)."""
    fd, path = tempfile.mkstemp(suffix=".safetensors", dir=tmp_path)
    with os.fdopen(fd, "wb") as fh:
        fh.write(blob)
    return load_checkpoint(path)


def backdate(path):
    """Move a file's mtime a second into the past, where an input's lies, so
    that a rewrite in place always changes it, even within the filesystem's
    timestamp tick."""
    mtime = os.stat(path).st_mtime_ns - 10**9
    os.utime(path, ns=(mtime, mtime))


def truncate_by_one(path):
    os.truncate(path, os.stat(path).st_size - 1)


def rewrite_in_place(path):
    """Write a file's own bytes over it again: the same size, a new mtime."""
    path.write_bytes(path.read_bytes())


def dyadic_random(rng, shape, scale=1024, span=4096):
    """Random floats on a dyadic grid (multiples of 1/scale), exact in f32.

    Sums and differences of grid values stay on the grid and well inside
    f32's 24-bit significand, so delta round trips are bit-exact.
    """
    ints = rng.integers(-span, span + 1, size=shape)
    return (ints / scale).astype(np.float32)


def random_checkpoint(rng, n_tensors=4, max_elems=32, dtype="f32", dyadic=True):
    arrays = {}
    for i in range(n_tensors):
        rank = int(rng.integers(0, 3))
        shape = tuple(int(rng.integers(1, max(2, int(max_elems ** (1 / max(rank, 1)))))) for _ in range(rank))
        if dyadic:
            arr = dyadic_random(rng, shape)
        else:
            arr = rng.standard_normal(shape).astype(np.float32)
        arrays[f"model.layers.{i}.w{i}"] = arr
    return checkpoint_from_arrays(arrays, dtype=dtype)


@pytest.fixture(autouse=True)
def no_cache_dir_variable(monkeypatch):
    """``HIMERGE_CACHE_DIR`` is a usage error for every evaluating verb, so
    a value set in the shell that runs the tests is cleared for each test."""
    monkeypatch.delenv("HIMERGE_CACHE_DIR", raising=False)


@pytest.fixture
def script_evaluator(tmp_path):
    """Factory for external evaluator scripts run via the current python."""

    def make(body, name="eval.py"):
        path = tmp_path / name
        path.write_text(textwrap.dedent(body))
        return f"{sys.executable} {path} {{checkpoint}}"

    return make


@contextlib.contextmanager
def traced_peak():
    """Measure the peak of the memory allocated inside the block, numpy
    array data included, above what was allocated when it began.  Yields a
    one-element list that holds the peak in bytes once the block ends."""
    peak = [0]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        yield peak
        peak[0] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
