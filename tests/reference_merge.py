"""Reference implementations of the merge arithmetic: one explicit float64
accumulate loop per operation, as each was written before they shared
``delta.combine``.  The differential tests in test_combine.py require the
library to match these byte for byte.  Compatibility checks are left out;
only the arithmetic is compared.
"""

import numpy as np

from himerge.checkpoint import checkpoint_from_f32


def apply_delta(base, deltas):
    arrays = {}
    for name in base.names:
        acc = base.as_f32(name).astype(np.float64)
        for dv in deltas:
            acc += dv.deltas[name].astype(np.float64)
        arrays[name] = acc.astype(np.float32)
    return checkpoint_from_f32(arrays, like=base, metadata={})


def delta_weighted_merge(base, deltas, weights):
    arrays = {}
    for name in base.names:
        acc = base.as_f32(name).astype(np.float64)
        for dv, weight in zip(deltas, weights):
            acc += float(weight) * dv.deltas[name].astype(np.float64)
        arrays[name] = acc.astype(np.float32)
    return checkpoint_from_f32(arrays, like=base, metadata={})


def assemble_final(base, delta_a, delta_b):
    return delta_weighted_merge(base, [delta_a, delta_b], [1.0, 1.0])


def shifted_checkpoint(ref, arrays_list, sign):
    touched = set()
    for arrays in arrays_list:
        for name, arr in arrays.items():
            if arr.any():
                touched.add(name)
    if not touched:
        return ref
    out = {}
    for name in sorted(touched):
        acc = ref.as_f32(name).astype(np.float64)
        for arrays in arrays_list:
            if name in arrays:
                acc += sign * arrays[name].astype(np.float64)
        out[name] = acc.astype(np.float32)
    return checkpoint_from_f32(out, like=ref, metadata={})


def weighted_average_merge(models, weights):
    ids = list(models)
    first = models[ids[0]]
    arrays = {}
    for name in first.names:
        acc = np.zeros(first.record(name).shape, dtype=np.float64)
        for model_id, weight in zip(ids, weights):
            acc += float(weight) * models[model_id].as_f32(name).astype(np.float64)
        arrays[name] = acc.astype(np.float32)
    return checkpoint_from_f32(arrays, like=first, metadata={})
