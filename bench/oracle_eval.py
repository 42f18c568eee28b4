"""External evaluator for the hi-oracle workload; stands in for model inference.

Usage: python3 oracle_eval.py SPEC_JSON CHECKPOINT

SPEC_JSON holds ``probe_seed``, ``n_eval``, ``targets`` (a list of
``[tensor name, optimum seed]``) and ``sleep_s``.  The score is the
sign-agreement accuracy of the concatenated target tensors against the
seeded hidden optimum over seeded probes, the same quantity as himerge's
builtin ``synthetic_composite`` evaluator.  The script reads the candidate
with numpy only, sleeps ``sleep_s`` seconds, and prints ``{"score": x}``.
"""

import json
import sys
import time

import numpy as np

import stio


def composite_score(spec: dict, tensors: dict[str, np.ndarray]) -> float:
    """Score float32 target tensors given by name."""
    w = np.concatenate([tensors[n].reshape(-1).astype(np.float64) for n, _ in spec["targets"]])
    w_star = np.concatenate(
        [np.random.default_rng(seed).standard_normal(tensors[n].size) for n, seed in spec["targets"]]
    )
    probes = np.random.default_rng(spec["probe_seed"]).standard_normal((spec["n_eval"], w.size))
    return float(np.mean(np.sign(probes @ w) == np.sign(probes @ w_star)))


def score(spec: dict, path: str) -> float:
    names = [name for name, _ in spec["targets"]]
    header, raw = stio.read_file(path, names)
    return composite_score(spec, {n: stio.as_f32(header, raw, n) for n in names})


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as fh:
        spec = json.load(fh)
    value = score(spec, argv[1])
    time.sleep(spec["sleep_s"])
    print(json.dumps({"score": value}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
