"""Slow references for the builtin sign-agreement evaluators: the whole
probe product, taken again on each call, as the library scored before it
summed memoized per-target blocks.  The differential tests in
test_evaluation.py require the library's scores to equal them exactly.
"""

import numpy as np

from himerge.evaluation import hidden_optimum


def composite_score(task, cp) -> float:
    """sign(probes @ w) against sign(probes @ w_star), w the concatenated
    targets of ``cp`` widened to float64."""
    w = np.concatenate(
        [cp.as_f32(name).reshape(-1).astype(np.float64) for name, _ in task.targets]
    )
    w_star = np.concatenate(
        [hidden_optimum(seed, cp.record(name).size) for name, seed in task.targets]
    )
    probes = np.random.default_rng(task.probe_seed).standard_normal((task.n_eval, w.size))
    return float(np.mean(np.sign(probes @ w) == np.sign(probes @ w_star)))


def linear_score(task, cp) -> float:
    """sign(probes @ w) against sign(probes @ w_star), w the target of
    ``cp`` widened to float64; w_star is the first draw of the task's
    stream and the probes the second."""
    rng = np.random.default_rng(task.seed)
    w_star = rng.standard_normal(task.dim)
    probes = rng.standard_normal((task.n_eval, task.dim))
    w = cp.as_f32(task.target).astype(np.float64)
    return float(np.mean(np.sign(probes @ w) == np.sign(probes @ w_star)))
