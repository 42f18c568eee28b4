"""Seeded input generator: a base checkpoint and two fine-tuned models.

Every layer holds four ``d x d`` matrices and one 1-D ``probe`` tensor of
length ``probe_dim``; two more ``d x d`` matrices sit outside the layer
stack (one sorts before it, one after).  All tensors are bf16.

The matrices carry small fine-tuning noise, which the evaluators ignore but
Top_p pruning, serialization and hashing must handle.  The probes carry the
signal the evaluators score: task A's hidden optimum on layer ``l`` is
``a_l``, task B's is ``b_l``.  Each layer gets one of four roles:

* ``A`` / ``B``: only that model moves the probe, towards its own optimum;
* ``severe``: A adds ``a_l`` and B adds ``b_l`` on the same coordinates, so
  the merge dilutes both (both conflicts positive: the resolver drops one);
* ``partial``: A adds ``2 a_l`` and B adds ``b_l / 2 - 2 a_l``, so B
  cancels A's signal but gains from the merge (opposite signs, with A's
  loss the larger: the resolver re-prunes B).

Every plan has at least two layers of each conflict role, so the
resolution takes both DROP and REPRUNE actions; the output check fails a
run whose log lacks either.  Single-owner layers still show small
conflicts of either sign, so the resolver acts on some of them too; which
ones depends on the seed.

The same seed gives byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import stio

MATRICES = ("attn.k_proj", "attn.q_proj", "mlp.down_proj", "mlp.up_proj")
AMP = 2.0
NOISE = 0.002
PROBE_BASE = 0.1


@dataclass(frozen=True)
class Shape:
    layers: int
    dim: int
    probe_dim: int = 64
    n_eval: int = 2000

    @property
    def num_params(self) -> int:
        return (self.layers * len(MATRICES) + 2) * self.dim**2 + self.layers * self.probe_dim


def probe_name(layer: int) -> str:
    return f"model.layers.{layer}.probe"


def hidden_optimum(seed: int, dim: int) -> np.ndarray:
    """The optimum himerge's builtin evaluators derive from a task seed."""
    return np.random.default_rng(seed).standard_normal(dim)


@dataclass(frozen=True)
class Plan:
    """Everything the seed decides: task seeds and the role of each layer."""

    shape: Shape
    seed: int
    probe_seed: dict[str, int]
    layer_seed: dict[str, tuple[int, ...]]
    roles: tuple[str, ...]

    def builtin_spec(self, task: str) -> dict:
        """A ``synthetic_composite`` spec over every layer's probe."""
        return {
            "builtin": "synthetic_composite",
            "probe_seed": self.probe_seed[task],
            "n_eval": self.shape.n_eval,
            "targets": [[probe_name(l), s] for l, s in enumerate(self.layer_seed[task])],
        }


def make_plan(shape: Shape, seed: int) -> Plan:
    rng = np.random.default_rng([seed, 1])
    seeds = [int(s) for s in rng.integers(1, 2**31, size=2 + 2 * shape.layers)]
    n_conflict = max(2, shape.layers // 8)
    roles = ["A" if l % 2 == 0 else "B" for l in range(shape.layers)]
    picked = rng.choice(shape.layers, size=2 * n_conflict, replace=False)
    for i, l in enumerate(sorted(int(x) for x in picked)):
        roles[l] = "severe" if i % 2 == 0 else "partial"
    return Plan(
        shape=shape,
        seed=seed,
        probe_seed={"A": seeds[0], "B": seeds[1]},
        layer_seed={
            "A": tuple(seeds[2 : 2 + shape.layers]),
            "B": tuple(seeds[2 + shape.layers :]),
        },
        roles=tuple(roles),
    )


def _probe_shifts(plan: Plan, layer: int) -> tuple[np.ndarray, np.ndarray]:
    dim = plan.shape.probe_dim
    a = AMP * hidden_optimum(plan.layer_seed["A"][layer], dim)
    b = AMP * hidden_optimum(plan.layer_seed["B"][layer], dim)
    zero = np.zeros(dim)
    return {
        "A": (a, zero),
        "B": (zero, b),
        "severe": (a, b),
        "partial": (2 * a, 0.5 * b - 2 * a),
    }[plan.roles[layer]]


def write_inputs(plan: Plan, out_dir: Path) -> dict[str, str]:
    """Write base/model_a/model_b safetensors under ``out_dir``; return their paths.

    Tensors are made and written one at a time, in file order, so memory
    stays at one tensor per model whatever the shape.
    """
    shape = plan.shape
    rng = np.random.default_rng([plan.seed, 2])
    shapes = {
        name: (shape.dim, shape.dim)
        for name in ["model.embed_tokens.weight", "model.lm_head.weight"]
        + [f"model.layers.{l}.{m}.weight" for l in range(shape.layers) for m in MATRICES]
    }
    probes = {probe_name(l): l for l in range(shape.layers)}
    shapes.update((name, (shape.probe_dim,)) for name in probes)
    paths = input_paths(out_dir)
    with contextlib.ExitStack() as stack:
        writers = [stack.enter_context(stio.BF16Writer(paths[key], shapes)) for key in paths]
        for name in sorted(shapes):
            if name in probes:
                w = rng.standard_normal(shape.probe_dim) * PROBE_BASE
                shift_a, shift_b = _probe_shifts(plan, probes[name])
                tensors = (w, w + shift_a, w + shift_b)
            else:
                w = rng.standard_normal(shapes[name], dtype=np.float32) * np.float32(0.02)
                tensors = (w,) + tuple(
                    w + rng.standard_normal(w.shape, dtype=np.float32) * np.float32(NOISE)
                    for _ in range(2)
                )
            for writer, tensor in zip(writers, tensors):
                writer.write(name, tensor.astype(np.float32, copy=False))
    return paths


def input_paths(out_dir: Path) -> dict[str, str]:
    return {key: str(out_dir / f"{key}.safetensors") for key in ("base", "model_a", "model_b")}


def main(argv) -> int:
    """Usage: python3 gen.py SEED LAYERS DIM OUT_DIR

    Writes the inputs and prints ``{"seconds": t}``, the time generating and
    writing them took.
    """
    seed, layers, dim, out_dir = int(argv[0]), int(argv[1]), int(argv[2]), Path(argv[3])
    plan = make_plan(Shape(layers, dim), seed)
    start = time.perf_counter()
    write_inputs(plan, out_dir)
    print(json.dumps({"seconds": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
