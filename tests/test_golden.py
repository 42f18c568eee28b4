"""Golden digests: every CLI command, run in-process on small seeded bf16
models, must write the same bytes as when ``golden.json`` was made.

The other tests compare against slow references or run the same thing twice
in one process; neither notices when outputs drift between versions.  This
suite pins the sha256 of every file a run writes under ``--out`` and of its
stderr, at ``--parallel`` 1 and 2.  The evaluation cache is pinned at
``--parallel 1`` only: under ``--parallel 2`` its lines are written in
completion order.  Scores come from the builtin evaluators.

A change that alters an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root,
and names each changed digest and the reason in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

from himerge import save_checkpoint
from himerge.cli import main
from himerge.evaluation import hidden_optimum

from conftest import checkpoint_from_arrays, dyadic_random

GOLDEN = Path(__file__).with_name("golden.json")
CACHE = "cache/eval_cache.jsonl"
LAYERS = 6
DIM = 32
MATRICES = ("attn.k_proj", "attn.q_proj", "mlp.down_proj", "mlp.up_proj")
TARGET = "mlp.up_proj"  # the matrix each task's signal lives in
# Each layer's role: only A or only B moves the target; "severe", both add
# their own optimum (the resolver drops one); "partial", B cancels A and
# gains from the merge (the resolver re-prunes B).
ROLES = ("A", "severe", "B", "partial", "A", "B")
SEEDS = {"A": (11, 12, 13, 14, 15, 16), "B": (21, 22, 23, 24, 25, 26)}
PROBE_SEED = {"A": 1, "B": 2}
N_EVAL = 200

HI = ["merge", "--method", "hi", "--p-a", "0.5", "--p-b", "0.5"]
RUNS = {
    "hi": HI,
    "hi-recompute": [*HI, "--recompute", "--max-passes", "2"],
    "hi-passes": [*HI, "--max-passes", "4", "--max-halvings", "1"],
    "hi-everything": [*HI, "--recompute", "--max-passes", "3", "--max-halvings", "2",
                      "--single-halving", "--include-pre-post", "--full-matrix"],
    "analyze": ["analyze", "--p-a", "0.5", "--s-a", "0.8", "--p-b", "0.6", "--s-b", "0.7",
                "--full-matrix"],
    "sweep": ["sweep"],
    "arithmetic": ["merge", "--method", "arithmetic", "--omega-a", "0.75"],
    "soups": ["merge", "--method", "soups"],
    "delta": ["delta"],
}


def target_name(layer: int) -> str:
    return f"model.layers.{layer}.{TARGET}"


def _optimum(task: str, layer: int) -> np.ndarray:
    """Task ``task``'s optimum on one layer's target, on a dyadic grid."""
    w = hidden_optimum(SEEDS[task][layer], DIM * DIM).reshape(DIM, DIM)
    return (np.round(w * 8) / 8).astype(np.float32)


def write_inputs(directory: Path) -> None:
    """base, model_a and model_b: six layers of four 32x32 bf16 matrices,
    between an embedding and a head, plus each model's small noise."""
    rng = np.random.default_rng(83)
    names = ["model.embed_tokens.weight", "model.lm_head.weight"] + [
        f"model.layers.{l}.{m}" for l in range(LAYERS) for m in MATRICES
    ]
    base = {name: dyadic_random(rng, (DIM, DIM), scale=64, span=16) for name in names}
    models = {}
    for task in ("A", "B"):
        models[task] = {
            name: w + dyadic_random(rng, (DIM, DIM), scale=1024, span=4) for name, w in base.items()
        }
    for layer, role in enumerate(ROLES):
        name = target_name(layer)
        a, b = 2 * _optimum("A", layer), 2 * _optimum("B", layer)
        shift_a, shift_b = {
            "A": (a, 0 * a),
            "B": (0 * b, b),
            "severe": (a, b),
            "partial": (2 * a, b / 2 - 2 * a),
        }[role]
        models["A"][name] = models["A"][name] + shift_a
        models["B"][name] = models["B"][name] + shift_b
    for file, arrays in (("base", base), ("model_a", models["A"]), ("model_b", models["B"])):
        save_checkpoint(checkpoint_from_arrays(arrays, dtype="bf16"), directory / f"{file}.safetensors")


def _spec(task: str) -> str:
    return json.dumps({
        "builtin": "synthetic_composite",
        "probe_seed": PROBE_SEED[task],
        "n_eval": N_EVAL,
        "targets": [[target_name(l), SEEDS[task][l]] for l in range(LAYERS)],
    })


def run(name: str, parallel: int, out: str) -> dict[str, str]:
    """Run one command on the inputs in the working directory, relative
    paths only so that no absolute path reaches an output, and return the
    sha256 of stderr and of every file it wrote under ``out``."""
    argv = [*RUNS[name], "--base", "base.safetensors", "--model-a", "model_a.safetensors",
            "--model-b", "model_b.safetensors", "--eval-a", _spec("A"), "--eval-b", _spec("B"),
            "--parallel", str(parallel), "--out", out]
    if name in ("sweep", "delta"):
        drop = argv.index("--model-b")
        del argv[drop : drop + 2]
    if name == "delta":
        drop = argv.index("--eval-a")
        del argv[drop : drop + 4]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, stderr.getvalue()
    digests = {"<stderr>": _sha(stderr.getvalue().encode("utf-8"))}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
    if parallel > 1:
        digests.pop(CACHE, None)
    return digests


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.fixture
def in_inputs(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    monkeypatch.delenv("HIMERGE_CACHE_DIR", raising=False)
    return inputs


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_golden_digests(in_inputs, name, parallel):
    golden = json.loads(GOLDEN.read_text())[name]
    expected = {path: digest for path, digest in golden.items() if parallel == 1 or path != CACHE}
    assert run(name, parallel, f"{name}-{parallel}") == expected


def test_a_single_hi_pass_drops_and_reprunes(in_inputs):
    """The inputs exercise both resolution actions, so the hi digests pin them."""
    run("hi", 1, "actions")
    log = (in_inputs / "actions" / "resolution_log.jsonl").read_text().splitlines()
    kinds = {json.loads(line)["kind"] for line in log}
    assert {"DROP", "REPRUNE"} <= kinds


def regenerate() -> None:
    """Write golden.json from the digests of the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            os.environ.pop("HIMERGE_CACHE_DIR", None)
            golden = {name: run(name, 1, name) for name in RUNS}
        finally:
            os.chdir(cwd)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
