"""Golden digests: every CLI command, run in-process on small seeded bf16
models, must write the same bytes as when ``golden.json`` was made.

The other tests compare against slow references or run the same thing twice
in one process; neither notices when outputs drift between versions.  This
suite pins the sha256 of every file a run writes under ``--out`` and of its
stderr, at ``--parallel`` 1 and 2, the evaluation cache included: a run
rewrites it in key order when it ends, so the order in which threads finish
does not show.  Scores come from the builtin evaluators.

A change that alters an output on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` from the repository root,
and names each changed digest and the reason in ``CHANGES.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import re
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from himerge import save_checkpoint
from himerge.cli import main
from himerge.evaluation import SyntheticCompositeTask, hidden_optimum

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


def command(name: str, parallel: int, out: str) -> list[str]:
    """The argv of one command on the inputs in the working directory,
    relative paths only so that no absolute path reaches an output."""
    argv = [*RUNS[name], "--base", "base.safetensors", "--model-a", "model_a.safetensors",
            "--model-b", "model_b.safetensors", "--eval-a", _spec("A"), "--eval-b", _spec("B"),
            "--parallel", str(parallel), "--out", out]
    if name in ("sweep", "delta"):
        drop = argv.index("--model-b")
        del argv[drop : drop + 2]
    if name == "delta":
        drop = argv.index("--eval-a")
        del argv[drop : drop + 4]
    return argv


def main_stderr(argv: list[str]) -> str:
    """What ``main(argv)`` writes on stderr; the run must succeed."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code == 0, stderr.getvalue()
    return stderr.getvalue()


def run(name: str, parallel: int, out: str) -> dict[str, str]:
    """Run one command and return the sha256 of stderr and of every file it
    wrote under ``out``."""
    digests = {"<stderr>": _sha(main_stderr(command(name, parallel, out)).encode("utf-8"))}
    for path in sorted(Path(out).rglob("*")):
        if path.is_file():
            digests[path.relative_to(out).as_posix()] = _sha(path.read_bytes())
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
    return inputs


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("name", list(RUNS))
def test_outputs_match_the_golden_digests(in_inputs, name, parallel):
    golden = json.loads(GOLDEN.read_text())[name]
    assert run(name, parallel, f"{name}-{parallel}") == golden


def test_a_sweep_cache_is_byte_identical_at_any_parallel(in_inputs, monkeypatch):
    """Four threads, switched every microsecond, with every other score
    held back 10 ms, finish their cells out of order, and every p = 0 cell
    is the base, one candidate that several threads ask for at once.  The
    cache and the counts come out as at ``--parallel 1``, and each distinct
    candidate is evaluated once."""
    calls = itertools.count()
    score = SyntheticCompositeTask.score

    def held_back(task, cp):
        time.sleep(0.01 * (next(calls) % 2))
        return score(task, cp)

    monkeypatch.setattr(SyntheticCompositeTask, "score", held_back)
    grid = ["--p-values", "0,0.5"]
    serial = main_stderr([*command("sweep", 1, "serial"), *grid])
    expected = Path("serial", CACHE).read_bytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rerun in range(3):
            out = f"parallel-{rerun}"
            assert main_stderr([*command("sweep", 4, out), *grid]) == serial
            assert Path(out, CACHE).read_bytes() == expected
    finally:
        sys.setswitchinterval(interval)
    counts = re.fullmatch(
        r"evaluator invocations: (\d+) \(cache hits: (\d+), distinct checkpoints: (\d+)\)\n", serial
    )
    invocations, hits, distinct = map(int, counts.groups())
    assert invocations == distinct == 11 and hits == 9  # 10 cells at p = 0.5, and the base


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
