"""The benchmark's traced run wraps library functions by name
(bench/trace_cli.py TARGETS); renaming or deleting one of them breaks it.
Run the tracer on tiny inputs and check the spans it records."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from himerge import save_checkpoint

from instances import single_signal_instance
from test_golden import write_inputs, _spec

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "bench" / "trace_cli.py"


@pytest.fixture
def inputs(tmp_path):
    base, ma, mb, ta, tb = single_signal_instance(dim=32, n_eval=100)
    paths = {}
    for name, cp in (("base", base), ("model_a", ma), ("model_b", mb)):
        paths[name] = str(tmp_path / f"{name}.safetensors")
        save_checkpoint(cp, paths[name])
    paths["eval"] = json.dumps({"builtin": "synthetic_linear", **asdict(ta.evaluator)})
    return paths


def traced_spans(tmp_path, args) -> list[dict]:
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HIMERGE_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *args, "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(spans.read_text())


def traced_span_names(tmp_path, args) -> set[str]:
    return {span["name"] for span in traced_spans(tmp_path, args)}


def test_hi_merge_spans(tmp_path, inputs):
    spans = traced_spans(tmp_path, [
        "merge", "--method", "hi", "--base", inputs["base"],
        "--model-a", inputs["model_a"], "--model-b", inputs["model_b"],
        "--eval-a", inputs["eval"], "--eval-b", inputs["eval"],
    ])
    names = {span["name"] for span in spans}
    assert {"hi_merge", "assemble_final", "conflict_profile", "iterate", "evaluate"} <= names

    # A builtin evaluator needs no file, so candidates are hashed, never
    # written: every write is a persisted output, and it streams, with no
    # joined blob.
    def under_evaluate(span):
        while span["parent"] is not None:
            span = spans[span["parent"]]
            if span["name"] == "evaluate":
                return True
        return False

    saved = [span for span in spans if span["name"] == "save_checkpoint"]
    assert not any(under_evaluate(span) for span in saved)
    assert len(saved) == len(list((tmp_path / "out").rglob("*.safetensors")))
    assert "checkpoint_to_bytes" not in names


def test_sweep_spans(tmp_path, inputs):
    names = traced_span_names(tmp_path, [
        "sweep", "--base", inputs["base"], "--model-a", inputs["model_a"],
        "--eval-a", inputs["eval"], "--p-values", "0.5,1.0", "--s-values", "1.0",
    ])
    assert {"cmd_sweep", "apply_delta"} <= names


def test_sweep_prunes_once_per_p_inside_the_model_wise_stage(tmp_path, inputs):
    spans = traced_spans(tmp_path, [
        "sweep", "--base", inputs["base"], "--model-a", inputs["model_a"],
        "--eval-a", inputs["eval"], "--p-values", "0.2,0.5,0.8", "--s-values", "0.5,1.0",
    ])
    # One Top_p per p, plus one scale-only step (Top_p at p = 1) per cell,
    # each the one prune of a model-wise step in the model-wise stage.
    model_wise = [span for span in spans if span["name"] == "model_wise_process"]
    assert len(model_wise) == 3 + 6
    assert all(spans[span["parent"]]["name"] == "cmd_sweep" for span in model_wise)
    prunes = [span for span in spans if span["name"] == "prune_topp"]
    assert sorted(spans[span["parent"]]["id"] for span in prunes) == [s["id"] for s in model_wise]


def test_each_model_is_processed_and_saved_before_the_next_one(tmp_path):
    """bench/layer_metrics.py maps the direct children of ``hi_merge`` to
    stages, and trace_cli's prune extractor reads ``num_params`` and
    ``deltas`` of the delta it prunes.  A hi merge computes, model-wise
    processes and saves model A's delta, then model B's; the layer
    re-prunes work on deltas read back from those files."""
    write_inputs(tmp_path)
    spans = traced_spans(tmp_path, [
        "merge", "--method", "hi", "--p-a", "0.5", "--p-b", "0.5",
        "--base", str(tmp_path / "base.safetensors"),
        "--model-a", str(tmp_path / "model_a.safetensors"),
        "--model-b", str(tmp_path / "model_b.safetensors"),
        "--eval-a", _spec("A"), "--eval-b", _spec("B"),
    ])
    (pipeline,) = [span for span in spans if span["name"] == "hi_merge"]
    steps = ("compute_delta", "model_wise_process", "save_delta")
    children = sorted(
        (span for span in spans if span["parent"] == pipeline["id"] and span["name"] in steps),
        key=lambda span: span["start"],
    )
    assert [span["name"] for span in children[:6]] == [*steps, *steps]
    assert all(span["name"] == "save_delta" for span in children[6:])
    out = tmp_path / "out"
    mtimes = [(out / f"delta_{m}_processed.safetensors").stat().st_mtime_ns for m in "ab"]
    assert mtimes[0] <= mtimes[1]

    prunes = [span for span in spans if span["name"] == "prune_topp"]
    callers = [spans[span["parent"]]["name"] for span in prunes]
    assert callers.count("model_wise_process") == 2 and "reprune_layer" in callers
    layer_size = 4 * 32 * 32  # four 32x32 matrices per layer
    for span, caller in zip(prunes, callers):
        assert span["entries"] == (26 * 32 * 32 if caller == "model_wise_process" else layer_size)
