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


def traced_span_names(tmp_path, args) -> set[str]:
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("HIMERGE_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans), *args, "--out", str(tmp_path / "out")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {span["name"] for span in json.loads(spans.read_text())}


def test_hi_merge_spans(tmp_path, inputs):
    names = traced_span_names(tmp_path, [
        "merge", "--method", "hi", "--base", inputs["base"],
        "--model-a", inputs["model_a"], "--model-b", inputs["model_b"],
        "--eval-a", inputs["eval"], "--eval-b", inputs["eval"],
    ])
    assert {"hi_merge", "assemble_final", "conflict_profile", "iterate"} <= names


def test_sweep_spans(tmp_path, inputs):
    names = traced_span_names(tmp_path, [
        "sweep", "--base", inputs["base"], "--model-a", inputs["model_a"],
        "--eval-a", inputs["eval"], "--p-values", "0.5,1.0", "--s-values", "1.0",
    ])
    assert {"cmd_sweep", "apply_delta"} <= names
