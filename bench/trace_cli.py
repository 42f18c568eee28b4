"""Run the himerge CLI in-process with span recording around each layer's
public functions.

Usage: python3 trace_cli.py SPANS_JSON CLI_ARG...

``from .x import f`` copies the name ``f`` into the importing module, so
wrapping only the defining module would miss most calls.  Every module
attribute that is the original function object gets the same wrapper.
Spans (name, layer, start, end, parent, attributes) stay in memory and are
written to SPANS_JSON when the CLI returns.  Times are ``time.monotonic``
so the parent process can relate them to its own clock.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import himerge
from himerge import analysis, checkpoint, cli, delta, evaluation, merge, resolver

MODULES = (himerge, checkpoint, delta, merge, evaluation, analysis, resolver, cli)


def _prune_entries(args, kwargs, result):
    dv = args[0]
    layers = kwargs.get("layers")
    if layers is None:
        return {"entries": dv.num_params}
    part = kwargs["partition"]
    wanted = set(layers)
    return {"entries": sum(a.size for n, a in dv.deltas.items() if part.layer_of(n) in wanted)}


def _actions(args, kwargs, result):
    kinds = [a.kind for a in result[2].actions]
    return {k.lower(): kinds.count(k) for k in ("DROP", "REPRUNE", "KEEP")}


# layer -> {function name: attribute extractor or None}
TARGETS = {
    "checkpoint": {
        "load_checkpoint": None,
        "save_checkpoint": None,
        "checkpoint_to_bytes": lambda a, k, r: {"bytes": len(r)},
        "fingerprint": None,
        "validate_compat": None,
        "partition_layers": None,
    },
    "delta": {
        "compute_delta": None,
        "model_wise_process": None,
        "prune_topp": _prune_entries,
        "apply_delta": None,
        "save_delta": None,
    },
    "merge": {"assemble_final": None, "delta_weighted_merge": None},
    "analysis": {
        "conflict_profile": None,
        "deletion_impact": lambda a, k, r: {"model_layer": a[2]},
        "addition_impact": lambda a, k, r: {"model_layer": a[2]},
        "shifted_checkpoint": None,
    },
    "resolver": {
        "hi_merge": None,
        "iterate": _actions,
        "resolve_layer": None,
        "reprune_layer": None,
        "drop_layer": None,
    },
    "cli": {"main": None, "cmd_merge": None, "cmd_sweep": None},
}


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def open(self, layer: str, name: str) -> dict:
        stack = self._stack()
        # A pool thread's first span hangs under whatever the main thread runs.
        parent_stack = stack or self._main_stack
        span = {
            "name": name,
            "layer": layer,
            "parent": parent_stack[-1] if parent_stack else None,
            "thread": threading.get_ident(),
            "start": time.monotonic(),
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.monotonic()
        self._stack().pop()

    def wrap(self, layer: str, name: str, fn, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if extract is not None:
                span.update(extract(args, kwargs, result))
            return result

        return traced

    def wrap_evaluate(self):
        original = evaluation.EvaluationBridge.evaluate

        @functools.wraps(original)
        def evaluate(bridge, cp, task):
            hits_before = bridge.cache_hits
            span = self.open("evaluation", "evaluate")
            try:
                result = original(bridge, cp, task)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            span["oracle_s"] = result.wall_time
            span["hit"] = bridge.cache_hits > hits_before
            return result

        evaluation.EvaluationBridge.evaluate = evaluate

    def install(self) -> None:
        for layer, functions in TARGETS.items():
            for name, extract in functions.items():
                original = getattr(getattr(himerge, layer), name)
                wrapper = self.wrap(layer, name, original, extract)
                for module in MODULES:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
        self.wrap_evaluate()


def main(argv) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    try:
        code = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(recorder.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
