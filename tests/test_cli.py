import collections
import contextlib
import csv
import errno
import fcntl
import functools
import io
import json
import math
import os
import shlex
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import himerge
import himerge.checkpoint
import himerge.cli
import himerge.delta
import himerge.resolver
from himerge import (
    Checkpoint,
    ConfigError,
    DeltaVector,
    EvalCache,
    EvalTask,
    EvaluationBridge,
    apply_delta,
    compute_delta,
    load_checkpoint,
    save_checkpoint,
)
from himerge.checkpoint import checkpoint_to_bytes, fingerprint
from himerge.cli import _GROUPS, RunConfig, build_parser, load_run_config, main, output_dir
from himerge.evaluation import SyntheticCompositeTask, SyntheticLinearTask

import reference_delta
from conftest import (
    backdate,
    checkpoint_from_arrays,
    dyadic_random,
    random_checkpoint,
    record_from_array,
    rewrite_in_place,
    truncate_by_one,
)
from instances import conflict_instance, layer_name, single_signal_instance


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def exited_pid() -> int:
    """The pid of a child process that has exited and been reaped."""
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


# Holds an exclusive flock on the file named by argv[1] until stdin closes.
LOCK_HOLDER = """
import fcntl, sys
fh = open(sys.argv[1], "a")
fcntl.flock(fh, fcntl.LOCK_EX)
print("locked", flush=True)
sys.stdin.read()
"""


def write_cp(path, cp):
    save_checkpoint(cp, path)
    return str(path)


def linear_spec(task, extra=None):
    spec = {
        "builtin": "synthetic_linear",
        "seed": task.evaluator.seed,
        "dim": task.evaluator.dim,
        "n_eval": task.evaluator.n_eval,
        "target": task.evaluator.target,
    }
    spec.update(extra or {})
    return spec


def composite_spec(task):
    ev = task.evaluator
    return {
        "builtin": "synthetic_composite",
        "probe_seed": ev.probe_seed,
        "n_eval": ev.n_eval,
        "targets": [list(t) for t in ev.targets],
    }


class TestDeltaCommand:
    def test_identical_model_gives_zero_delta(self, workdir):
        rng = np.random.default_rng(0)
        cp = random_checkpoint(rng)
        base = write_cp(workdir / "base.safetensors", cp)
        model = write_cp(workdir / "model.safetensors", cp)
        out = workdir / "out"
        assert main(["delta", "--base", base, "--model-a", model, "--out", str(out)]) == 0
        delta = load_checkpoint(out / "delta.safetensors")
        assert all(not rec.as_f32().any() for rec in delta)

    def test_roundtrip_through_files(self, workdir):
        rng = np.random.default_rng(1)
        base_cp = random_checkpoint(rng)
        model_cp = checkpoint_from_arrays(
            {n: dyadic_random(rng, base_cp.as_f32(n).shape) for n in base_cp.names}
        )
        base = write_cp(workdir / "base.safetensors", base_cp)
        model = write_cp(workdir / "model.safetensors", model_cp)
        out = workdir / "out"
        assert main(["delta", "--base", base, "--model-a", model, "--out", str(out)]) == 0
        saved = load_checkpoint(out / "delta.safetensors")
        # apply_delta checks the base the file names.
        delta = DeltaVector(saved.metadata["base_fingerprint"], saved)
        rebuilt = apply_delta(base_cp, [delta])
        for name in base_cp.names:
            assert np.array_equal(rebuilt.as_f32(name), model_cp.as_f32(name))

    def test_out_under_regular_file_is_io_error(self, workdir, capsys):
        cp = checkpoint_from_arrays({"w": [1.0]})
        base = write_cp(workdir / "base.safetensors", cp)
        model = write_cp(workdir / "model.safetensors", cp)
        blocker = workdir / "blocker"
        blocker.write_text("")
        out = str(blocker / "sub")
        assert main(["delta", "--base", base, "--model-a", model, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_missing_base_is_usage_error(self, workdir, capsys):
        model = write_cp(workdir / "m.safetensors", checkpoint_from_arrays({"w": [1.0]}))
        rc = main(
            [
                "delta",
                "--base",
                str(workdir / "nope.safetensors"),
                "--model-a",
                model,
                "--out",
                str(workdir / "out"),
            ]
        )
        assert rc == 1
        assert "usage error" in capsys.readouterr().err


class TestMergeCommand:
    def test_soups_equal_models(self, workdir):
        rng = np.random.default_rng(2)
        cp = random_checkpoint(rng)
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        out = workdir / "out"
        rc = main(
            ["merge", "--method", "soups", "--model-a", a, "--model-b", b, "--out", str(out)]
        )
        assert rc == 0
        merged = load_checkpoint(out / "merged.safetensors")
        assert checkpoint_to_bytes(merged) == checkpoint_to_bytes(cp)

    def test_soups_rejects_bad_weights(self, workdir):
        rng = np.random.default_rng(3)
        cp = random_checkpoint(rng)
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        rc = main(
            [
                "merge",
                "--method",
                "soups",
                "--model-a",
                a,
                "--model-b",
                b,
                "--out",
                str(workdir / "out"),
                "--omega-a",
                "0.9",
                "--omega-b",
                "0.9",
            ]
        )
        assert rc == 1

    def test_arithmetic_zero_deltas_returns_base(self, workdir):
        rng = np.random.default_rng(4)
        cp = random_checkpoint(rng)
        base = write_cp(workdir / "base.safetensors", cp)
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        out = workdir / "out"
        rc = main(
            [
                "merge",
                "--method",
                "arithmetic",
                "--base",
                base,
                "--model-a",
                a,
                "--model-b",
                b,
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        merged = load_checkpoint(out / "merged.safetensors")
        assert checkpoint_to_bytes(merged) == checkpoint_to_bytes(cp)

    def test_hi_via_config_file(self, workdir):
        base_cp, ma, mb, ta, tb, k = conflict_instance(seed=8, dim=64, n_eval=500)
        config = {
            "base": write_cp(workdir / "base.safetensors", base_cp),
            "model_a": write_cp(workdir / "a.safetensors", ma),
            "model_b": write_cp(workdir / "b.safetensors", mb),
            "out": str(workdir / "out"),
            "prune_scale": {"a": {"p": 1.0, "s": 0.5}, "b": {"p": 1.0, "s": 0.5}},
            "eval": {"a": linear_spec(ta), "b": composite_spec(tb)},
        }
        cfg_path = workdir / "run.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["merge", "--method", "hi", "--config", str(cfg_path)])
        assert rc == 0
        out = workdir / "out"
        assert (out / "merged.safetensors").exists()
        # Emitted profile satisfies the contribution identities, and its
        # worst-conflict layer is the injected one.
        doc = json.loads((out / "profile.json").read_text())
        for row in doc["layers"]:
            for key, c in row["c"].items():
                assert c == row["alpha"][key] + row["beta"][key]
            assert row["Gamma"] == row["gamma_a"] + row["gamma_b"]
        worst = max(doc["layers"], key=lambda r: r["Gamma"])
        assert worst["layer"] == k and worst["Gamma"] > 0
        log_lines = (out / "resolution_log.jsonl").read_text().splitlines()
        assert log_lines

    def test_evaluator_failure_exit_code(self, workdir, script_evaluator):
        base_cp, ma, mb, *_ = conflict_instance(seed=9, dim=32, n_eval=100)
        cmd = script_evaluator("import sys; sys.exit(2)")
        rc = main(
            [
                "merge",
                "--method",
                "hi",
                "--base",
                write_cp(workdir / "base.safetensors", base_cp),
                "--model-a",
                write_cp(workdir / "a.safetensors", ma),
                "--model-b",
                write_cp(workdir / "b.safetensors", mb),
                "--out",
                str(workdir / "out"),
                "--eval-a",
                cmd,
                "--eval-b",
                cmd,
            ]
        )
        assert rc == 3

    def test_failed_candidate_reported_alike_at_any_parallel(
        self, workdir, script_evaluator, capsys, monkeypatch
    ):
        # The evaluator logs the sha256 of every candidate it scores and
        # fails on the one named in a file.  The chosen candidate is scored
        # in the first re-profile of a --recompute run, so the failure comes
        # from the resolution stage with a partial resolution log.
        log, chosen = workdir / "scored.txt", workdir / "chosen.txt"
        cmd = script_evaluator(
            f"""
            import hashlib, json, os, sys
            digest = hashlib.sha256(open(sys.argv[1], "rb").read()).hexdigest()
            with open({str(log)!r}, "a") as fh:
                fh.write(digest + "\\n")
            if os.path.exists({str(chosen)!r}) and open({str(chosen)!r}).read() == digest:
                print("the chosen candidate", file=sys.stderr)
                sys.exit(1)
            print(json.dumps({{"score": int(digest[:4], 16) / 65535}}))
            """
        )
        rng = np.random.default_rng(11)
        base_cp, ma, mb = (
            checkpoint_from_arrays({layer_name(l): dyadic_random(rng, 8) for l in range(3)})
            for _ in range(3)
        )
        options = [
            "--base", write_cp(workdir / "base.safetensors", base_cp),
            "--model-a", write_cp(workdir / "a.safetensors", ma),
            "--model-b", write_cp(workdir / "b.safetensors", mb),
            "--eval-a", cmd, "--eval-b", cmd, "--s-a", "0.5", "--s-b", "0.5",
        ]
        hi = ["merge", "--method", "hi", "--recompute", *options]

        def scored(args, out):
            log.unlink(missing_ok=True)
            assert main([*args, "--out", str(workdir / out)]) == 0
            return log.read_text().splitlines()

        # With a shared cache, the hi run scores only what analyze did not.
        monkeypatch.setenv("HIMERGE_CACHE_DIR", str(workdir / "shared"))
        scored(["analyze", *options], "analyze")
        reprofiles = scored(hi, "full")
        assert len(reprofiles) > 3
        chosen.write_text(reprofiles[2])
        monkeypatch.delenv("HIMERGE_CACHE_DIR")
        capsys.readouterr()

        def failed_run(parallel):
            out = workdir / f"failed{parallel}"
            assert main([*hi, "--parallel", str(parallel), "--out", str(out)]) == 3
            err = capsys.readouterr().err
            return err, (out / "resolution_log.partial.jsonl").read_bytes()

        serial = failed_run(1)
        assert serial[0].startswith("evaluator error: stage resolution: ")
        assert "the chosen candidate" in serial[0] and serial[1]
        assert failed_run(2) == serial

    def test_malformed_checkpoint_exit_code(self, workdir):
        bad = workdir / "bad.safetensors"
        bad.write_bytes(b"\xff" * 32)
        ok = write_cp(workdir / "ok.safetensors", checkpoint_from_arrays({"w": [1.0]}))
        rc = main(
            [
                "merge",
                "--method",
                "soups",
                "--model-a",
                str(bad),
                "--model-b",
                ok,
                "--out",
                str(workdir / "out"),
            ]
        )
        assert rc == 2

    def test_unknown_flag_usage_error(self, capsys):
        assert main(["merge", "--frobnicate"]) == 1

    def _soups(self, workdir):
        cp = random_checkpoint(np.random.default_rng(5))
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        return ["merge", "--method", "soups", "--model-a", a, "--model-b", b]

    def test_a_live_lock_holder_blocks_the_run_until_it_is_killed(self, workdir, capsys):
        argv = [*self._soups(workdir), "--out", str(workdir / "out")]
        lock = workdir / "out" / ".himerge.lock"
        lock.parent.mkdir()
        lock.write_text("held\n")
        with subprocess.Popen(
            [sys.executable, "-c", LOCK_HOLDER, str(lock)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        ) as holder:
            try:
                assert holder.stdout.readline() == "locked\n"
                before = os.stat(lock)
                assert main(argv) == 1
                assert "locked by another run" in capsys.readouterr().err
                after = os.stat(lock)
                assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
                assert lock.read_text() == "held\n"
                assert not (lock.parent / "merged.safetensors").exists()
            finally:
                holder.kill()
        # The kernel released the killed holder's lock: no manual step.
        assert main(argv) == 0
        assert (lock.parent / "merged.safetensors").exists()
        assert not lock.exists()

    @pytest.mark.parametrize(
        "owner",
        [
            lambda: f"{os.getppid()} {socket.gethostname()}",  # alive
            lambda: f"{os.getpid()} {socket.gethostname()}",  # alive: this process
            lambda: f"{exited_pid()} {socket.gethostname()}",
            lambda: f"{exited_pid()} other-host",
            lambda: "not-a-pid",
            lambda: f"0 {socket.gethostname()}",
            lambda: "",
        ],
        ids=["parent", "self", "exited", "other-host", "garbage", "pid-0", "empty"],
    )
    def test_a_lock_file_no_run_holds_does_not_block(self, workdir, monkeypatch, owner):
        """Whatever a lock file says, only a process holding its flock keeps
        the directory; the run holds that flock until it ends."""
        argv = self._soups(workdir)
        out = workdir / "out"
        out.mkdir()
        (out / ".himerge.lock").write_text(owner())
        held = []
        real_merge = himerge.cli.weighted_average_merge

        def merge_and_try_the_lock(*args):
            with open(out / ".himerge.lock", "a") as fh:
                try:
                    fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
                except BlockingIOError:
                    held.append(True)
            return real_merge(*args)

        monkeypatch.setattr(himerge.cli, "weighted_average_merge", merge_and_try_the_lock)
        assert main([*argv, "--out", str(out)]) == 0
        assert held == [True]
        assert (out / "merged.safetensors").exists()
        assert not (out / ".himerge.lock").exists()

    def test_racing_reruns_take_over_a_stale_lock_once(self, workdir):
        out = workdir / "out"
        out.mkdir()
        (out / ".himerge.lock").write_text(f"{exited_pid()} {socket.gethostname()}")
        n = 6
        everyone_tried = threading.Barrier(n, timeout=30)
        outcomes = []

        def rerun():
            try:
                with output_dir(RunConfig(out=str(out))):
                    outcomes.append("ran")
                    everyone_tried.wait()  # hold the lock until every rerun has tried
            except ConfigError:
                outcomes.append("locked")
                everyone_tried.wait()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, so the takeovers interleave
        try:
            threads = [threading.Thread(target=rerun) for _ in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(outcomes) == ["locked"] * (n - 1) + ["ran"]
        assert not (out / ".himerge.lock").exists()

    def test_lock_removed_after_run(self, workdir):
        rng = np.random.default_rng(6)
        cp = random_checkpoint(rng)
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        out = workdir / "out"
        main(["merge", "--method", "soups", "--model-a", a, "--model-b", b, "--out", str(out)])
        assert not (out / ".himerge.lock").exists()


class TestAnalyzeCommand:
    def _config(self, workdir, eval_a, eval_b, n_eval=300):
        base_cp, ma, mb, ta, tb = single_signal_instance(n_eval=n_eval)
        return {
            "base": write_cp(workdir / "base.safetensors", base_cp),
            "model_a": write_cp(workdir / "a.safetensors", ma),
            "model_b": write_cp(workdir / "b.safetensors", mb),
            "out": str(workdir / "out"),
            "eval": {"a": eval_a, "b": eval_b},
        }

    def test_constant_evaluator_zero_gamma_column(self, workdir):
        config = self._config(
            workdir, {"builtin": "constant", "value": 0.5}, {"builtin": "constant", "value": 0.5}
        )
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        with open(workdir / "out" / "profile.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(float(r["Gamma"]) == 0.0 for r in rows)

    def test_warm_cache_rerun_zero_invocations(self, workdir, capsys):
        base_cp, ma, mb, ta, tb = single_signal_instance(n_eval=300)
        config = {
            "base": write_cp(workdir / "base.safetensors", base_cp),
            "model_a": write_cp(workdir / "a.safetensors", ma),
            "model_b": write_cp(workdir / "b.safetensors", mb),
            "out": str(workdir / "out"),
            "eval": {"a": linear_spec(ta), "b": linear_spec(tb)},
        }
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        first = capsys.readouterr().err
        assert "evaluator invocations: 0" not in first
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        second = capsys.readouterr().err
        assert "evaluator invocations: 0 " in second

    def test_abort_then_resume_does_no_repeated_work(self, workdir, tmp_path):
        # The evaluator fails after a fixed number of calls until a marker
        # file appears; the first analyze run aborts, the resumed run must
        # only evaluate what the cache does not already hold.
        import sys
        import textwrap

        counter = tmp_path / "count.txt"
        marker = tmp_path / "fixed"
        script = tmp_path / "flaky_eval.py"
        script.write_text(
            textwrap.dedent(
                f"""
                import hashlib, json, os, sys
                counter = {str(counter)!r}
                n = int(open(counter).read()) if os.path.exists(counter) else 0
                open(counter, "w").write(str(n + 1))
                if n + 1 > 8 and not os.path.exists({str(marker)!r}):
                    print("flaky failure", file=sys.stderr)
                    sys.exit(1)
                blob = open(sys.argv[1], "rb").read()
                score = hashlib.sha256(blob).digest()[0] / 255.0
                print(json.dumps({{"score": score}}))
                """
            )
        )
        cmd = f"{sys.executable} {script} {{checkpoint}}"
        base_cp, ma, mb, *_ = single_signal_instance(n_eval=100)
        base = write_cp(workdir / "base.safetensors", base_cp)
        a = write_cp(workdir / "a.safetensors", ma)
        b = write_cp(workdir / "b.safetensors", mb)

        def argv(out):
            return [
                "analyze", "--base", base, "--model-a", a, "--model-b", b,
                "--out", str(workdir / out), "--eval-a", cmd, "--eval-b", cmd,
            ]

        assert main(argv("out")) == 3
        marker.touch()
        assert main(argv("out")) == 0
        total_calls = int(counter.read_text())
        # A fresh run against an empty cache needs exactly the same number
        # of evaluator calls as the abort + resume pair issued together.
        counter.unlink()
        assert main(argv("fresh")) == 0
        fresh_calls = int(counter.read_text())
        assert total_calls == fresh_calls + 1  # +1 for the failed attempt

    def test_idempotent_outputs(self, workdir):
        base_cp, ma, mb, ta, tb = single_signal_instance(n_eval=300)
        config = {
            "base": write_cp(workdir / "base.safetensors", base_cp),
            "model_a": write_cp(workdir / "a.safetensors", ma),
            "model_b": write_cp(workdir / "b.safetensors", mb),
            "out": str(workdir / "out"),
            "eval": {"a": linear_spec(ta), "b": linear_spec(tb)},
        }
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        snapshot = {
            name: (workdir / "out" / name).read_bytes()
            for name in ("profile.json", "profile.csv")
        }
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        for name, blob in snapshot.items():
            assert (workdir / "out" / name).read_bytes() == blob


class TestSweepCommand:
    def _setup(self, workdir, n_eval=400):
        rng = np.random.default_rng(7)
        dim = 32
        base_arrays = {layer_name(0): dyadic_random(rng, dim)}
        base_cp = checkpoint_from_arrays(base_arrays)
        model_cp = checkpoint_from_arrays({layer_name(0): dyadic_random(rng, dim)})
        spec = SyntheticLinearTask(seed=77, dim=dim, n_eval=n_eval, target=layer_name(0))
        eval_spec = {
            "builtin": "synthetic_linear",
            "seed": 77,
            "dim": dim,
            "n_eval": n_eval,
            "target": layer_name(0),
        }
        base = write_cp(workdir / "base.safetensors", base_cp)
        model = write_cp(workdir / "model.safetensors", model_cp)
        return base_cp, model_cp, base, model, spec, eval_spec

    def test_default_grid_has_100_unique_rows(self, workdir):
        _, _, base, model, _, eval_spec = self._setup(workdir, n_eval=200)
        out = workdir / "out"
        rc = main(
            [
                "sweep",
                "--base",
                base,
                "--model-a",
                model,
                "--out",
                str(out),
                "--eval-a",
                json.dumps(eval_spec),
            ]
        )
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 100
        keys = {(r["p"], r["s"]) for r in rows}
        assert len(keys) == 100
        assert all(r["error"] == "" for r in rows)

    def test_identity_and_zero_cells(self, workdir):
        base_cp, model_cp, base, model, spec, eval_spec = self._setup(workdir)
        out = workdir / "out"
        rc = main(
            [
                "sweep",
                "--base",
                base,
                "--model-a",
                model,
                "--out",
                str(out),
                "--eval-a",
                json.dumps(eval_spec),
                "--p-values",
                "0,0.5,1",
                "--s-values",
                "0,1",
            ]
        )
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = {(float(r["p"]), float(r["s"])): r["score"] for r in csv.DictReader(fh)}
        direct_model = spec.score(model_cp)
        direct_base = spec.score(base_cp)
        assert float(rows[(1.0, 1.0)]) == direct_model
        for p in (0.0, 0.5, 1.0):
            assert float(rows[(p, 0.0)]) == direct_base
        assert float(rows[(0.0, 1.0)]) == direct_base

    def test_evaluator_failures_recorded_per_cell(self, workdir, script_evaluator):
        _, _, base, model, _, _ = self._setup(workdir)
        cmd = script_evaluator("import sys; sys.exit(1)")
        out = workdir / "out"
        rc = main(
            [
                "sweep",
                "--base",
                base,
                "--model-a",
                model,
                "--out",
                str(out),
                "--eval-a",
                cmd,
                "--p-values",
                "0.5,1",
                "--s-values",
                "1",
            ]
        )
        assert rc == 0
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["score"] == "" and r["error"] for r in rows)

    def test_parallel_matches_serial(self, workdir):
        _, _, base, model, _, eval_spec = self._setup(workdir, n_eval=200)
        serial_out = workdir / "serial"
        parallel_out = workdir / "parallel"
        args = ["sweep", "--base", base, "--model-a", model, "--eval-a", json.dumps(eval_spec),
                "--p-values", "0.2,0.6,1", "--s-values", "0.5,1"]
        assert main(args + ["--out", str(serial_out)]) == 0
        assert main(args + ["--out", str(parallel_out), "--parallel", "4"]) == 0
        serial_rows = (serial_out / "sweep.csv").read_text()
        parallel_rows = (parallel_out / "sweep.csv").read_text()
        assert serial_rows == parallel_rows
        # Cache lines follow completion order; the entries are the same.
        cache = "cache/eval_cache.jsonl"
        serial_cache = (serial_out / cache).read_text().splitlines()
        parallel_cache = (parallel_out / cache).read_text().splitlines()
        assert sorted(serial_cache) == sorted(parallel_cache)

    def test_duplicate_grid_rejected(self, workdir):
        _, _, base, model, _, eval_spec = self._setup(workdir)
        rc = main(
            [
                "sweep",
                "--base",
                base,
                "--model-a",
                model,
                "--out",
                str(workdir / "out"),
                "--eval-a",
                json.dumps(eval_spec),
                "--p-values",
                "0.5,0.5",
            ]
        )
        assert rc == 1


class TestConfigHandling:
    def test_flags_override_config(self, workdir):
        rng = np.random.default_rng(8)
        cp = random_checkpoint(rng)
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        config = {"model_a": a, "model_b": b, "out": str(workdir / "from_config")}
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        override = workdir / "from_flag"
        rc = main(
            [
                "merge",
                "--method",
                "soups",
                "--config",
                str(cfg_path),
                "--out",
                str(override),
            ]
        )
        assert rc == 0
        assert (override / "merged.safetensors").exists()
        assert not (workdir / "from_config").exists()

    def test_unknown_config_key_rejected(self, workdir):
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert main(["analyze", "--config", str(cfg_path)]) == 1

    def test_out_of_range_prune_param_rejected(self, workdir):
        rng = np.random.default_rng(9)
        cp = random_checkpoint(rng)
        base = write_cp(workdir / "base.safetensors", cp)
        a = write_cp(workdir / "a.safetensors", cp)
        b = write_cp(workdir / "b.safetensors", cp)
        rc = main(
            [
                "merge", "--method", "hi", "--base", base, "--model-a", a,
                "--model-b", b, "--out", str(workdir / "out"),
                "--p-a", "1.5", "--eval-a", '{"builtin": "constant"}',
                "--eval-b", '{"builtin": "constant"}',
            ]
        )
        assert rc == 1

    def test_grid_values_out_of_range_rejected(self, workdir):
        rng = np.random.default_rng(10)
        cp = random_checkpoint(rng)
        base = write_cp(workdir / "base.safetensors", cp)
        model = write_cp(workdir / "model.safetensors", cp)
        rc = main(
            [
                "sweep", "--base", base, "--model-a", model,
                "--out", str(workdir / "out"),
                "--eval-a", '{"builtin": "constant"}',
                "--p-values", "0.5,2.0",
            ]
        )
        assert rc == 1

    def test_cache_dir_env_override(self, workdir, monkeypatch):
        base_cp, ma, mb, ta, tb = single_signal_instance(n_eval=200)
        cache_dir = workdir / "shared_cache"
        monkeypatch.setenv("HIMERGE_CACHE_DIR", str(cache_dir))
        config = {
            "base": write_cp(workdir / "base.safetensors", base_cp),
            "model_a": write_cp(workdir / "a.safetensors", ma),
            "model_b": write_cp(workdir / "b.safetensors", mb),
            "out": str(workdir / "out"),
            "eval": {"a": linear_spec(ta), "b": linear_spec(tb)},
        }
        cfg_path = workdir / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        assert (cache_dir / "eval_cache.jsonl").exists()
        assert not (workdir / "out" / "cache").exists()


BAD_CONFIG_DOCS = [
    {"policy": {"gamma_threshold": "0.1"}},
    {"p_a": "x"},
    {"parallel": "two"},
    {"sweep": {"p_values": 0.5}},
    {"sweep": {"p_values": [0.5, "x"]}},
    {"policy": {"max_halving": 1}},
    {"policy": {"recompute": "yes"}},
    {"max_passes": 1.5},
    {"prune_scale": {"a": {"q": 0.5}}},
    {"prune_scale": {"c": {"p": 0.5}}},
    {"prune_scale": "0.5"},
    {"weights": {"a": True}},
    {"out": 5},
]


@pytest.mark.parametrize("doc", BAD_CONFIG_DOCS, ids=json.dumps)
def test_ill_typed_or_unknown_config_value_is_usage_error(workdir, capsys, doc):
    cp = random_checkpoint(np.random.default_rng(11))
    config = {
        "base": write_cp(workdir / "base.safetensors", cp),
        "model_a": write_cp(workdir / "a.safetensors", cp),
        "model_b": write_cp(workdir / "b.safetensors", cp),
        "out": str(workdir / "out"),
        "eval": {"a": {"builtin": "constant"}, "b": {"builtin": "constant"}},
    }
    config.update(doc)
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["merge", "--method", "hi", "--config", str(cfg_path)]) == 1
    assert capsys.readouterr().err.startswith("usage error:")


class TestTornCache:
    """A crash while appending to eval_cache.jsonl leaves a torn last line."""

    def _run(self, workdir, out, capsys):
        base_cp, ma, mb, ta, tb, _ = conflict_instance(seed=8, dim=64, n_eval=300)
        argv = [
            "merge", "--method", "hi",
            "--base", write_cp(workdir / "base.safetensors", base_cp),
            "--model-a", write_cp(workdir / "a.safetensors", ma),
            "--model-b", write_cp(workdir / "b.safetensors", mb),
            "--p-a", "0.5", "--s-a", "0.5", "--p-b", "0.5", "--s-b", "0.5",
            "--eval-a", json.dumps(linear_spec(ta)),
            "--eval-b", json.dumps(composite_spec(tb)),
            "--out", str(workdir / out),
        ]
        rc = main(argv)
        err = capsys.readouterr().err
        calls = int(err.split("evaluator invocations: ")[1].split()[0]) if rc == 0 else None
        return rc, calls, err

    def test_rerun_truncates_torn_line_and_resumes(self, workdir, capsys):
        rc, fresh_calls, _ = self._run(workdir, "fresh", capsys)
        assert rc == 0
        lines = (workdir / "fresh" / "cache" / "eval_cache.jsonl").read_bytes().splitlines(True)
        kept = len(lines) // 2
        torn = workdir / "torn" / "cache" / "eval_cache.jsonl"
        torn.parent.mkdir(parents=True)
        torn.write_bytes(b"".join(lines[:kept]) + lines[kept][: len(lines[kept]) // 2])

        rc, calls, _ = self._run(workdir, "torn", capsys)
        assert rc == 0
        merged = "merged.safetensors"
        assert (workdir / "torn" / merged).read_bytes() == (workdir / "fresh" / merged).read_bytes()
        # Every completed evaluation is reused; only the rest runs again.
        assert calls == fresh_calls - kept
        entries = [json.loads(line) for line in torn.read_text().splitlines()]
        keys = [(e["key"], e["task_id"], e["evaluator"]) for e in entries]
        assert len(keys) == len(set(keys)) == fresh_calls

    def test_corruption_before_the_last_line_is_a_data_error(self, workdir, capsys):
        assert self._run(workdir, "fresh", capsys)[0] == 0
        lines = (workdir / "fresh" / "cache" / "eval_cache.jsonl").read_bytes().splitlines(True)
        bad = workdir / "bad" / "cache" / "eval_cache.jsonl"
        bad.parent.mkdir(parents=True)
        bad.write_bytes(lines[0][:10] + b"\n" + b"".join(lines[1:]))
        rc, _, err = self._run(workdir, "bad", capsys)
        assert rc == 2
        assert err.startswith("data error:") and "line 1" in err

    @pytest.mark.parametrize("torn", [False, True], ids=["before the last line", "torn last line"])
    def test_a_line_nested_too_deeply_is_corruption(self, workdir, capsys, torn):
        paths = _one_layer_inputs(workdir)
        out = workdir / "out"
        cache = out / "cache" / "eval_cache.jsonl"
        cache.parent.mkdir(parents=True)
        deep = "[" * 60_000 + "]" * 60_000
        other = '{"v": 1}\n'  # an old-format line, skipped on load
        cache.write_text(other + deep if torn else deep + "\n" + other)
        argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"],
                "--eval-a", json.dumps(LINEAR), "--p-values", "0.5", "--s-values", "1",
                "--out", str(out)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if torn:
            assert rc == 0
            lines = cache.read_text().splitlines(True)
            assert lines[0] == other and len(lines) == 2
        else:
            assert rc == 2
            assert err.startswith("data error:") and "line 1" in err
            assert cache.read_text() == deep + "\n" + other


def _one_layer_inputs(workdir):
    """Checkpoints with one 1-D layer tensor, which the builtin specs below score."""
    rng = np.random.default_rng(12)
    paths = {}
    for name in ("base", "model_a", "model_b"):
        cp = checkpoint_from_arrays({layer_name(0): dyadic_random(rng, 32)})
        paths[name] = write_cp(workdir / f"{name}.safetensors", cp)
    return paths


# (verb and method, option, out-of-domain value)
OUT_OF_DOMAIN = [
    (["merge"], "parallel", -3),
    (["merge"], "max_passes", -2),
    (["merge"], "max_halvings", -1),
    (["merge"], "gamma_threshold", float("nan")),
    (["merge"], "timeout", -5.0),
    (["merge"], "timeout", float("inf")),
    (["merge"], "timeout", math.nextafter(2147483.0, math.inf)),  # above the longest poll
    (["sweep"], "timeout", 1e7),
    (["merge", "--method", "arithmetic"], "omega_a", float("inf")),
    (["sweep"], "p_values", []),
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("verb, name, value", OUT_OF_DOMAIN)
def test_out_of_domain_option_is_usage_error(workdir, capsys, verb, name, value, source):
    config = {**_one_layer_inputs(workdir), "out": str(workdir / "out")}
    config["eval"] = {"a": {"builtin": "constant"}, "b": {"builtin": "constant"}}
    argv = verb + ["--config", str(workdir / "cfg.json")]
    if source == "flag":
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += ["--" + name.replace("_", "-"), text]
    else:
        config[name] = value
    (workdir / "cfg.json").write_text(json.dumps(config))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err
    assert not any((workdir / "out").glob("*.*"))


VERBS = ("delta", "merge", "analyze", "sweep")


# Option type -> a non-default value, as JSON and as flag text; other
# types (paths, evaluators) take the string.
SAMPLES = {
    float: (0.25, "0.25"),
    float | None: (0.25, "0.25"),
    int: (2, "2"),
    bool: (True, None),
    list[float]: ([0.5, 0.25], "0.5,0.25"),
}


def _grouped_keys(table, prefix=()):
    for key, target in table.items():
        if isinstance(target, dict):
            yield from _grouped_keys(target, prefix + (key,))
        else:
            yield target, prefix + (key,)


@pytest.mark.parametrize("verb", VERBS)
def test_every_run_option_is_a_documented_flag_and_config_key(workdir, capsys, verb):
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    help_text = "".join(capsys.readouterr().out.split())
    grouped = dict(_grouped_keys(_GROUPS))
    hints = get_type_hints(RunConfig)
    parser = build_parser()
    assert len(fields(RunConfig)) == 25

    def from_config(doc):
        path = workdir / "cfg.json"
        path.write_text(json.dumps(doc))
        return load_run_config(parser.parse_args([verb, "--config", str(path)]))

    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        assert f.metadata.get("help"), f.name
        assert flag in help_text and "".join(f.metadata["help"].split()) in help_text, f.name
        value, text = SAMPLES.get(hints[f.name], ("cmd {checkpoint}",) * 2)
        by_flag = load_run_config(parser.parse_args([verb, flag] + ([text] if text else [])))
        assert getattr(by_flag, f.name) == value and by_flag != RunConfig(), f.name
        assert from_config({f.name: value}) == by_flag, f.name
        if f.name in grouped:
            doc = value
            for key in reversed(grouped[f.name]):
                doc = {key: doc}
            assert from_config(doc) == by_flag, f.name


LINEAR = {"builtin": "synthetic_linear", "seed": 7, "dim": 32, "n_eval": 50, "target": layer_name(0)}
BAD_BUILTIN_SPECS = [
    {**LINEAR, "seed": 7.9},
    {**LINEAR, "dim": "32"},
    {**LINEAR, "seed": True},
    {**LINEAR, "bogus": 1},
    {**LINEAR, "kind": "synthetic_linear"},  # the class names its kind; a spec cannot
    {"builtin": "synthetic_composite", "probe_seed": 1, "n_eval": 50, "targets": [[layer_name(0), 1.5]]},
    {"builtin": "constant", "value": "0.5"},
]


OUT_OF_RANGE_BUILTIN_SPECS = [
    {**LINEAR, "n_eval": 0},
    {**LINEAR, "dim": 0},
    {**LINEAR, "seed": -1},
    {"builtin": "synthetic_composite", "probe_seed": 1, "n_eval": 0, "targets": [[layer_name(0), 1]]},
    {"builtin": "synthetic_composite", "probe_seed": 1, "n_eval": 50, "targets": []},
    {"builtin": "synthetic_composite", "probe_seed": -1, "n_eval": 50, "targets": [[layer_name(0), 1]]},
    {"builtin": "synthetic_composite", "probe_seed": 1, "n_eval": 50, "targets": [[layer_name(0), -1]]},
    {"builtin": "constant", "value": float("nan")},
]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("spec", BAD_BUILTIN_SPECS, ids=json.dumps)
def test_ill_typed_or_unknown_builtin_spec_key_is_usage_error(workdir, capsys, spec, source):
    _assert_spec_is_usage_error(workdir, capsys, spec, source)


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("spec", OUT_OF_RANGE_BUILTIN_SPECS, ids=json.dumps)
def test_out_of_range_builtin_spec_is_usage_error(workdir, capsys, spec, source):
    _assert_spec_is_usage_error(workdir, capsys, spec, source)
    assert not (workdir / "out").exists()


def _assert_spec_is_usage_error(workdir, capsys, spec, source):
    paths = _one_layer_inputs(workdir)
    argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"],
            "--out", str(workdir / "out"), "--p-values", "1", "--s-values", "1"]
    if source == "flag":
        argv += ["--eval-a", json.dumps(spec)]
    else:
        (workdir / "cfg.json").write_text(json.dumps({"eval": {"a": spec}}))
        argv += ["--config", str(workdir / "cfg.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("verb", [["sweep"], ["merge"], ["analyze"]])
def test_parallel_below_one_creates_no_out_dir(workdir, capsys, verb):
    paths = _one_layer_inputs(workdir)
    fresh = workdir / "fresh"
    argv = verb + [
        "--base", paths["base"], "--model-a", paths["model_a"], "--model-b", paths["model_b"],
        "--eval-a", json.dumps(LINEAR), "--eval-b", json.dumps(LINEAR),
        "--parallel", "-3", "--out", str(fresh),
    ]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("usage error:")
    assert not fresh.exists()


@pytest.mark.parametrize("verb", [["merge", "--method", "arithmetic"], ["sweep"]])
def test_non_finite_delta_is_data_error(workdir, capsys, verb):
    base = checkpoint_from_arrays({layer_name(0): np.zeros(32), layer_name(1): np.ones(4)})
    model_a = checkpoint_from_arrays(
        {layer_name(0): np.zeros(32), layer_name(1): [1.0, np.nan, 1.0, 1.0]}
    )
    paths = {
        "base": write_cp(workdir / "base.safetensors", base),
        "model_a": write_cp(workdir / "a.safetensors", model_a),
        "model_b": write_cp(workdir / "b.safetensors", base),
    }
    argv = verb + [
        "--base", paths["base"], "--model-a", paths["model_a"], "--model-b", paths["model_b"],
        "--eval-a", json.dumps(LINEAR), "--out", str(workdir / "out"),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and layer_name(1) in err and "Traceback" not in err
    assert not any((workdir / "out").glob("*.safetensors")) and not (workdir / "out" / "sweep.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_f16_overflow_is_data_error(workdir, capsys):
    # 60000 + 60000 is past f16's largest value, 65504, and would round to inf.
    base = checkpoint_from_arrays({layer_name(0): np.zeros(4)}, dtype="f16")
    model = checkpoint_from_arrays({layer_name(0): [0.0, 60000.0, 1.0, 2.0]}, dtype="f16")
    paths = [write_cp(workdir / f"{name}.safetensors", cp)
             for name, cp in (("base", base), ("a", model), ("b", model))]
    argv = ["merge", "--method", "arithmetic", "--base", paths[0], "--model-a", paths[1],
            "--model-b", paths[2], "--out", str(workdir / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and layer_name(0) in err and "f16" in err
    assert "Traceback" not in err
    assert not (workdir / "out" / "merged.safetensors").exists()


def _sweep_inputs(workdir):
    """Two layers and a non-layer tensor with quantised deltas (many ties at
    every cut), scored by a composite evaluator over all three tensors."""
    rng = np.random.default_rng(21)
    names = ["m.embed", layer_name(0), layer_name(1)]
    base = {n: dyadic_random(rng, 24) for n in names}
    model = {n: base[n] + np.round(rng.standard_normal(24) * 2) / 4 for n in names}
    task = SyntheticCompositeTask(probe_seed=5, n_eval=300, targets=tuple((n, i) for i, n in enumerate(names)))
    spec = {"builtin": "synthetic_composite", "probe_seed": 5, "n_eval": 300,
            "targets": [list(t) for t in task.targets]}
    base_cp, model_cp = checkpoint_from_arrays(base), checkpoint_from_arrays(model)
    paths = (write_cp(workdir / "base.safetensors", base_cp), write_cp(workdir / "model.safetensors", model_cp))
    return base_cp, model_cp, paths, EvalTask("A", task), spec


@pytest.mark.parametrize("parallel", [1, 2, 4, 8])
def test_sweep_prunes_once_per_p_and_matches_per_cell_reference(workdir, monkeypatch, parallel):
    base_cp, model_cp, (base, model), task, spec = _sweep_inputs(workdir)
    p_values, s_values = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0], [0.0, 0.5, 1.0]

    # Reference: a full prune-then-scale for every cell, with the argsort
    # Top_p, evaluated serially.
    ref_dir = workdir / "reference"
    bridge = EvaluationBridge(EvalCache(ref_dir / "eval_cache.jsonl"))
    delta = compute_delta(model_cp, base_cp, provenance="A")
    ref_dir.mkdir(exist_ok=True)
    with open(ref_dir / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "s", "score", "error"])
        for p in p_values:
            for s in s_values:
                processed = reference_delta.scale(reference_delta.prune_topp(delta, p), s)
                candidate = apply_delta(base_cp, [processed])
                writer.writerow([p, s, repr(bridge.evaluate(candidate, task).value), ""])

    calls = []
    original = himerge.delta.prune_topp

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(himerge.delta, "prune_topp", counting)
    threads = []
    original_combine = himerge.cli.combine

    def recording(ref, terms, *args, **kwargs):
        # A cell is one combine: it starts from s * Top_p and adds the
        # p's widened base, a single term, in the base's dtypes.
        assert callable(ref) and len(terms) == 1 and not args and set(kwargs) == {"like"}
        assert kwargs["like"].names == base_cp.names
        threads.append(threading.current_thread())
        return original_combine(ref, terms, like=kwargs["like"])

    monkeypatch.setattr(himerge.cli, "combine", recording)
    out = workdir / "out"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so cells of several p overlap
    try:
        rc = main(["sweep", "--base", base, "--model-a", model, "--eval-a", json.dumps(spec),
                   "--p-values", ",".join(map(str, p_values)), "--s-values", ",".join(map(str, s_values)),
                   "--parallel", str(parallel), "--out", str(out)])
    finally:
        sys.setswitchinterval(interval)
    assert rc == 0
    # Each p is pruned once, and no cell prunes: a cell scales Top_p
    # inside its one combine.
    assert sorted(calls) == sorted(p_values)
    # Candidates are built on the calling thread; pool threads only evaluate.
    assert len(threads) == len(p_values) * len(s_values)
    assert all(thread is threading.main_thread() for thread in threads)
    assert (out / "sweep.csv").read_text() == (ref_dir / "sweep.csv").read_text()
    # Lines follow completion order; cells that build the same candidate
    # (every s = 0 cell gives the base) share one evaluation and one line.
    cache = sorted((out / "cache" / "eval_cache.jsonl").read_text().splitlines())
    assert cache == sorted((ref_dir / "eval_cache.jsonl").read_text().splitlines())


@pytest.mark.parametrize("dtype", ["f32", "bf16"])
def test_a_sweep_reads_each_base_tensor_twice_per_p(workdir, monkeypatch, dtype):
    """Each p value reads every base tensor twice, once for its delta and
    once to widen it; the base's fingerprint reads it once more.  No cell
    reads the base."""
    base_cp, model_cp, _, _, spec = _sweep_inputs(workdir)
    base, model = (write_cp(workdir / f"{which}-{dtype}.safetensors",
                            checkpoint_from_arrays({n: cp.as_f32(n) for n in cp.names}, dtype))
                   for which, cp in (("base", base_cp), ("model", model_cp)))
    data_start = 8 + int.from_bytes(Path(base).read_bytes()[:8], "little")  # past the header
    reads = collections.Counter()  # tensor data offset -> reads
    original = himerge.checkpoint._FileSource.read_into

    def counting(source, buf, offset):
        if str(source.path) == base and offset >= data_start:
            reads[offset] += 1
        return original(source, buf, offset)

    monkeypatch.setattr(himerge.checkpoint._FileSource, "read_into", counting)
    p_values, s_values = [0.1, 0.5, 1.0], [0.25, 0.5, 0.75, 1.0]
    assert main(["sweep", "--base", base, "--model-a", model, "--eval-a", json.dumps(spec),
                 "--p-values", ",".join(map(str, p_values)),
                 "--s-values", ",".join(map(str, s_values)), "--out", str(workdir / "out")]) == 0
    assert len(reads) == len(base_cp.names)
    assert max(reads.values()) <= 2 * len(p_values) + 1


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_sweep_whose_delta_holds_an_inf_writes_nothing(workdir, monkeypatch, capsys, parallel):
    """The first p value's delta is computed inside ``bridge.map``, as its
    first candidate is taken; its CompatError ends the sweep there, with
    no ``sweep.csv`` and no cache file."""
    names = ["m.embed", layer_name(0)]
    base = write_cp(workdir / "base.safetensors",
                    checkpoint_from_arrays({names[0]: [0.0, -3e38], names[1]: [1.0, 2.0]}))
    model = write_cp(workdir / "model.safetensors",
                     checkpoint_from_arrays({names[0]: [0.0, 3e38], names[1]: [1.5, 2.0]}))
    inside_map, deltas = [False], []
    original_map, original_delta = EvaluationBridge.map, himerge.cli.compute_delta

    def mapping(bridge, fn, items):
        inside_map[0] = True
        try:
            return original_map(bridge, fn, items)
        finally:
            inside_map[0] = False

    def computing(*args, **kwargs):
        deltas.append(inside_map[0])
        return original_delta(*args, **kwargs)

    monkeypatch.setattr(EvaluationBridge, "map", mapping)
    monkeypatch.setattr(himerge.cli, "compute_delta", computing)
    out = workdir / "out"
    assert main(["sweep", "--base", base, "--model-a", model, "--eval-a", '{"builtin": "constant"}',
                 "--p-values", "0.5,1.0", "--s-values", "0.5,1.0", "--parallel", str(parallel),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (f"data error: delta of A against the base: tensor {names[0]!r} "
                   "holds a NaN or inf delta\n")
    assert deltas == [True]
    assert not (out / "sweep.csv").exists()
    assert not (out / "cache" / "eval_cache.jsonl").exists()


def _invocations(err: str) -> int:
    return int(err.split("evaluator invocations: ")[1].split()[0])


def test_parallel_sweep_evaluates_each_distinct_candidate_once(workdir, monkeypatch, capsys):
    _, _, (base, model), _, spec = _sweep_inputs(workdir)
    original = SyntheticCompositeTask.score

    def slow(task_spec, cp):  # slow enough for cells of one candidate to overlap
        time.sleep(0.01)
        return original(task_spec, cp)

    monkeypatch.setattr(SyntheticCompositeTask, "score", slow)

    def sweep(out, parallel):
        argv = ["sweep", "--base", base, "--model-a", model, "--eval-a", json.dumps(spec),
                "--p-values", "0,0.2,0.5,0.8,1", "--s-values", "0,0.5,0.0001",
                "--parallel", str(parallel), "--out", str(workdir / out)]
        assert main(argv) == 0
        return _invocations(capsys.readouterr().err)

    distinct = sweep("serial", 1)
    assert distinct < 15  # p = 0 and s = 0 cells all give the base
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for run in range(5):
            assert sweep(f"parallel{run}", 4) == distinct, run
            lines = (workdir / f"parallel{run}" / "cache" / "eval_cache.jsonl").read_text().splitlines()
            assert len(lines) == distinct
    finally:
        sys.setswitchinterval(interval)


def test_shared_cache_is_keyed_by_the_evaluator(workdir, monkeypatch, capsys):
    paths = _one_layer_inputs(workdir)
    monkeypatch.setenv("HIMERGE_CACHE_DIR", str(workdir / "shared"))
    for value in (0.25, 0.75):
        out = workdir / f"out-{value}"
        argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"],
                "--eval-a", json.dumps({"builtin": "constant", "value": value}),
                "--p-values", "0.5", "--s-values", "1", "--out", str(out)]
        assert main(argv) == 0
        assert _invocations(capsys.readouterr().err) == 1
        with open(out / "sweep.csv", newline="") as fh:
            assert [row["score"] for row in csv.DictReader(fh)] == [repr(value)]


@pytest.mark.parametrize("verb", ["delta", "sweep"])
@pytest.mark.parametrize("message", ["Unable to allocate 8.00 EiB for an array", ""])
def test_memory_error_is_exit_2_without_traceback(workdir, monkeypatch, capsys, verb, message):
    paths = _one_layer_inputs(workdir)

    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(himerge.cli, "compute_delta", exhausted)
    argv = [verb, "--base", paths["base"], "--model-a", paths["model_a"], "--out", str(workdir / "out")]
    if verb == "sweep":
        argv += ["--eval-a", json.dumps({"builtin": "constant", "value": 0.5})]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"error: out of memory: {message}\n" if message else "error: out of memory\n")


def test_failed_persist_leaves_no_partial_output_or_temp_file(workdir, capsys, monkeypatch):
    """A save that fails after the header, as on a full disk, leaves
    ``merged.safetensors`` absent or as it was, and no temp file."""
    paths = _one_layer_inputs(workdir)
    out = workdir / "out"
    argv = ["merge", "--method", "hi", "--base", paths["base"], "--model-a", paths["model_a"],
            "--model-b", paths["model_b"], "--eval-a", '{"builtin": "constant"}',
            "--eval-b", '{"builtin": "constant"}', "--out", str(out)]
    real_persist = himerge.resolver._persist

    def header_then_disk_full(cp, fh):
        fh.write(himerge.checkpoint._header_bytes(cp))
        raise OSError(errno.ENOSPC, "No space left on device")

    def persist_on_a_full_disk(result, out_dir):
        with monkeypatch.context() as m:
            m.setattr(himerge.checkpoint, "write_checkpoint", header_then_disk_full)
            real_persist(result, out_dir)

    def leftovers():
        return sorted(p.name for p in out.rglob("*") if p.name.startswith("."))

    with monkeypatch.context() as m:
        m.setattr(himerge.resolver, "_persist", persist_on_a_full_disk)
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "No space left on device" in err and "Traceback" not in err
    assert not (out / "merged.safetensors").exists()
    assert leftovers() == []

    assert main(argv) == 0
    merged = (out / "merged.safetensors").read_bytes()
    with monkeypatch.context() as m:
        m.setattr(himerge.resolver, "_persist", persist_on_a_full_disk)
        assert main(argv) == 2
    assert (out / "merged.safetensors").read_bytes() == merged
    assert leftovers() == []


# ---------------------------------------------------------------------------
# Inputs stay on disk: a run reads them again on each use
# ---------------------------------------------------------------------------


def _hi_run(workdir, out, parallel=1):
    """Back-dated inputs with a real conflict profile, and the argv of a hi
    merge on them."""
    base_cp, ma, mb, ta, tb = single_signal_instance(n_eval=300)
    paths = {}
    for name, cp in (("base", base_cp), ("model_a", ma), ("model_b", mb)):
        paths[name] = workdir / f"{name}.safetensors"
        save_checkpoint(cp, paths[name])
        backdate(paths[name])
    argv = ["merge", "--method", "hi", "--base", str(paths["base"]),
            "--model-a", str(paths["model_a"]), "--model-b", str(paths["model_b"]),
            "--p-a", "0.5", "--s-a", "0.5", "--p-b", "0.5", "--s-b", "0.5",
            "--eval-a", json.dumps(linear_spec(ta)), "--eval-b", json.dumps(linear_spec(tb)),
            "--parallel", str(parallel), "--out", str(out)]
    return paths, argv


def _tree(out):
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_every_delta_file_names_its_base_by_the_key_of_its_cache_lines(workdir, monkeypatch):
    """hi's processed and final deltas, and the delta verb's, record their
    base's fingerprint: the content hash that keys the base's (F's) lines in
    the evaluation cache, one per task."""
    monkeypatch.delenv("HIMERGE_CACHE_DIR", raising=False)
    paths, argv = _hi_run(workdir, workdir / "hi")
    assert main(argv) == 0
    assert main(["delta", "--base", str(paths["base"]), "--model-a", str(paths["model_a"]),
                 "--out", str(workdir / "delta")]) == 0
    base_fp = fingerprint(load_checkpoint(paths["base"]))
    written = sorted((workdir / "hi").glob("delta_*.safetensors"))
    assert [path.name for path in written] == [
        f"delta_{m}_{stage}.safetensors" for m in "ab" for stage in ("final", "processed")
    ]
    for path in [*written, workdir / "delta" / "delta.safetensors"]:
        assert load_checkpoint(path).metadata["base_fingerprint"] == base_fp, path
    lines = (workdir / "hi" / "cache" / "eval_cache.jsonl").read_text().splitlines()
    tasks = sorted(entry["task_id"] for entry in map(json.loads, lines) if entry["key"] == base_fp)
    assert tasks == ["A", "B"]


def _disturb_at_analysis(monkeypatch, path, disturb):
    """Change ``path`` once the run has loaded it and computed the deltas,
    just before the conflict analysis reads model A again."""
    real = himerge.resolver.conflict_profile

    def disturbed(*args, **kwargs):
        disturb(path)
        monkeypatch.setattr(himerge.resolver, "conflict_profile", real)
        return real(*args, **kwargs)

    monkeypatch.setattr(himerge.resolver, "conflict_profile", disturbed)


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("disturb", [truncate_by_one, rewrite_in_place])
def test_an_input_changed_during_the_run_is_exit_2_naming_it(
    workdir, capsys, monkeypatch, disturb, parallel
):
    paths, argv = _hi_run(workdir, workdir / "out", parallel)
    _disturb_at_analysis(monkeypatch, paths["model_a"], disturb)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage analysis: ")
    assert f"{paths['model_a']}: the file changed after it was loaded" in err
    assert "Traceback" not in err
    assert not (workdir / "out" / "merged.safetensors").exists()


@pytest.mark.parametrize("parallel", [1, 2])
def test_a_processed_delta_changed_during_the_run_is_exit_2_naming_it(
    workdir, capsys, monkeypatch, parallel
):
    """The run reads the processed deltas back from their files on use, so
    those are checked like the inputs.  A truncation changes the size, which
    a rewrite this soon after the save might not do to the mtime."""
    out = workdir / "out"
    _, argv = _hi_run(workdir, out, parallel)
    processed = out / "delta_b_processed.safetensors"
    _disturb_at_analysis(monkeypatch, processed, truncate_by_one)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: stage analysis: ")
    assert f"{processed}: the file changed after it was loaded" in err
    assert "Traceback" not in err
    assert not (out / "merged.safetensors").exists()


def test_an_input_replaced_by_rename_during_the_run_changes_nothing(workdir, monkeypatch):
    paths, argv = _hi_run(workdir, workdir / "calm")
    assert main(argv) == 0
    calm = _tree(workdir / "calm")

    def replace_with_another_model(path):
        other = workdir / "other.safetensors"
        save_checkpoint(random_checkpoint(np.random.default_rng(3)), other)
        os.replace(other, path)

    argv[argv.index("--out") + 1] = str(workdir / "replaced")
    _disturb_at_analysis(monkeypatch, paths["model_a"], replace_with_another_model)
    assert main(argv) == 0
    assert _tree(workdir / "replaced") == calm
    assert load_checkpoint(paths["model_a"]).names != load_checkpoint(paths["base"]).names


def test_stale_temp_files_are_removed_and_other_files_kept(workdir):
    """A temp file names itself: any .<name>.<8 hex>.himerge-tmp goes, even
    of a name no command writes, and every other file stays, including the
    .<name>.<8 hex>.tmp that versions before the himerge-tmp form left."""
    paths, argv = _hi_run(workdir, workdir / "out")
    out = workdir / "out"
    out.mkdir()
    stale = [out / ".merged.safetensors.deadbeef.himerge-tmp",
             out / ".extra.safetensors.0123abcd.himerge-tmp"]
    kept = [out / ".notes.tmp", out / ".x.deadbeef.tmp", out / ".merged.safetensors.deadbeef.tmp",
            out / "notes.himerge-tmp"]
    for path in stale + kept:
        path.write_text("half a file")
    assert main(argv) == 0
    assert not any(path.exists() for path in stale)
    assert all(path.read_text() == "half a file" for path in kept)


# A stdlib-only evaluator (starting numpy would take most of the test's
# time): -(Σ_t c_t·sum(tensor t) − 1)², c_t fixed per task and tensor name,
# so layers interact and the resolver acts.  argv: checkpoint, task, state
# directory.  Each call appends a byte to <state>/calls; the call whose
# count is in <state>/kill_at writes its pid to <state>/stalled and sleeps.
# <state>/die_at holds a count and "exit" or "kill": the call with that
# count removes the file, so it fires once, and exits 1 or SIGKILLs itself.
CRASH_EVALUATOR = """
import array, json, os, signal, sys, time, zlib
path, task, state = sys.argv[1:4]
with open(os.path.join(state, "calls"), "ab") as fh:
    fh.write(b"x")
    calls = fh.tell()
kill_at = os.path.join(state, "kill_at")
if os.path.exists(kill_at) and int(open(kill_at).read()) == calls:
    with open(os.path.join(state, "stalled.tmp"), "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(os.path.join(state, "stalled.tmp"), os.path.join(state, "stalled"))
    time.sleep(60)
die_at = os.path.join(state, "die_at")
if os.path.exists(die_at):
    at, how = open(die_at).read().split()
    if int(at) == calls:
        os.unlink(die_at)
        if how == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        sys.exit("the evaluator failed on purpose")
with open(path, "rb") as fh:
    blob = fh.read()
n = int.from_bytes(blob[:8], "little")
header = json.loads(blob[8:8 + n])
total = 0.0
for name, info in sorted(header.items()):
    if name != "__metadata__":
        start, end = info["data_offsets"]
        weight = zlib.crc32(f"{task}/{name}".encode()) / 2**31 - 1
        total += weight * sum(array.array("f", blob[8 + n + start:8 + n + end]))
print(json.dumps({"score": -(total - 1.0) ** 2}))
"""


class _CrashInputs:
    """Two layers of inputs, and the argv of a ``--recompute`` hi merge on
    them scored by CRASH_EVALUATOR with its state in <workdir>/state."""

    def __init__(self, workdir):
        rng = np.random.default_rng(0)
        names = [f"model.layers.{layer}.{m}" for layer in range(2) for m in ("k", "v")]
        base = {name: dyadic_random(rng, (8, 8)) for name in names}
        for model in ("model_a", "model_b"):
            noisy = {name: w + dyadic_random(rng, (8, 8), span=512) for name, w in base.items()}
            save_checkpoint(checkpoint_from_arrays(noisy), workdir / f"{model}.safetensors")
        save_checkpoint(checkpoint_from_arrays(base), workdir / "base.safetensors")
        self.workdir, self.state = workdir, workdir / "state"
        self.state.mkdir()
        self.script = workdir / "evaluator.py"
        self.script.write_text(CRASH_EVALUATOR)

    def argv(self, out):
        paths = {m: str(self.workdir / f"{m}.safetensors") for m in ("base", "model_a", "model_b")}
        a, b = (
            f"{sys.executable} -S {self.script} {{checkpoint}} {task} {self.state}" for task in "AB"
        )
        return ["merge", "--method", "hi", "--recompute", *_hi_args(paths, a, b), "--out", str(out)]

    def calls(self):
        return os.path.getsize(self.state / "calls")


class _CrashRun(_CrashInputs):
    """The _CrashInputs merge, run once uninterrupted into <workdir>/whole.
    ``in_resolution`` is the count of the evaluator's second call in the
    resolution stage."""

    def __init__(self, workdir, monkeypatch):
        super().__init__(workdir)
        # Uninterrupted, counting the calls made before the resolution stage.
        before_resolution = []
        real_iterate = himerge.resolver.iterate

        def counted_iterate(*args, **kwargs):
            before_resolution.append(self.calls())
            return real_iterate(*args, **kwargs)

        monkeypatch.setattr(himerge.resolver, "iterate", counted_iterate)
        assert main(self.argv(workdir / "whole")) == 0
        monkeypatch.undo()
        self.uninterrupted = self.calls()
        self.in_resolution = before_resolution[0] + 2
        assert self.uninterrupted >= self.in_resolution, "the resolver must evaluate twice"
        (self.state / "calls").unlink()

    def assert_resumed(self, out, capsys):
        """A plain rerun in ``out`` evaluates only what the cache lacks and
        writes what the uninterrupted run wrote, and nothing else."""
        committed = len((out / "cache" / "eval_cache.jsonl").read_text().splitlines())
        (self.state / "calls").unlink()
        capsys.readouterr()
        assert main(self.argv(out)) == 0
        assert self.calls() == self.uninterrupted - committed
        assert f"evaluator invocations: {self.uninterrupted - committed} " in capsys.readouterr().err
        assert _tree(out) == _tree(self.workdir / "whole")  # merged.safetensors and the cache too
        assert not list(out.rglob("*.himerge-tmp"))
        assert not (out / ".himerge.lock").exists()
        return committed


def test_a_run_killed_in_resolution_is_resumed_by_a_plain_rerun(workdir, monkeypatch, capsys):
    """SIGKILL a ``--recompute`` hi merge while its evaluator is busy in
    the resolution stage, then rerun it in the same --out: the rerun takes
    the lock by itself, removes the candidate file the killed run left,
    evaluates only what the killed run did not commit to the cache, and
    writes what an uninterrupted run writes."""
    crash = _CrashRun(workdir, monkeypatch)
    state = crash.state
    (state / "kill_at").write_text(str(crash.in_resolution))
    out = workdir / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(himerge.__file__).parents[1]), TMPDIR=str(state))
    run = subprocess.Popen(
        [sys.executable, "-m", "himerge.cli", *crash.argv(out)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not (state / "stalled").exists():
            assert run.poll() is None, run.communicate()
            assert time.monotonic() < deadline, "the evaluator never stalled"
            time.sleep(0.01)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        # The evaluator leads its own process group.
        with contextlib.suppress(FileNotFoundError, ProcessLookupError):
            os.killpg(int((state / "stalled").read_text()), signal.SIGKILL)
    assert (out / ".himerge.lock").exists()
    assert list(out.glob(".cand-*.himerge-tmp"))  # the candidate its evaluator had open
    (state / "kill_at").unlink()
    assert crash.assert_resumed(out, capsys) == crash.in_resolution - 1
    # The rerun removed it, and the killed run left none in its $TMPDIR.
    assert not list(state.rglob("*cand-*")) and not list(out.rglob("*cand-*"))


@pytest.mark.parametrize("how", ["exit", "kill"])
def test_an_evaluator_that_dies_in_resolution_is_resumed_by_a_plain_rerun(
    workdir, monkeypatch, capsys, how
):
    """The evaluator exits 1, or SIGKILLs itself, once, in the resolution
    stage of a ``--recompute`` hi merge: the run is exit 3 and leaves the
    actions taken so far in resolution_log.partial.jsonl.  A plain rerun,
    with the same evaluator command, resumes from the cache, and its
    --out then matches an uninterrupted run's: the partial log is gone."""
    crash = _CrashRun(workdir, monkeypatch)
    (crash.state / "die_at").write_text(f"{crash.in_resolution} {how}")
    out = workdir / "out"
    capsys.readouterr()
    assert main(crash.argv(out)) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluator error: stage resolution: task ")
    assert ("the evaluator failed on purpose" in err) == (how == "exit")
    assert "Traceback" not in err
    assert not (crash.state / "die_at").exists()
    partial = (out / "resolution_log.partial.jsonl").read_text().splitlines()
    whole = (workdir / "whole" / "resolution_log.jsonl").read_text().splitlines()
    assert partial and partial == whole[: len(partial)]
    assert not (out / "merged.safetensors").exists()
    assert crash.assert_resumed(out, capsys) == crash.in_resolution - 1
    assert not (out / "resolution_log.partial.jsonl").exists()


def _kept_candidates(out):
    """The files in <out>/candidates, each checked to be a whole checkpoint
    named by its fingerprint."""
    kept = sorted((out / "candidates").iterdir())
    for path in kept:
        assert path.name == f"cand-{fingerprint(load_checkpoint(path))}.safetensors"
    return kept


def _distinct(err: str) -> int:
    return int(err.split("distinct checkpoints: ")[1].split(")")[0])


def test_keep_candidates_keeps_each_distinct_candidate_once(workdir, capsys):
    """A candidate that both tasks score (the references, G's layer
    candidates) is kept once, under its fingerprint's name."""
    out = workdir / "out"
    capsys.readouterr()
    assert main(_CrashInputs(workdir).argv(out) + ["--keep-candidates"]) == 0
    err = capsys.readouterr().err
    assert _invocations(err) > _distinct(err)
    assert len(_kept_candidates(out)) == _distinct(err)
    assert not list(out.rglob("*.himerge-tmp"))


# Runs cli.main with argv[1:], but the first candidate file written gets
# only half its bytes, and then the process exits at once.
HALF_WRITER = """
import os, sys
import himerge.evaluation
from himerge.checkpoint import checkpoint_to_bytes
from himerge.cli import main

def write_half_and_exit(cp, fh):
    blob = checkpoint_to_bytes(cp)
    fh.write(blob[: len(blob) // 2])
    fh.flush()
    os._exit(9)

himerge.evaluation.write_checkpoint = write_half_and_exit
sys.exit(main(sys.argv[1:]))
"""


def test_a_run_killed_writing_a_kept_candidate_leaves_no_partial_one(workdir, capsys):
    """A kept candidate is whole or absent: the killed run leaves only its
    temp file, and a plain rerun removes that and keeps every candidate."""
    out = workdir / "out"
    argv = _CrashInputs(workdir).argv(out) + ["--keep-candidates"]
    env = dict(os.environ, PYTHONPATH=str(Path(himerge.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", HALF_WRITER, *argv], env=env, capture_output=True, timeout=60
    )
    assert run.returncode == 9, run.stderr
    assert not list(out.rglob("cand-*.safetensors"))
    assert list((out / "candidates").glob(".cand-*.himerge-tmp"))  # the half-written one
    capsys.readouterr()
    assert main(argv) == 0
    assert not list(out.rglob("*.himerge-tmp"))
    assert len(_kept_candidates(out)) == _distinct(capsys.readouterr().err)


def _hi_args(paths, eval_a, eval_b=None):
    return [
        "--base", paths["base"], "--model-a", paths["model_a"], "--model-b", paths["model_b"],
        "--eval-a", eval_a, "--eval-b", eval_b or eval_a,
    ]


DEEP = "[" * 50_000 + "]" * 50_000


@pytest.mark.parametrize("case", ["config not UTF-8", "config nested deep", "eval spec nested deep"])
def test_json_the_cli_cannot_parse_is_a_usage_error_before_out_exists(workdir, capsys, case):
    paths = _one_layer_inputs(workdir)
    out, cfg = workdir / "out", workdir / "cfg.json"
    spec = '{"command": ' + DEEP + "}" if case == "eval spec nested deep" else json.dumps(LINEAR)
    argv = ["merge", "--method", "hi", *_hi_args(paths, spec), "--out", str(out)]
    if case != "eval spec nested deep":
        cfg.write_bytes(b'{"layer_rule": "\xff"}' if case == "config not UTF-8" else DEEP.encode())
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    what = "evaluator spec for A" if case == "eval spec nested deep" else "config file"
    assert err.startswith(f"usage error: {what} is ")
    assert not out.exists()


NOISY_STDERR = """
    import sys
    sys.stderr.buffer.write(b"\\xff not UTF-8\\n")
    print('{"score": 0.5}')
    """
BAD_STDOUT = """
    import sys
    sys.stdout.buffer.write(b'{"score": 0.\\xff5}\\n')
    """


def test_sweep_reads_evaluator_output_that_is_not_utf8(workdir, capsys, script_evaluator):
    paths = _one_layer_inputs(workdir)
    grid = ["--p-values", "0.5,1", "--s-values", "1"]
    for name, body in (("noisy", NOISY_STDERR), ("bad", BAD_STDOUT)):
        cmd = script_evaluator(body, name=f"{name}.py")
        out = workdir / name
        argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"], "--eval-a", cmd]
        assert main(argv + grid + ["--out", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        with open(out / "sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        if name == "noisy":
            assert [(r["score"], r["error"]) for r in rows] == [("0.5", "")] * 2
        else:
            assert all(r["score"] == "" and "not a single JSON object" in r["error"] for r in rows)


def test_hi_reads_evaluator_output_that_is_not_utf8(workdir, capsys, script_evaluator):
    paths = _one_layer_inputs(workdir)
    noisy = script_evaluator(NOISY_STDERR, name="noisy.py")
    assert main(["merge", "--method", "hi", *_hi_args(paths, noisy), "--out", str(workdir / "a")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    bad = script_evaluator(BAD_STDOUT, name="bad.py")
    assert main(["merge", "--method", "hi", *_hi_args(paths, bad), "--out", str(workdir / "b")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("evaluator error: stage analysis: task 'A': stdout is not a single JSON")
    assert "\ufffd" in err


@pytest.mark.parametrize(
    "body",
    ["""print('{"score": ' + '9' * 400 + '}')""", """print('[' * 100_000 + ']' * 100_000)"""],
    ids=["400-digit score", "100000-deep stdout"],
)
def test_stdout_that_yields_no_float_is_an_evaluator_error(workdir, capsys, script_evaluator, body):
    paths = _one_layer_inputs(workdir)
    cmd = script_evaluator(body)
    argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"], "--eval-a", cmd,
            "--p-values", "1", "--s-values", "1", "--out", str(workdir / "sweep")]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    with open(workdir / "sweep" / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["score"] == "" and row["error"].startswith("task 'A': ")
    for verb in (["analyze"], ["merge", "--method", "hi"]):
        assert main([*verb, *_hi_args(paths, cmd), "--out", str(workdir / verb[0])]) == 3
        err = capsys.readouterr().err
        assert err.startswith("evaluator error: stage analysis: task 'A': ")
        assert "Traceback" not in err


def test_timeout_at_the_cap_runs_an_external_evaluator(workdir, capsys, script_evaluator):
    paths = _one_layer_inputs(workdir)
    cmd = script_evaluator("""print('{"score": 0.5}')""")
    argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"], "--eval-a", cmd,
            "--p-values", "1", "--s-values", "1", "--timeout", "2147483", "--out", str(workdir / "out")]
    assert main(argv) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "0.5" in (workdir / "out" / "sweep.csv").read_text()


def test_a_spec_timeout_overrides_the_flag_and_shares_the_templates_cache(
    workdir, capsys, script_evaluator
):
    """``{"command": ..., "timeout": ...}`` runs the command with its own
    timeout, whatever ``--timeout`` says, and scores into the same cache
    lines as the bare template."""
    paths = _one_layer_inputs(workdir)
    slow = workdir / "slow"
    cmd = script_evaluator(f"""
        import os, time
        time.sleep(2 if os.path.exists({str(slow)!r}) else 0)
        print('{{"score": 0.5}}')
        """)
    argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"],
            "--p-values", "1", "--s-values", "1", "--timeout", "600", "--out", str(workdir / "out")]
    slow.touch()
    assert main([*argv, "--eval-a", json.dumps({"command": cmd, "timeout": 0.5})]) == 0
    capsys.readouterr()
    with open(workdir / "out" / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["error"] == "task 'A': evaluator timed out after 0.5s"
    slow.unlink()
    for spec, invocations in ((json.dumps({"command": cmd, "timeout": 5}), 1), (cmd, 0)):
        assert main([*argv, "--eval-a", spec]) == 0
        err = capsys.readouterr().err
        assert _invocations(err) == invocations and "Traceback" not in err
    assert "(cache hits: 1," in err
    with open(workdir / "out" / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["score"], row["error"]) == ("0.5", "")


def test_analyze_reports_an_evaluator_failure_as_hi_does(workdir, capsys, script_evaluator):
    paths = _one_layer_inputs(workdir)
    cmd = script_evaluator("import sys; print('no score', file=sys.stderr); sys.exit(1)")
    errors = {}
    for verb in (["analyze"], ["merge", "--method", "hi"]):
        assert main([*verb, *_hi_args(paths, cmd), "--out", str(workdir / verb[0])]) == 3
        errors[verb[0]] = capsys.readouterr().err
    assert errors["analyze"] == errors["merge"]
    assert errors["analyze"].startswith("evaluator error: stage analysis: task 'A': evaluator exited 1")


@pytest.mark.parametrize(
    "argv",
    [[], ["bogus"], ["merge", "--method", "bogus"]],
    ids=["no command", "unknown command", "unknown merge method"],
)
def test_a_missing_or_unknown_command_or_method_is_a_usage_error(workdir, capsys, argv):
    paths = _one_layer_inputs(workdir)
    out = workdir / "out"
    if argv:
        argv = [*argv, "--model-a", paths["model_a"], "--model-b", paths["model_b"], "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "Traceback" not in err
    assert not out.exists()


# (case, flags to change on a hi merge, config document, what the usage
# error says).  A flag set to None is left out; a flag value that names an
# input ("model_a") is that input's path.  The config "absent" is a path
# that does not exist.
USAGE_ERRORS = [
    ("no --out", {"--out": None}, None, "missing required option(s): --out"),
    ("--base is --model-a", {"--base": "model_a"}, None, "must be distinct"),
    ("no --eval-b", {"--eval-b": None}, None, "missing evaluator for task B (--eval-b)"),
    ("config absent", {}, "absent", "config file does not exist"),
    ("config a list", {}, [], "config file must contain a JSON object"),
    ("eval_a a number", {"--eval-a": None}, {"eval_a": 5},
     "evaluator spec for A must be a command or object"),
    ("unknown builtin", {"--eval-a": '{"builtin": "nope"}'}, None,
     "unknown builtin evaluator 'nope' for task A"),
    ("builtin keys missing", {"--eval-a": '{"builtin": "synthetic_linear", "seed": 1}'}, None,
     "bad builtin evaluator spec for A: "),
    ("NUL in a path", {"--base": None}, {"base": "base\0.safetensors"},
     "--base path holds a NUL character"),
]


@pytest.mark.parametrize("flags, doc, problem", [c[1:] for c in USAGE_ERRORS],
                         ids=[c[0] for c in USAGE_ERRORS])
def test_a_usage_error_names_its_cause_and_creates_nothing(workdir, capsys, flags, doc, problem):
    paths = _one_layer_inputs(workdir)
    spec = json.dumps(LINEAR)
    argv = {"--base": paths["base"], "--model-a": paths["model_a"], "--model-b": paths["model_b"],
            "--eval-a": spec, "--eval-b": spec, "--out": str(workdir / "out")}
    for flag, value in flags.items():
        argv[flag] = paths.get(value, value)
    if doc is not None:
        argv["--config"] = str(workdir / "cfg.json")
        if doc != "absent":
            (workdir / "cfg.json").write_text(json.dumps(doc))
    words = [word for flag, value in argv.items() if value is not None for word in (flag, value)]
    before = sorted(workdir.iterdir())
    assert main(["merge", "--method", "hi", *words]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and problem in err and "Traceback" not in err
    assert sorted(workdir.iterdir()) == before


# (layer rule, what the usage error says); the last one compiles to one
# group, which takes no part in the match on "model.layers.0.w".
BAD_LAYER_RULES = [
    ("(", "invalid layer rule '(': missing ), unterminated subpattern"),
    ("a{99999999999}", "invalid layer rule 'a{99999999999}': the repetition number is too large"),
    (r"layers\.(\d+)|model", f"matched {layer_name(0)!r} without its capture group"),
]


@pytest.mark.parametrize("verb", [["merge", "--method", "hi"], ["analyze"]], ids=["hi", "analyze"])
@pytest.mark.parametrize("rule, problem", BAD_LAYER_RULES, ids=["syntax", "repeat", "no part"])
def test_a_bad_layer_rule_is_a_usage_error(workdir, capsys, verb, rule, problem):
    """A rule that does not compile to one capture group fails before
    ``--out`` exists; one whose group takes no part in a match fails at
    the partition, before any delta is written, naming the rule and the
    tensor."""
    paths = _one_layer_inputs(workdir)
    out = workdir / "out"
    argv = [*verb, *_hi_args(paths, json.dumps(LINEAR)), "--layer-rule", rule, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and problem in err and "Traceback" not in err
    if "capture group" in problem:
        assert not list(out.glob("*.safetensors"))
    else:
        assert not out.exists()


@pytest.mark.parametrize("rule", ["(" * 100_000 + ")" * 100_000, "a" * 300_000 + "(b)(c)"],
                         ids=["nested deep", "two groups"])
def test_a_long_bad_layer_rule_is_shown_by_its_head_and_length(workdir, capsys, rule):
    paths = _one_layer_inputs(workdir)
    out = workdir / "out"
    argv = ["merge", "--method", "hi", *_hi_args(paths, json.dumps(LINEAR)),
            "--layer-rule", rule, "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "layer rule" in err
    assert len(err.encode()) < 400 and f"{rule[:200]!r}... ({len(rule)} characters)" in err
    assert not out.exists()


def _spelled_again(path: Path, how: str) -> str:
    """Another spelling of the existing file ``path``."""
    if how == "./":
        return f"{path.parent}/./{path.name}"
    if how == "d/../d/":
        return f"{path.parent}/../{path.parent.name}/{path.name}"
    link = path.with_name("link.safetensors")
    if how == "hard link":
        os.link(path, link)
    else:
        link.symlink_to(path)
    return str(link)


@pytest.mark.parametrize("how", ["./", "d/../d/", "symlink", "hard link"])
def test_two_spellings_of_one_file_are_not_distinct_paths(workdir, capsys, how):
    paths = _one_layer_inputs(workdir)
    base = Path(paths["base"])
    again = _spelled_again(base, how)
    out = workdir / "out"
    assert main(["delta", "--base", paths["base"], "--model-a", again, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be distinct" in err
    assert not out.exists()
    before = base.read_bytes()
    argv = ["merge", "--method", "arithmetic", "--base", paths["base"],
            "--model-a", paths["model_a"], "--model-b", paths["model_b"], "--out", again]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and "must be distinct" in err
    assert base.read_bytes() == before


def test_a_layer_index_that_holds_no_tensor_is_no_layer(workdir, capsys):
    """Layers 0 and 100000 are two layers, not 100001: the profile has two rows."""
    rng = np.random.default_rng(13)
    names = [layer_name(0), layer_name(100_000)]
    paths = {}
    for which in ("base", "model_a", "model_b"):
        cp = checkpoint_from_arrays({name: dyadic_random(rng, 4) for name in names})
        paths[which] = write_cp(workdir / f"{which}.safetensors", cp)
    out = workdir / "out"
    argv = ["merge", "--method", "hi", *_hi_args(paths, '{"builtin": "constant"}'),
            "--out", str(out)]
    assert main(argv) == 0
    doc = json.loads((out / "profile.json").read_text())
    assert [row["layer"] for row in doc["layers"]] == [0, 100_000]
    with open(out / "profile.csv") as fh:
        assert len(list(csv.DictReader(fh))) == 2


# Records its pid as a file name in the directory argv[2], then sleeps.
SLEEPING_EVALUATOR = """
import os, sys, time
open(os.path.join(sys.argv[2], str(os.getpid())), "w").close()
time.sleep(60)
"""

# Runs cli.main with argv[1:] under Python's own SIGINT handler, which
# Python leaves out when its parent ignores SIGINT (a shell's background job).
INTERRUPTIBLE_MAIN = """
import signal, sys
signal.signal(signal.SIGINT, signal.default_int_handler)
from himerge.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs: neither gone nor a zombie no one has reaped."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    with contextlib.suppress(FileNotFoundError):
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
    return False


@pytest.mark.parametrize("parallel", [1, 2])
def test_ctrl_c_kills_every_running_evaluator(workdir, parallel):
    """SIGINT while every --parallel slot runs a 60 s evaluator: the run
    ends within 5 s, and no evaluator it started outlives it."""
    paths = _one_layer_inputs(workdir)
    state = workdir / "state"
    state.mkdir()
    script = workdir / "sleeper.py"
    script.write_text(SLEEPING_EVALUATOR)
    argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"],
            "--eval-a", f"{sys.executable} -S {script} {{checkpoint}} {state}",
            "--p-values", "0,1", "--s-values", "1", "--parallel", str(parallel),
            "--out", str(workdir / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(himerge.__file__).parents[1]))
    run = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTIBLE_MAIN, *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    pids = []
    try:
        deadline = time.monotonic() + 30
        while len(pids) < parallel:
            assert run.poll() is None, run.communicate()
            assert time.monotonic() < deadline, "the evaluators never started"
            time.sleep(0.01)
            pids = [int(path.name) for path in state.iterdir()]
        os.kill(run.pid, signal.SIGINT)
        try:
            _, err = run.communicate(timeout=5)
        except subprocess.TimeoutExpired:
            pytest.fail("the run outlived Ctrl-C by 5 s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        survivors = [pid for pid in pids if _alive(pid)]
        for pid in survivors:  # each leads its own process group
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pid, signal.SIGKILL)
    assert len(pids) == parallel
    assert not survivors
    assert b"KeyboardInterrupt" in err
    assert not (workdir / "out" / "cache" / "eval_cache.jsonl").exists()


def _edited(blob: bytes, edits) -> bytes:
    """``blob`` with each (kind, position, byte) edit applied in turn; a
    position is taken modulo the length it may edit."""
    data = bytearray(blob)
    for kind, at, byte in edits:
        at %= len(data) + (kind == "insert")
        if kind == "overwrite":
            data[at] = byte
        elif kind == "delete":
            del data[at]
        else:
            data.insert(at, byte)
    return bytes(data)


def _small_container(rng) -> Checkpoint:
    return Checkpoint([
        record_from_array(layer_name(0), dyadic_random(rng, (4, 8)), "f32"),
        record_from_array(layer_name(1), dyadic_random(rng, 16), "f16"),
        record_from_array("head.w", dyadic_random(rng, 8), "bf16"),
    ])


FUZZ_BASE = _small_container(np.random.default_rng(21))
FUZZ_MODEL = checkpoint_to_bytes(_small_container(np.random.default_rng(22)))
# Half of the bytes written are digits, which reach the numbers in a JSON
# header or cache line.
BYTE_EDITS = st.lists(
    st.tuples(st.sampled_from(["overwrite", "delete", "insert"]), st.integers(0, 1 << 16),
              st.integers(0, 255) | st.integers(ord("0"), ord("9"))),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(BYTE_EDITS)
def test_a_damaged_model_file_gets_a_documented_exit_code(edits):
    """``delta`` on a model file with 1-4 bytes overwritten, deleted or
    inserted: main returns a documented exit code and raises nothing, and
    exit 0 means a delta file of finite values."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = write_cp(tmp / "base.safetensors", FUZZ_BASE)
        model = tmp / "model.safetensors"
        model.write_bytes(_edited(FUZZ_MODEL, edits))
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["delta", "--base", base, "--model-a", str(model), "--out", str(out)])
        assert code in (0, 1, 2, 3)
        if code == 0:
            delta = load_checkpoint(out / "delta.safetensors")
            for name in delta.names:
                assert np.isfinite(delta.as_f32(name)).all(), name


FUZZ_INPUTS = {"base": checkpoint_to_bytes(FUZZ_BASE), "model": FUZZ_MODEL}
# Each score is the largest float, so a larger digit in it or one more
# digit before its point or in its exponent makes it inf.
FUZZ_SWEEP = ["--eval-a", json.dumps({"builtin": "constant", "value": sys.float_info.max}),
              "--p-values", "0.5", "--s-values", "0.5,1"]


def _fuzz_sweep(tmp: Path, cache: bytes | None = None) -> tuple[int, str]:
    """``sweep`` on the fuzz inputs in ``tmp``, over ``cache`` if given, in
    process; its exit code and stderr."""
    paths = {}
    for name, blob in FUZZ_INPUTS.items():
        paths[name] = tmp / f"{name}.safetensors"
        paths[name].write_bytes(blob)
    if cache is not None:
        (tmp / "out" / "cache").mkdir(parents=True)
        (tmp / "out" / "cache" / "eval_cache.jsonl").write_bytes(cache)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["sweep", "--base", str(paths["base"]), "--model-a", str(paths["model"]),
                     *FUZZ_SWEEP, "--out", str(tmp / "out")])
    return code, err.getvalue()


@functools.cache
def _warm_sweep_cache() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        assert _fuzz_sweep(Path(tmp))[0] == 0
        return (Path(tmp) / "out" / "cache" / "eval_cache.jsonl").read_bytes()


@settings(max_examples=120, deadline=None)
@given(BYTE_EDITS)
def test_a_damaged_cache_file_gets_a_documented_exit_code(edits):
    """``sweep`` over its own warm cache with 1-4 bytes overwritten, deleted
    or inserted: main returns a documented exit code, prints no traceback,
    and exit 0 means a sweep.csv of finite scores.  (A torn last line is
    truncated; other damage is a data error or a miss.)"""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        code, err = _fuzz_sweep(tmp, _edited(_warm_sweep_cache(), edits))
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 0:
            with open(tmp / "out" / "sweep.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 2
            assert all(math.isfinite(float(row["score"])) for row in rows), rows


# -- config documents at the edges of each option's domain ---------------------

# JSON values at the ends of a type's domain and just outside them; an
# integer beyond the float range for a float.
EDGE_VALUES = {
    float: [0, 1, 0.0, -0.0, 1.0, 1.0000000000000002, -5e-324, -1, himerge.cli.MAX_TIMEOUT,
            himerge.cli.MAX_TIMEOUT + 1, math.nan, math.inf, -math.inf, 10**400],
    int: [0, 1, 2, -1],
    bool: [False, True],
    str: ["", "x"],
}
# An n_eval beyond numpy's largest dimension.
HUGE_N_EVAL = 10**30
# Command templates that do not split into words, or hold a NUL byte.
UNSPLITTABLE = ['/bin/sh "x {checkpoint}', "/bin/sh x {checkpoint} \\", "/bin/sh x\x00 {checkpoint}"]
# Values of the wrong JSON type for most options, and a group as a scalar.
WRONG_TYPES = [None, False, True, 0, 0.5, "0.5", [], [0.5], {}, {"x": 1}]
FUZZ_TARGETS = [layer_name(0), layer_name(1), "head.w", "absent"]


def _edge_value(kind, name: str = ""):
    """A strategy of edge values for one option or evaluator spec key."""
    wrong = st.sampled_from(WRONG_TYPES)
    if name == "target":
        return st.sampled_from(FUZZ_TARGETS) | wrong
    if name == "dim":
        return st.sampled_from([*EDGE_VALUES[int], 8, 16]) | wrong
    if name == "n_eval":  # and a count whose probe matrix numpy refuses to shape
        return st.sampled_from([*EDGE_VALUES[int], HUGE_N_EVAL]) | wrong
    if name == "targets":
        pair = st.tuples(st.sampled_from(FUZZ_TARGETS), st.sampled_from(EDGE_VALUES[int]))
        return st.lists(pair.map(list), max_size=2) | wrong
    if kind is object:  # an evaluator: a builtin spec, or a command that cannot run
        return _builtin_specs() | st.sampled_from(["", "x", "{checkpoint", *UNSPLITTABLE]) | wrong
    if kind == list[float]:
        return st.lists(st.sampled_from(EDGE_VALUES[float]), max_size=2) | wrong
    kinds = [k for k in get_args(kind) if k is not type(None)] or [kind]
    return st.sampled_from(EDGE_VALUES[kinds[0]] + [None] * (len(kinds) < len(get_args(kind)))) | wrong


@st.composite
def _builtin_specs(draw):
    cls = draw(st.sampled_from(sorted(himerge.evaluation.BUILTIN_TASKS.values(), key=lambda c: c.kind)))
    hints = get_type_hints(cls)
    spec = {"builtin": cls.kind}
    for f in fields(cls):
        if draw(st.integers(0, 9)):  # a key is sometimes missing
            spec[f.name] = draw(_edge_value(hints[f.name], f.name))
    if not draw(st.integers(0, 9)):
        spec["unknown"] = 1
    return spec


@st.composite
def config_documents(draw):
    """A config document over 0-4 ``RunConfig`` options, each at a top-level
    key or under its ``_GROUPS`` path, and sometimes a group given as a
    scalar.  Returns the document and the options it names."""
    hints = get_type_hints(RunConfig)
    grouped = dict(_grouped_keys(_GROUPS))
    doc, named = {}, set()
    for name in draw(st.lists(st.sampled_from(sorted(hints)), max_size=4, unique=True)):
        path = grouped[name] if name in grouped and draw(st.booleans()) else (name,)
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = draw(_edge_value(hints[name], name))
        named.add(name)
    if draw(st.integers(0, 3)) == 0:
        group = draw(st.sampled_from([(g,) for g in _GROUPS] + [("prune_scale", "a"), ("eval", "b")]))
        node = doc
        for key in group[:-1]:
            node = node.setdefault(key, {})
        node[group[-1]] = draw(st.sampled_from([w for w in WRONG_TYPES if not isinstance(w, dict)]))
    return doc, named


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory) -> Path:
    """The fuzz inputs, written once for every example of the slice."""
    tmp = tmp_path_factory.mktemp("fuzz")
    for name, blob in FUZZ_INPUTS.items():
        (tmp / f"{name}.safetensors").write_bytes(blob)
    return tmp


@settings(max_examples=150, deadline=None)
@given(config_documents())
# Probe matrices numpy refuses: a dimension beyond its range, and a byte
# size beyond it.  Each sweep cell records an evaluator error.
@example(({"eval_a": {"builtin": "synthetic_linear", "seed": 0, "dim": 16, "n_eval": HUGE_N_EVAL,
                      "target": layer_name(1)}}, {"eval_a"}))
@example(({"eval_a": {"builtin": "synthetic_composite", "probe_seed": 0, "n_eval": 2**60,
                      "targets": [[layer_name(1), 0]]}}, {"eval_a"}))
@example(({"eval_a": UNSPLITTABLE[0]}, {"eval_a"}))
@example(({"eval_a": UNSPLITTABLE[2]}, {"eval_a"}))
def test_a_config_document_at_the_domain_edges_gets_a_documented_exit_code(fuzz_inputs, case):
    """``sweep --config`` with a generated document: main returns a
    documented exit code and prints no traceback.  Exit 0 means a sweep.csv
    whose every row holds a finite score, or instead the evaluator error
    that sweep records for that cell (a target that is absent or of another
    length), which names the task.  A grid the document does not set is
    one or two values on the command line, and so is an evaluator."""
    doc, named = case
    extra = []
    if "eval_a" not in named:
        extra += ["--eval-a", '{"builtin": "constant"}']
    for grid, text in (("p_values", "0.5"), ("s_values", "0.5,1")):
        if grid not in named:
            extra += ["--" + grid.replace("_", "-"), text]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "config.json").write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(tmp / "config.json"),
                         "--base", str(fuzz_inputs / "base.safetensors"),
                         "--model-a", str(fuzz_inputs / "model.safetensors"),
                         "--out", str(tmp / "out"), *extra])
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            with open(tmp / "out" / "sweep.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert rows
            for row in rows:
                assert (row["score"] == "") != (row["error"] == ""), row
                assert row["error"] or math.isfinite(float(row["score"])), row
                assert not row["error"] or row["error"].startswith("task 'A': "), row


@pytest.mark.parametrize("where", ["config", "eval"])
def test_an_integer_too_long_to_convert_is_a_usage_error(workdir, capsys, fuzz_inputs, where):
    """json reads an integer of more than 4300 digits as a ValueError that
    is not a JSONDecodeError; in a config file or an evaluator spec it is a
    usage error."""
    digits = "1" * 5000
    argv = ["sweep", "--base", str(fuzz_inputs / "base.safetensors"),
            "--model-a", str(fuzz_inputs / "model.safetensors"), "--out", str(workdir / "out")]
    if where == "config":
        (workdir / "config.json").write_text('{"parallel": %s}' % digits)
        argv += ["--config", str(workdir / "config.json"), "--eval-a", '{"builtin": "constant"}']
    else:
        argv += ["--eval-a", '{"builtin": "constant", "value": %s}' % digits]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("verb", ["sweep", "hi"])
@pytest.mark.parametrize("n_eval", [HUGE_N_EVAL, 2**60])
def test_a_probe_matrix_numpy_refuses_is_an_evaluator_error(workdir, capsys, verb, n_eval):
    """A builtin whose probe matrix numpy refuses to shape fails its
    evaluation: exit 3 for a hi merge, an error row in a sweep.  Either
    message names the task."""
    paths = _one_layer_inputs(workdir)
    spec = json.dumps({**LINEAR, "n_eval": n_eval})
    out = workdir / "out"
    if verb == "sweep":
        argv = ["sweep", "--base", paths["base"], "--model-a", paths["model_a"], "--eval-a", spec,
                "--p-values", "0.5", "--s-values", "1"]
    else:
        argv = ["merge", "--method", "hi", *_hi_args(paths, spec)]
    code = main([*argv, "--out", str(out)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    problem = f"synthetic_linear: cannot draw a probe matrix of shape ({n_eval}, 32)"
    if verb == "sweep":
        assert code == 0
        with open(out / "sweep.csv") as fh:
            (row,) = csv.DictReader(fh)
        assert row["score"] == "" and row["error"].startswith(f"task 'A': {problem}")
    else:
        assert code == 3 and err.startswith("evaluator error: ") and problem in err


# -- a stub evaluator's stdout, stderr and exit code ----------------------------

# Stdout at the edges of what an evaluator's reply can hold: scores at the
# float edges and beyond them, integers too long for a float or for json,
# deep nesting, bytes that are not UTF-8, nothing, and extra lines.
FINITE_EDGE_SCORES = ["0", "-0.0", "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-400",
                      "1.7976931348623157e308", "-1.7976931348623157e308", "-1e308"]
STUB_STDOUT = st.sampled_from([
    *(b'{"score": %s}\n' % score.encode() for score in [
        *FINITE_EDGE_SCORES, "1e309", "-1e400", "NaN", "Infinity", "-Infinity",
        "9" * 400, "-" + "9" * 400, "1" * 5000, "true", '"0.5"', "null"]),
    b"[" * 50_000 + b"]" * 50_000,
    b'{"score": ' + b"[" * 50_000 + b"]" * 50_000 + b"}",
    b'{"score": 0.\xff5}\n',
    b"\xff\xfe",
    b"",
    b'{"score": 0.5}\n{"score": 0.5}\n',
    b'{"score": 0.5}\nan extra line\n',
    b'\n\n{"score": 0.25}\n\n',
    b"[0.5]\n",
])
STUB_STDERR = st.sampled_from([b"", b"a warning\n", b"\xff\xfe not UTF-8\n", b"x" * 5000])
# A reply is stdout, stderr, and an exit code or "kill" (the stub SIGKILLs
# itself).  Half the replies are a finite score and exit 0, so a run with
# several evaluator calls often gets past them all.
GOOD_REPLY = st.tuples(
    st.sampled_from([b'{"score": %s}\n' % score.encode() for score in FINITE_EDGE_SCORES]),
    STUB_STDERR, st.just(0),
)
ANY_REPLY = st.tuples(STUB_STDOUT, STUB_STDERR, st.sampled_from([0, 1, 2, 137, "kill"]))
STUB_REPLIES = st.lists(GOOD_REPLY | ANY_REPLY, min_size=1, max_size=3)


def _stub_evaluator(tmp: Path, replies) -> str:
    """A /bin/sh evaluator command whose n-th call (from 0) replays reply
    n mod len(replies): its stdout and stderr bytes, then its exit code or
    a SIGKILL of itself."""
    lines = ['d=$(dirname "$0")', 'n=$(cat "$d/calls" 2>/dev/null || echo 0)',
             'echo $((n + 1)) > "$d/calls"', f"case $((n % {len(replies)})) in"]
    for i, (stdout, stderr, end) in enumerate(replies):
        (tmp / f"stdout{i}").write_bytes(stdout)
        (tmp / f"stderr{i}").write_bytes(stderr)
        end = "kill -KILL $$" if end == "kill" else f"exit {end}"
        lines.append(f'{i}) cat "$d/stdout{i}"; cat "$d/stderr{i}" >&2; {end};;')
    (tmp / "stub.sh").write_text("\n".join([*lines, "esac"]) + "\n")
    return f"/bin/sh {shlex.quote(str(tmp / 'stub.sh'))} {{checkpoint}}"


def _finite_json_number(text: str) -> float:
    value = float(text)
    assert math.isfinite(value), text
    return value


def _reject_constant(name: str):
    raise AssertionError(f"{name} in a JSON output")


def _assert_finite_outputs(out: Path) -> None:
    """Every tensor, JSON number and CSV score or profile number under
    ``out`` is finite."""
    for path in sorted(out.rglob("*")):
        if path.suffix == ".safetensors":
            cp = load_checkpoint(path)
            for name in cp.names:
                assert np.isfinite(cp.as_f32(name)).all(), (path.name, name)
        elif path.suffix in (".json", ".jsonl"):
            text = path.read_text()
            for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
                json.loads(doc, parse_float=_finite_json_number, parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            with open(path) as fh:
                for row in csv.DictReader(fh):
                    for key, cell in row.items():
                        if key not in ("layer", "error") and cell:
                            assert math.isfinite(float(cell)), (path.name, row)
                    if "error" in row:
                        assert (row["score"] == "") != (row["error"] == ""), row


@pytest.fixture(scope="module")
def stub_paths(tmp_path_factory) -> dict:
    """One-layer inputs, written once for every example of the slice."""
    return _one_layer_inputs(tmp_path_factory.mktemp("stub-fuzz"))


@pytest.mark.parametrize("verb", ["sweep", "hi"])
@settings(max_examples=40, deadline=None)
@given(replies=STUB_REPLIES)
# Finite scores whose differences overflow: A's deletion impact is inf.
@example(replies=[(b'{"score": %s}' % score, b"", 0)
                  for score in (b"-1.7976931348623157e308", b"1.7976931348623157e308", b"0")])
@example(replies=[(b"", b"", "kill")])
def test_a_stub_evaluators_reply_gets_a_documented_exit_code(stub_paths, verb, replies):
    """A one-cell ``sweep`` or a one-layer ``merge --method hi`` whose
    evaluator replays generated replies in turn: main returns a documented
    exit code and prints no traceback, and exit 0 means finite outputs."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cmd = _stub_evaluator(tmp, replies)
        if verb == "sweep":
            argv = ["sweep", "--base", stub_paths["base"], "--model-a", stub_paths["model_a"],
                    "--eval-a", cmd, "--p-values", "0.5", "--s-values", "1"]
        else:
            argv = ["merge", "--method", "hi", *_hi_args(stub_paths, cmd)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*argv, "--out", str(tmp / "out")])
        event(f"exit {code}")
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if code == 0:
            _assert_finite_outputs(tmp / "out")


@pytest.mark.parametrize("verb", ["sweep", "hi"])
@pytest.mark.parametrize("template", UNSPLITTABLE)
def test_a_template_that_cannot_run_is_a_usage_error_before_out_exists(
    stub_paths, capsys, tmp_path, verb, template
):
    """A command template with an unclosed quote, a trailing backslash or a
    NUL byte fails config checking, so a hi merge writes no delta first."""
    if verb == "sweep":
        argv = ["sweep", "--base", stub_paths["base"], "--model-a", stub_paths["model_a"],
                "--eval-a", template]
    else:
        argv = ["merge", "--method", "hi", *_hi_args(stub_paths, template)]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: evaluator command for task 'A' ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# Each run's verb, and its main output under --out, whose path is the one
# line it prints on stdout.
PRINTED = [
    (["delta"], "delta.safetensors"),
    (["merge", "--method", "soups"], "merged.safetensors"),
    (["merge", "--method", "arithmetic"], "merged.safetensors"),
    (["merge", "--method", "hi"], "merged.safetensors"),
    (["analyze"], "profile.json"),
    (["sweep"], "sweep.csv"),
]
EVALUATING = ("hi", "analyze", "sweep")  # the runs that report their evaluator invocations


def _printing_args(workdir, eval_spec='{"builtin": "constant", "value": 0.5}'):
    """Options any verb takes: all three inputs, both evaluators and a one-cell grid."""
    paths = _one_layer_inputs(workdir)
    return [*_hi_args(paths, eval_spec), "--p-values", "0.5", "--s-values", "1"]


@pytest.mark.parametrize("verb, output", PRINTED, ids=[" ".join(v) for v, _ in PRINTED])
def test_a_run_prints_the_path_of_its_main_output_and_nothing_else(workdir, capsys, verb, output):
    out = workdir / "out"
    assert main([*verb, *_printing_args(workdir), "--out", str(out)]) == 0
    printed = capsys.readouterr()
    assert printed.out == f"{out / output}\n"
    assert (out / output).is_file()
    if verb[-1] in EVALUATING:
        assert printed.err.splitlines()[-1].startswith("evaluator invocations: ")


@pytest.mark.parametrize("verb", [v for v, _ in PRINTED], ids=[" ".join(v) for v, _ in PRINTED])
def test_a_failed_run_prints_nothing_on_stdout(workdir, capsys, script_evaluator, verb):
    args = [*verb, *_printing_args(workdir)]
    torn = workdir / "torn.safetensors"
    torn.write_bytes(b"\x01")
    runs = [
        (1, args),  # no --out
        (2, [*args, "--model-a", str(torn), "--out", str(workdir / "torn")]),
    ]
    if verb[-1] in ("hi", "analyze"):  # a sweep writes a cell's evaluator error in its row
        failing = script_evaluator("import sys; sys.exit(1)")
        runs.append((3, [*args, "--eval-a", failing, "--out", str(workdir / "failing")]))
    for code, argv in runs:
        assert main(argv) == code
        assert capsys.readouterr().out == ""


def test_a_fifo_input_is_a_data_error_not_a_wait_for_a_writer(workdir):
    """Opening a FIFO for reading blocks until something opens it for
    writing; a checkpoint input must be a regular file.  Run in a child
    process, so a run that waits fails the test at its timeout."""
    model = write_cp(workdir / "model.safetensors", checkpoint_from_arrays({"w": [1.0]}))
    fifo = workdir / "base.safetensors"
    os.mkfifo(fifo)
    out = workdir / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(himerge.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "himerge.cli", "delta", "--base", str(fifo), "--model-a", model,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert run.returncode == 2
    assert run.stderr == f"data error: cannot read {fifo}: [Errno 22] not a regular file\n"
    assert run.stdout == ""
    assert not out.exists()
