"""Output checks run on every timed CLI run, in the benchmark's own numpy code.

Each check returns a dict of facts that must repeat exactly across the
repetitions of one workload and seed (digests, counts), or raises
``CheckFailed``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import stio
from oracle_eval import composite_score


class CheckFailed(Exception):
    pass


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def retain_count(p: float, n: int) -> int:
    """ceil(p * n) for the decimal value of p."""
    return math.ceil(Fraction(repr(p)) * n)


def _load_f32(path) -> dict[str, np.ndarray]:
    header, raw = stio.read_file(path)
    return {name: stio.as_f32(header, raw, name) for name in header}


def check_hi(out: Path, inputs: dict[str, str], p: dict[str, float]) -> dict:
    """merged == bf16(f32(base + delta_a_final + delta_b_final)); processed
    deltas keep at most ceil(p * N) nonzeros; the resolution log parses and
    holds at least one DROP and one REPRUNE (the inputs plant both)."""
    facts = {}
    for name in ("merged.safetensors", "profile.json", "resolution_log.jsonl"):
        if not (out / name).is_file():
            raise CheckFailed(f"missing output {name}")
        facts[f"sha256:{name}"] = sha256(out / name)

    base = _load_f32(inputs["base"])
    n_params = sum(a.size for a in base.values())
    for model in ("a", "b"):
        processed = _load_f32(out / f"delta_{model}_processed.safetensors")
        nonzero = sum(int(np.count_nonzero(a)) for a in processed.values())
        limit = retain_count(p[model], n_params)
        if nonzero > limit:
            raise CheckFailed(f"delta_{model}_processed keeps {nonzero} > ceil(p*N) = {limit}")
        facts[f"nonzero_{model}"] = nonzero

    delta_a = _load_f32(out / "delta_a_final.safetensors")
    delta_b = _load_f32(out / "delta_b_final.safetensors")
    m_header, m_raw = stio.read_file(out / "merged.safetensors")
    if sorted(m_header) != sorted(base):
        raise CheckFailed("merged tensor names differ from the base")
    for name, b in base.items():
        acc = b.astype(np.float64) + delta_a[name].astype(np.float64) + delta_b[name].astype(np.float64)
        expected = stio.bf16_bits(acc.astype(np.float32))
        if m_header[name]["dtype"] != "BF16" or not np.array_equal(m_raw[name], expected):
            raise CheckFailed(f"merged tensor {name!r} is not base + delta_a + delta_b")

    log = (out / "resolution_log.jsonl").read_text().splitlines()
    kinds = [json.loads(line)["kind"] for line in log]
    for kind in ("DROP", "REPRUNE", "KEEP"):
        facts[f"actions_{kind.lower()}"] = kinds.count(kind)
    if not (facts["actions_drop"] and facts["actions_reprune"]):
        raise CheckFailed(f"the resolution took no DROP or no REPRUNE action: {kinds}")
    return facts


def _top_p(flat: np.ndarray, p: float) -> np.ndarray:
    k = retain_count(p, flat.size)
    kept = np.zeros_like(flat)
    idx = np.argsort(-np.abs(flat), kind="stable")[:k]
    kept[idx] = flat[idx]
    return kept


def check_sweep(out: Path, inputs: dict[str, str], spec: dict, grid: list[float], spot: list[tuple[float, float]]) -> tuple[dict, int]:
    """Every (p, s) cell present in order with a score and no error; the
    ``spot`` cells rescored from scratch.  Returns (facts, failed cells)."""
    path = out / "sweep.csv"
    if not path.is_file():
        raise CheckFailed("missing output sweep.csv")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cells = [(float(r["p"]), float(r["s"])) for r in rows]
    if cells != [(p, s) for p in grid for s in grid]:
        raise CheckFailed("sweep.csv does not list the grid in order")
    failed = sum(1 for r in rows if r["error"] or not r["score"])

    base = _load_f32(inputs["base"])
    model = _load_f32(inputs["model_a"])
    names = sorted(base)
    flat = np.concatenate([(model[n] - base[n]).reshape(-1) for n in names])
    offsets = np.cumsum([0] + [base[n].size for n in names])
    scores = {(float(r["p"]), float(r["s"])): r["score"] for r in rows}
    targets = [n for n, _ in spec["targets"]]
    for p, s in spot:
        delta = _top_p(flat, p) * np.float32(s)
        tensors = {}
        for n in targets:
            i = names.index(n)
            acc = base[n].astype(np.float64) + delta[offsets[i] : offsets[i + 1]].astype(np.float64)
            tensors[n] = stio.bf16_to_f32(stio.bf16_bits(acc.astype(np.float32)))
        expected = composite_score(spec, tensors)
        if scores[(p, s)] != repr(expected):
            raise CheckFailed(f"sweep cell p={p} s={s}: score {scores[(p, s)]} != {expected!r}")
    return {"sha256:sweep.csv": sha256(path)}, failed
