"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Runs one round of a solver workload and of a sweep workload, untraced and
traced, on tiny generated data, and checks that every metric named in
BENCHMARK.json comes out and every output check passes.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from workloads import WORKLOADS, DataSpec, Sweep, generate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = DataSpec("tiny", n_pos=30, n_neg=40, dim=4)
TINY_WIDE = DataSpec("tiny-wide", n_pos=30, n_neg=40, dim=12, sep=0.3)


def _check(result, names):
    assert result["attempted"] >= 1
    assert result["failed"] == 0, result["notes"]
    assert set(result["metrics"]) == names


def _run(workload, tmp_path):
    paths = [str(generate(spec, 7, tmp_path)[0]) for spec in workload.data]
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    _check(harness.untraced_pass(workload, paths, 0.01, 7, tmp_path), end_to_end)
    _check(harness.traced_pass(workload, paths, 0.01, 7, tmp_path), per_layer)
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_solver_workload_tiny(tmp_path):
    base = WORKLOADS["paper-768x8-jobs2"]
    _run(replace(base, data=(TINY_WIDE,), setups=2, budget=3000, delta=2), tmp_path)


def test_sweep_workload_tiny(tmp_path):
    base = WORKLOADS["sweep-cv"]
    sweep = Sweep(entries=base.sweep.entries, trials=1, folds=2, workers=2)
    _run(replace(base, data=(TINY, TINY_WIDE), setups=2, budget=3000, delta=2, sweep=sweep), tmp_path)


def test_refuses_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".cache", ".out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cv", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout
