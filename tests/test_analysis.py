import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import emtauc.analysis
from emtauc import evaluation
from emtauc.analysis import (
    BenchmarkEntry,
    VERDICT_BETTER,
    VERDICT_SIMILAR,
    VERDICT_UNDECIDED,
    VERDICT_WORSE,
    compare_cells,
    landscape_similarity,
    run_benchmark,
    spearman_rho,
    stable_seed,
)
from emtauc.data import DataError, serialize_libsvm
from emtauc.solvers import SolverConfig

from _oracles import rank_sum_exact_p
from conftest import make_gaussian_dataset, make_separable_dataset


def test_spearman_hand_cases():
    assert spearman_rho([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)
    assert spearman_rho([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == pytest.approx(-1.0)
    assert spearman_rho([5.0, 1.0, 3.0], [50.0, 10.0, 30.0]) == 1.0


def test_spearman_rejects_degenerate_input():
    with pytest.raises(ValueError):
        spearman_rho([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        spearman_rho([1.0], [2.0])


def test_spearman_rejects_nan():
    for a, b in (([np.nan, 1.0, 2.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0])):
        with pytest.raises(ValueError, match="NaN"):
            spearman_rho(a, b)


def test_spearman_matches_scipy_with_ties():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.integers(5, 40)
        x = rng.integers(0, 6, size=n).astype(float)
        y = x + rng.integers(0, 4, size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        expected = scipy.stats.spearmanr(x, y).statistic
        assert spearman_rho(x, y) == pytest.approx(expected, abs=1e-12)


def test_compare_cells_exact_extremes():
    low = [0.1, 0.2, 0.3, 0.4, 0.5]
    high = [0.6, 0.7, 0.8, 0.9, 0.95]
    # candidate clearly better than baseline
    assert compare_cells(high, low) == VERDICT_BETTER
    assert compare_cells(low, high) == VERDICT_WORSE
    assert compare_cells(low, list(low)) == VERDICT_SIMILAR


def test_compare_cells_exact_p_matches_scipy():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.random(6)
        b = rng.random(6)
        ours = rank_sum_exact_p(a, b)
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
        assert ours == pytest.approx(ref, abs=1e-12)


def test_compare_cells_requires_five_per_side():
    with pytest.raises(ValueError):
        compare_cells([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0, 5.0])


def test_compare_cells_rejects_nan():
    low = [0.1, 0.2, 0.3, 0.4, 0.5]
    for a, b in (([np.nan, 0.7, 0.8, 0.9, 0.95], low), (low, [0.6, 0.7, np.nan, 0.9, 0.95])):
        with pytest.raises(ValueError, match="NaN"):
            compare_cells(a, b)


def test_compare_cells_normal_path():
    rng = np.random.default_rng(2)
    a = list(rng.normal(0.9, 0.01, size=20))
    b = list(rng.normal(0.6, 0.01, size=20))
    assert compare_cells(a, b) == VERDICT_BETTER
    assert compare_cells(b, a) == VERDICT_WORSE
    c = list(rng.normal(0.75, 0.01, size=20))
    d = list(rng.normal(0.75, 0.01, size=20))
    assert compare_cells(c, d) in (VERDICT_SIMILAR, VERDICT_BETTER, VERDICT_WORSE)
    assert compare_cells(c, c) == VERDICT_SIMILAR


# Runs a solve through the CLI in a fresh interpreter, then ranks: prints
# whether scipy.stats was loaded before and after ranking, and the results.
_LAZY_STATS_SCRIPT = """
import json, sys
import emtauc, emtauc.cli
config, cases = sys.argv[1], json.loads(sys.argv[2])
status = emtauc.cli.main(["run", "--config", config])
before = "scipy.stats" in sys.modules
rho = emtauc.spearman_rho(*cases["rho"])
verdicts = [emtauc.compare_cells(a, b) for a, b in cases["cells"]]
print(json.dumps([status, before, rho, verdicts, "scipy.stats" in sys.modules]))
"""


def _reference_verdict(a, b, alpha=0.05):
    method = "exact" if max(len(a), len(b)) <= 8 else "asymptotic"
    res = scipy.stats.mannwhitneyu(a, b, alternative="two-sided", method=method, use_continuity=False)
    if res.pvalue >= alpha:
        return VERDICT_SIMILAR
    return VERDICT_BETTER if res.statistic > len(a) * len(b) / 2 else VERDICT_WORSE


def test_scipy_stats_loads_only_when_ranking(tmp_path):
    data_path = tmp_path / "toy.libsvm"
    data_path.write_text(serialize_libsvm(make_gaussian_dataset(0, n_pos=30, n_neg=40, dim=4)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "dataset": str(data_path), "solver": {"kind": "mfea"}, "budget": 3000, "delta": 5,
        "seed": 7, "output_dir": str(tmp_path / "out"),
    }))
    rng = np.random.default_rng(3)
    x = rng.integers(0, 6, size=30).astype(float)
    y = x + rng.integers(0, 4, size=30)
    cells = [
        # exact path: one clear win, one loss with ties, one draw
        ([0.6, 0.7, 0.75, 0.8, 0.9, 0.95], [0.1, 0.2, 0.3, 0.4, 0.5, 0.65]),
        ([0.1, 0.2, 0.2, 0.3, 0.4], [0.3, 0.5, 0.6, 0.6, 0.7, 0.8]),
        (rng.random(7), rng.random(7)),
        # normal path with tied values: one win, one draw
        (np.round(rng.normal(0.8, 0.05, 20), 2), np.round(rng.normal(0.75, 0.05, 25), 2)),
        (np.round(rng.normal(0.7, 0.05, 12), 2), np.round(rng.normal(0.7, 0.05, 30), 2)),
    ]
    cells = [(list(map(float, a)), list(map(float, b))) for a, b in cells]
    src = str(Path(emtauc.analysis.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_STATS_SCRIPT, str(config), json.dumps({"rho": [x.tolist(), y.tolist()], "cells": cells})],
        capture_output=True, text=True, env=env, check=True, timeout=300,
    )
    status, before, rho, verdicts, after = json.loads(proc.stdout.splitlines()[-1])
    assert status == 0 and (tmp_path / "out" / "trace.csv").is_file()
    assert not before
    assert after
    assert rho == pytest.approx(scipy.stats.spearmanr(x, y).statistic, abs=1e-12)
    assert verdicts == [_reference_verdict(a, b) for a, b in cells]
    assert set(verdicts) == {VERDICT_BETTER, VERDICT_WORSE, VERDICT_SIMILAR}


def test_stable_seed_properties():
    a = stable_seed("alpha", 1)
    assert a == stable_seed("alpha", 1)
    assert a != stable_seed("alpha", 2)
    assert a != stable_seed("alpha1")
    assert 0 <= a < 2**63


def test_landscape_full_rate_is_perfect():
    ds = make_gaussian_dataset(0)
    rhos = landscape_similarity(ds, s="1", n_points=40, n_repeats=3, seed=5)
    assert rhos == (1.0, 1.0, 1.0)
    assert np.mean(rhos) == 1.0


def test_landscape_deterministic_and_free():
    ds = make_gaussian_dataset(1)
    r1 = landscape_similarity(ds, s="1/2", n_points=60, n_repeats=4, seed=6)
    r2 = landscape_similarity(ds, s="1/2", n_points=60, n_repeats=4, seed=6)
    assert r1 == r2
    assert len(r1) == 4
    assert all(-1.0 <= r <= 1.0 for r in r1)
    r3 = landscape_similarity(ds, s="1/2", n_points=60, n_repeats=4, seed=7)
    assert r3 != r1


def test_landscape_reasonable_rho_on_easy_data():
    ds = make_gaussian_dataset(2)
    rhos = landscape_similarity(ds, s="1/2", n_points=200, n_repeats=5, seed=8)
    assert np.mean(rhos) > 0.5


def _landscape_hex(ds, n_points):
    """The rhos of one landscape repeat as float.hex, and its traced peak."""
    tracemalloc.start()
    try:
        rhos = landscape_similarity(ds, "1/10", n_points=n_points, n_repeats=1, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return [rho.hex() for rho in rhos], peak


# 2000 x 4, 8000 nonzeros: its full view takes the certified BLAS path
CERTIFIED_SET = make_gaussian_dataset(9, n_pos=800, n_neg=1200, dim=4)


def test_landscape_peak_stops_growing_with_small_chunks(monkeypatch):
    ds = CERTIFIED_SET
    assert ds.full_view().dense_rows() is not None  # built here, so not part of any peak
    sizes = (100, 200, 400)
    one_chunk = {n: _landscape_hex(ds, n)[0] for n in sizes}
    monkeypatch.setattr(evaluation, "_CHUNK_BYTES", 25 * 8 * ds.n)  # 25 rows per chunk
    peaks = {}
    for n in sizes:
        rhos, peaks[n] = _landscape_hex(ds, n)
        assert rhos == one_chunk[n]
    # unchunked, every point adds its decision values (8 * n bytes) several times over
    assert peaks[400] - peaks[100] < 300 * 8 * ds.n // 4


def test_landscape_at_2000_points_peaks_at_one_chunk(monkeypatch):
    ds = CERTIFIED_SET
    ds.full_view().dense_rows()
    step = evaluation._CHUNK_BYTES // (8 * ds.n)
    assert step < 2000
    _, chunk_peak = _landscape_hex(ds, step)
    rhos, peak = _landscape_hex(ds, 2000)
    assert peak <= chunk_peak + (256 << 10)
    monkeypatch.setattr(evaluation, "_CHUNK_BYTES", 2000 * 8 * ds.n)
    assert rhos == _landscape_hex(ds, 2000)[0]


def _tiny_entries():
    return [
        BenchmarkEntry(label="ga", config=SolverConfig(kind="single_task_ga")),
        BenchmarkEntry(label="mfea", config=SolverConfig(kind="mfea")),
    ]


def test_run_benchmark_shapes_and_baseline():
    datasets = {"toy": make_separable_dataset(3)}
    summary = run_benchmark(
        datasets,
        _tiny_entries(),
        trials=2,
        folds=3,
        base_seed=9,
        budget=3000,
        baseline="ga",
    )
    assert [r.solver for r in summary.rows] == ["ga", "mfea"]
    assert all(r.dataset == "toy" for r in summary.rows)
    assert all(r.n == 6 for r in summary.rows)
    baseline_row = summary.rows[0]
    assert baseline_row.verdict == VERDICT_SIMILAR
    assert summary.rows[1].verdict in (
        VERDICT_BETTER,
        VERDICT_SIMILAR,
        VERDICT_WORSE,
    )
    assert len(summary.cells) == 2 * 2 * 3
    for cell in summary.cells:
        assert cell.error is None
        assert 0.0 <= cell.auc <= 1.0


def test_run_benchmark_default_baseline_is_first_entry():
    datasets = {"toy": make_separable_dataset(4)}
    summary = run_benchmark(
        datasets, _tiny_entries(), trials=1, folds=3, base_seed=10, budget=2000
    )
    assert summary.baseline == "ga"
    # three folds per cell is below the comparison threshold
    assert summary.rows[0].verdict == VERDICT_SIMILAR
    assert summary.rows[1].verdict == VERDICT_UNDECIDED


def test_run_benchmark_deterministic():
    datasets = {"toy": make_gaussian_dataset(5)}
    kwargs = dict(trials=1, folds=3, base_seed=11, budget=2500, baseline="ga")
    s1 = run_benchmark(datasets, _tiny_entries(), **kwargs)
    s2 = run_benchmark(datasets, _tiny_entries(), **kwargs)
    assert [c.auc for c in s1.cells] == [c.auc for c in s2.cells]
    assert [r.mean for r in s1.rows] == [r.mean for r in s2.rows]
    assert [c.seed for c in s1.cells] == [c.seed for c in s2.cells]


def test_run_benchmark_jobs_invariant():
    datasets = {"toy": make_gaussian_dataset(6)}
    kwargs = dict(trials=1, folds=3, base_seed=12, budget=2500)
    s1 = run_benchmark(datasets, _tiny_entries(), jobs=1, **kwargs)
    s2 = run_benchmark(datasets, _tiny_entries(), jobs=3, **kwargs)
    assert [c.auc for c in s1.cells] == [c.auc for c in s2.cells]


def test_run_benchmark_rejects_bad_budget_up_front():
    datasets = {"toy": make_gaussian_dataset(6)}
    for budget, message in ((0, "must be positive, got 0"), (True, "expected a positive number")):
        with pytest.raises(DataError, match=message):
            run_benchmark(datasets, _tiny_entries(), trials=1, folds=2, budget=budget)


def test_run_benchmark_pool_never_exceeds_cells(monkeypatch):
    # The recorder runs the cells in this process: no worker is started.
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize=1):
            return map(fn, jobs)

    monkeypatch.setattr(emtauc.analysis, "ProcessPoolExecutor", SerialPool)
    datasets = {"toy": make_gaussian_dataset(6)}
    kwargs = dict(trials=1, folds=2, base_seed=12, budget=1500)
    serial = run_benchmark(datasets, _tiny_entries(), jobs=1, **kwargs)
    pooled = run_benchmark(datasets, _tiny_entries(), jobs=64, **kwargs)
    assert asked == [4]
    assert pooled == serial
    run_benchmark(datasets, _tiny_entries(), jobs=3, **kwargs)
    assert asked == [4, 3]


def test_run_benchmark_tiny_budget_fails_only_the_multitask_cells():
    # At budget 3 the GA's first charged rows are expensive, while MFEA's and
    # EMEA's are cheap, so those two never archive an expensive solution.
    datasets = {"toy": make_gaussian_dataset(14)}
    entries = _tiny_entries() + [BenchmarkEntry(label="emea", config=SolverConfig(kind="emea"))]
    kwargs = dict(trials=1, folds=5, base_seed=15, budget=3)
    summary = run_benchmark(datasets, entries, jobs=1, **kwargs)
    ga, mfea, emea = summary.rows
    assert (ga.solver, ga.n, ga.verdict) == ("ga", 5, VERDICT_SIMILAR)
    for row in (mfea, emea):
        assert (row.n, row.mean, row.std, row.verdict) == (0, None, None, VERDICT_UNDECIDED)
    failed = [c for c in summary.cells if c.error is not None]
    assert [(c.solver, c.trial, c.fold) for c in failed] == [
        (label, 0, fold) for fold in range(5) for label in ("mfea", "emea")
    ]
    for cell in failed:
        assert cell.dataset == "toy"
        assert cell.seed == 15 ^ stable_seed("toy", cell.solver, cell.trial, cell.fold)
        assert cell.auc is None
        assert cell.error == "RuntimeError: budget too small for any expensive evaluation"
    assert run_benchmark(datasets, entries, jobs=2, **kwargs).cells == summary.cells


def test_run_benchmark_rejects_duplicate_labels():
    datasets = {"toy": make_gaussian_dataset(6)}
    entries = [
        BenchmarkEntry(label="ga", config=SolverConfig(kind="single_task_ga")),
        BenchmarkEntry(label="ga", config=SolverConfig(kind="mfea")),
    ]
    with pytest.raises(ValueError, match="duplicate entry labels"):
        run_benchmark(datasets, entries, trials=1, folds=2, budget=1500)


def test_run_benchmark_perfect_on_separable():
    datasets = {"toy": make_separable_dataset(7)}
    entries = [BenchmarkEntry(label="mfea", config=SolverConfig(kind="mfea"))]
    summary = run_benchmark(
        datasets, entries, trials=1, folds=3, base_seed=13, budget=40000
    )
    assert all(c.auc == 1.0 for c in summary.cells)
