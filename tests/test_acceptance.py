"""End-to-end acceptance checks, one test per numbered criterion.

Criteria 1-7 are self-contained and always run. Criteria 8-11 reproduce
published desk-scale results on six small LIBSVM datasets and skip with an
explanation when the files are absent (run scripts/fetch_datasets.py on a
networked machine or point EMTAUC_DATA_DIR at existing copies).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from emtauc.analysis import (
    BenchmarkEntry,
    VERDICT_SIMILAR,
    VERDICT_WORSE,
    compare_cells,
    landscape_similarity,
    run_benchmark,
)
from emtauc.cli import main
from emtauc.data import as_rate, parse_libsvm_path, scale_features, serialize_libsvm
from emtauc.environment import CostLedger, TaskId, build_environment
from emtauc.evaluation import (
    auc_metric,
    evaluate,
    hardness_scores,
    pairwise_loss_count,
    select_hardest,
)
from emtauc.solvers import SolverConfig, dispatch_solver, fit_transfer_map

from _oracles import decision_values, hardness_naive, pair_loss_naive, select_hardest_naive
from conftest import (
    REAL_DATASETS,
    make_gaussian_dataset,
    make_separable_dataset,
    random_small_dataset,
    real_dataset_path,
    require_real_dataset,
)

# published mean test AUC for the five-by-five cross-validated multitask run
REFERENCE_AUC = {
    "diabetes": 0.826,
    "fourclass": 0.834,
    "german.numer": 0.784,
    "australian": 0.922,
    "sonar": 0.844,
    "svmguide3": 0.742,
}

SMALL_NAMES = tuple(REFERENCE_AUC)


def _load_real(name):
    return scale_features(parse_libsvm_path(require_real_dataset(name)))


def _require_all_small():
    missing = [n for n in SMALL_NAMES if real_dataset_path(n) is None]
    if missing:
        pytest.skip(
            "missing datasets: " + ", ".join(missing)
            + "; run scripts/fetch_datasets.py or set EMTAUC_DATA_DIR"
        )
    return {n: _load_real(n) for n in SMALL_NAMES}


def test_criterion_01_pairwise_loss_matches_double_loop():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for case in range(1000):
        n_pos = int(rng.integers(1, 201))
        n_neg = int(rng.integers(1, 201))
        dim = int(rng.integers(1, 9))
        if case % 2:
            Xp = rng.integers(-3, 4, size=(n_pos, dim)).astype(float)
            Xn = rng.integers(-3, 4, size=(n_neg, dim)).astype(float)
            w = rng.integers(-2, 3, size=dim).astype(float)
        else:
            Xp = rng.normal(size=(n_pos, dim))
            Xn = rng.normal(size=(n_neg, dim))
            w = rng.normal(size=dim)
        f_pos, f_neg = Xp @ w, Xn @ w
        assert pairwise_loss_count(f_pos, f_neg) == pair_loss_naive(f_pos, f_neg)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 01 pairwise-loss oracle (1000 cases, {elapsed:.2f}s): PASS")


def test_criterion_02_hardness_and_selection_match_literal_loops():
    rng = np.random.default_rng(202)
    rates = [Fraction(1, 10), Fraction(1, 5), Fraction(3, 10), Fraction(1, 2), Fraction(1)]
    for case in range(500):
        ds = random_small_dataset(rng)
        dim = ds.X.shape[1]
        if case % 5 == 0:
            w = np.zeros(dim)
        else:
            w = rng.integers(-2, 3, size=dim).astype(float)
        scores = hardness_scores(w, ds)
        f_pos, f_neg = decision_values(w, ds.full_view())
        ref_pos, ref_neg = hardness_naive(f_pos, f_neg)
        assert np.array_equal(scores.pos_scores, ref_pos)
        assert np.array_equal(scores.neg_scores, ref_neg)

        rate = rates[case % len(rates)]
        view = select_hardest(scores, ds, rate)
        n_pos = max(1, int(rate * len(ds.pos_idx)))
        n_neg = max(1, int(rate * len(ds.neg_idx)))
        expected = select_hardest_naive(
            scores.pos_scores, scores.neg_scores, ds.pos_idx, ds.neg_idx, n_pos, n_neg
        )
        assert list(view.selected) == expected
    print("criterion 02 hardness/selection oracle (500 cases): PASS")


def test_criterion_03_auc_loss_identity_and_scale_invariance():
    rng = np.random.default_rng(303)
    one_ulp = math.ulp(1.0)
    for case in range(300):
        ds = random_small_dataset(rng) if case % 2 else make_gaussian_dataset(case)
        dim = ds.X.shape[1]
        w = rng.normal(size=dim)
        view = ds.full_view()
        total = auc_metric(w, view) + evaluate(w[np.newaxis], view, 0.0)[1][0]
        assert abs(total - 1.0) <= one_ulp
        base = auc_metric(w, view)
        for c in (1e-3, 1.0, 1e3):
            assert auc_metric(c * w, view) == base
    print("criterion 03 auc+loss identity and scale invariance: PASS")


def test_criterion_04_cost_ledger_exact(tmp_path):
    rng = np.random.default_rng(404)
    for s in ("1/10", "1/5", "1/2", "1"):
        rate = as_rate(s, "s")
        for _ in range(25):
            n_cheap = int(rng.integers(0, 40))
            n_exp = int(rng.integers(0, 40))
            charges = [TaskId.CHEAP] * n_cheap + [TaskId.EXPENSIVE] * n_exp
            rng.shuffle(charges)
            ledger = CostLedger(budget=10**9, s=rate)
            for tid in charges:
                ledger.charge([tid])
            assert ledger.spent == Fraction(n_cheap) + Fraction(n_exp) / rate**2

    ds = make_gaussian_dataset(4, n_pos=20, n_neg=25, dim=3)
    data_path = tmp_path / "toy.libsvm"
    data_path.write_text(serialize_libsvm(ds))
    out = tmp_path / "cost"
    cfg = tmp_path / "cost.json"
    cfg.write_text(
        json.dumps(
            {
                "dataset": str(data_path),
                "repetitions": 2,
                "seed": 1,
                "output_dir": str(out),
            }
        )
    )
    assert main(["costmodel", "--config", str(cfg)]) == 0
    lines = (out / "costmodel.csv").read_text().splitlines()[1:]
    theoretical = {line.split(",")[0]: Fraction(line.split(",")[1]) for line in lines}
    assert theoretical["1/2"] == 25
    assert theoretical["1"] == 100
    assert theoretical["1/10"] == 1
    assert theoretical["1/5"] == 4
    print("criterion 04 exact cost ledger and theoretical cost table: PASS")


def test_criterion_05_trace_deterministic_including_jobs(tmp_path):
    ds = make_gaussian_dataset(5)
    data_path = tmp_path / "toy.libsvm"
    data_path.write_text(serialize_libsvm(ds))
    traces = []
    for i, jobs in enumerate((1, 1, 4)):
        out = tmp_path / f"out{i}"
        cfg = tmp_path / f"run{i}.json"
        cfg.write_text(
            json.dumps(
                {
                    "dataset": str(data_path),
                    "solver": {"kind": "mfea"},
                    "budget": 20000,
                    "delta": 5,
                    "seed": 9,
                    "jobs": jobs,
                    "output_dir": str(out),
                }
            )
        )
        assert main(["run", "--config", str(cfg)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1] == traces[2]
    rows = traces[0].decode().splitlines()[1:]
    assert any(row.endswith(",1") for row in rows), "no adjustment event covered"
    print("criterion 05 byte-identical trace.csv incl. --jobs 4: PASS")


def test_criterion_06_transfer_off_matches_single_task_ga():
    toys = [make_separable_dataset(60), make_gaussian_dataset(61)]
    budget = 30000
    for ds in toys:
        results = {}
        for label, cfg in (
            ("ga", SolverConfig(kind="single_task_ga")),
            ("mfea0", SolverConfig(kind="mfea", rmp=0.0)),
            ("emea0", SolverConfig(kind="emea", transfer_count=0)),
        ):
            aucs = []
            for seed in range(10):
                env = build_environment(ds, budget=budget, seed=seed)
                cfg_seeded = SolverConfig(
                    kind=cfg.kind,
                    rmp=cfg.rmp,
                    transfer_count=cfg.transfer_count,
                    seed=seed + 5000,
                )
                result = dispatch_solver(env, cfg_seeded)
                aucs.append(auc_metric(result.best_weights, ds.full_view()))
            results[label] = aucs
        assert compare_cells(results["mfea0"], results["ga"]) == VERDICT_SIMILAR
        assert compare_cells(results["emea0"], results["ga"]) == VERDICT_SIMILAR
    print("criterion 06 transfer-off solvers match the single-task GA: PASS")


def test_criterion_07_transfer_map_optimal_and_identity():
    rng = np.random.default_rng(707)
    for _ in range(10):
        P = rng.random((4, 8))
        Q = rng.random((4, 8))
        fitted = fit_transfer_map(P, Q)
        resid = np.linalg.norm(fitted @ P - Q)
        for _ in range(100):
            R = rng.normal(size=(4, 4))
            assert resid < np.linalg.norm(R @ P - Q)
    P = rng.random((5, 12))
    fitted = fit_transfer_map(P, P)
    assert np.linalg.norm(fitted - np.eye(5)) < 1e-4
    print("criterion 07 least-squares transfer map optimality: PASS")


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_criterion_08_cv_auc_reproduction(name):
    ds = _load_real(name)
    entries = [BenchmarkEntry(label="mfea", config=SolverConfig(kind="mfea"))]
    summary = run_benchmark(
        {name: ds}, entries, trials=5, folds=5, base_seed=8000, budget=101000
    )
    row = summary.rows[0]
    assert row.n == 25
    assert row.mean == pytest.approx(REFERENCE_AUC[name], abs=0.03)
    print(
        f"criterion 08 CV AUC on {name} "
        f"(got {row.mean:.3f}, expected {REFERENCE_AUC[name]:.3f} +/- 0.03): PASS"
    )


def test_criterion_09_multitask_at_least_matches_single_task():
    datasets = _require_all_small()
    entries = [
        BenchmarkEntry(label="mfea", config=SolverConfig(kind="mfea")),
        BenchmarkEntry(label="ga", config=SolverConfig(kind="single_task_ga")),
    ]
    summary = run_benchmark(
        datasets, entries, trials=5, folds=5, base_seed=9000, budget=101000,
        baseline="ga",
    )
    means = {(r.dataset, r.solver): r.mean for r in summary.rows}
    wins = sum(
        1 for name in SMALL_NAMES if means[(name, "mfea")] >= means[(name, "ga")]
    )
    assert wins >= 4, f"multitask matched single task on only {wins}/6 datasets"
    print(f"criterion 09 multitask >= single task on {wins}/6 datasets: PASS")


def test_criterion_10_dynamic_adjustment_never_hurts():
    datasets = _require_all_small()
    verdicts = {}
    for name, ds in datasets.items():
        with_adjust, without = [], []
        for seed in range(10):
            for delta, sink in ((30, with_adjust), (None, without)):
                env = build_environment(ds, budget=101000, delta=delta, seed=seed)
                result = dispatch_solver(
                    env, SolverConfig(kind="mfea", seed=seed + 7000)
                )
                sink.append(auc_metric(result.best_weights, ds.full_view()))
        verdicts[name] = compare_cells(with_adjust, without)
    assert all(v != VERDICT_WORSE for v in verdicts.values()), verdicts
    assert any(v == "+" for v in verdicts.values()), verdicts
    print(f"criterion 10 adjustment ablation verdicts {verdicts}: PASS")


def test_criterion_11_landscape_similarity_real_data():
    datasets = _require_all_small()
    t0 = time.perf_counter()
    means = {}
    for name, ds in datasets.items():
        rhos = landscape_similarity(
            ds, s="1/10", n_points=2000, n_repeats=10, seed=1100
        )
        means[name] = np.mean(rhos)
    elapsed = time.perf_counter() - t0
    good = sum(1 for m in means.values() if m > 0.5)
    assert good >= 4, means
    assert elapsed < 120.0
    print(
        f"criterion 11 landscape rho > 0.5 on {good}/6 datasets "
        f"({elapsed:.1f}s): PASS"
    )
