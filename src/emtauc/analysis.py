"""Landscape similarity, benchmark sweeps, and rank-based comparisons.

Only ``spearman_rho`` and ``compare_cells`` need ``scipy.stats``, and they
import it in their bodies, so it loads on the first call of either. Importing
this module, and with it ``emtauc``, loads numpy and ``scipy.sparse`` only:
``scipy.stats`` about doubles the resident memory of a process, and most
processes (``emtauc run``, a benchmark's worker processes) never rank.
"""
from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb, sqrt

import numpy as np

from .config import BenchmarkEntry
from .data import DataError, Dataset, DatasetView, as_rate, stratified_kfold, stratified_sample
from .environment import (
    DEFAULT_BUDGET, DEFAULT_LAM, DEFAULT_RATE, AdjustmentEvent, TaskId, as_budget, build_environment,
)
from .evaluation import auc_metric, evaluate
from .solvers import decode_weights, dispatch_solver

VERDICT_BETTER = "+"
VERDICT_SIMILAR = "≈"
VERDICT_WORSE = "-"
VERDICT_UNDECIDED = "n/a"

# two-sided significance level of ``compare_cells``
_SIGNIFICANCE_LEVEL = 0.05


def _reject_nan(a: np.ndarray, b: np.ndarray) -> None:
    """Raise ValueError if either input holds a NaN: ranks have no order for it."""
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("inputs must not contain NaN")


def spearman_rho(a, b) -> float:
    """Rank correlation with average ranks on ties.

    Raises ValueError on length mismatch, fewer than two samples, a NaN
    or a constant input (the statistic is undefined there, never NaN).
    """
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise ValueError("inputs must be 1-D and the same length")
    _reject_nan(a, b)
    if a.size < 2:
        raise ValueError("need at least two samples")
    if np.all(a == a[0]) or np.all(b == b[0]):
        raise ValueError("rank correlation is undefined for a constant input")
    ra = stats.rankdata(a)
    rb = stats.rankdata(b)
    if np.array_equal(ra, rb):
        return 1.0
    return float(np.corrcoef(ra, rb)[0, 1])


def landscape_similarity(
    ds: Dataset, s, lam: float = DEFAULT_LAM, *, n_points: int, n_repeats: int, seed
) -> tuple[float, ...]:
    """Per-repeat rank correlations between the two objectives over uniform
    random weights.

    Each repeat draws a fresh stratified subsample at rate ``s`` and
    ``n_points`` genomes, then ranks the cheap objective against the
    expensive one on identical decoded weights. Nothing here touches a
    budget ledger. Raises DataError when either objective is constant over
    the sampled weights (all features constant and ``lam`` 0, say), since
    rank correlation is undefined there.
    """
    rate = as_rate(s, "sampling rate")
    if n_points < 2:
        raise ValueError("n_points must be at least 2")
    if n_repeats < 1:
        raise ValueError("n_repeats must be at least 1")
    full = ds.full_view()
    rhos = []
    for child in np.random.SeedSequence(seed).spawn(n_repeats):
        rng = np.random.default_rng(child)
        view = stratified_sample(ds, rate, rng)
        W = decode_weights(rng.random((n_points, ds.dim)))
        cheap_obj = evaluate(W, view, lam)[0]
        expensive_obj = evaluate(W, full, lam)[0]
        for task, obj in (("cheap", cheap_obj), ("expensive", expensive_obj)):
            if np.all(obj == obj[0]):
                raise DataError(
                    f"the {task} objective is constant over the sampled weights; rank correlation is undefined"
                )
        rhos.append(spearman_rho(cheap_obj, expensive_obj))
    return tuple(rhos)


def _rank_sum_exact_p(ranks: np.ndarray, n_a: int, observed: float) -> float:
    """Two-sided exact permutation p-value for the rank-sum statistic.

    Enumerates all C(n, n_a) assignments of the pooled (tie-averaged) ranks
    to group a. Rank sums are multiples of 0.5, so comparisons are exact.
    """
    total = comb(ranks.size, n_a)
    count_le = 0
    count_ge = 0
    for subset in combinations(range(ranks.size), n_a):
        w = ranks[list(subset)].sum()
        if w <= observed:
            count_le += 1
        if w >= observed:
            count_ge += 1
    p = 2.0 * min(count_le, count_ge) / total
    return min(1.0, p)


def compare_cells(a, b) -> str:
    """Two-sided Wilcoxon rank-sum verdict for sample a against sample b.

    Returns "+" when a is significantly greater at level 0.05, "-"
    when significantly smaller, and "≈" (``VERDICT_SIMILAR``) otherwise.
    Uses the exact permutation distribution when both samples have at most
    8 values, and the normal approximation with tie correction beyond that.
    Requires at least 5 values per sample, none of them NaN.
    """
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError("samples must be 1-D")
    _reject_nan(a, b)
    if a.size < 5 or b.size < 5:
        raise ValueError("need at least 5 values per sample")
    n_a, n_b = a.size, b.size
    n = n_a + n_b
    pooled_ranks = stats.rankdata(np.concatenate([a, b]))
    w = float(pooled_ranks[:n_a].sum())
    mu = n_a * (n + 1) / 2.0

    if max(n_a, n_b) <= 8:
        p = _rank_sum_exact_p(pooled_ranks, n_a, w)
    else:
        _, tie_counts = np.unique(np.concatenate([a, b]), return_counts=True)
        tie_term = float(((tie_counts**3) - tie_counts).sum())
        sigma_sq = n_a * n_b / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
        if sigma_sq <= 0:
            return VERDICT_SIMILAR
        z = (w - mu) / sqrt(sigma_sq)
        p = 2.0 * float(stats.norm.sf(abs(z)))

    if p < _SIGNIFICANCE_LEVEL:
        return VERDICT_BETTER if w > mu else VERDICT_WORSE
    return VERDICT_SIMILAR


def stable_seed(*parts) -> int:
    """Deterministic 63-bit seed from string-able parts (process-stable)."""
    key = "\x1f".join(str(p) for p in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class BenchmarkCell:
    dataset: str
    solver: str
    trial: int
    fold: int
    seed: int
    auc: float | None
    error: str | None
    best_objective: float | None = None
    train_auc: float | None = None
    spent: Fraction | None = None
    cheap_evals: int = 0
    expensive_evals: int = 0
    adjustments: tuple[AdjustmentEvent, ...] = ()


@dataclass(frozen=True)
class BenchmarkRow:
    dataset: str
    solver: str
    mean: float | None
    std: float | None
    n: int
    verdict: str


@dataclass(frozen=True)
class BenchmarkSummary:
    rows: tuple[BenchmarkRow, ...]
    cells: tuple[BenchmarkCell, ...]
    baseline: str


@dataclass(frozen=True)
class _CellJob:
    dataset_name: str
    dataset: Dataset
    entry: BenchmarkEntry
    trial: int
    fold: int
    train_idx: np.ndarray
    test_idx: np.ndarray
    seed: int
    s: Fraction
    lam: float
    budget: Fraction


def _execute_cell(job: _CellJob) -> BenchmarkCell:
    try:
        digest = hashlib.blake2b(
            np.int64(job.seed).tobytes(), digest_size=16
        ).digest()
        env_seed = int.from_bytes(digest[:8], "big") >> 1
        solver_seed = int.from_bytes(digest[8:], "big") >> 1
        train = job.dataset.subset(job.train_idx)
        env = build_environment(
            train, s=job.s, lam=job.lam, delta=job.entry.delta, budget=job.budget, seed=env_seed
        )
        result = dispatch_solver(env, replace(job.entry.config, seed=solver_seed))
        if result.best_weights is None:
            raise RuntimeError("budget too small for any expensive evaluation")
        test_view = DatasetView(job.dataset, job.test_idx)
        outcome = dict(
            auc=float(auc_metric(result.best_weights, test_view)),
            error=None,
            best_objective=result.best_objective,
            train_auc=env.best_expensive_auc,
            spent=env.ledger.spent,
            cheap_evals=env.ledger.evals[TaskId.CHEAP],
            expensive_evals=env.ledger.evals[TaskId.EXPENSIVE],
            adjustments=tuple(env.adjustment_log),
        )
    except Exception as exc:  # record per-cell failures, never abort the sweep
        outcome = dict(auc=None, error=f"{type(exc).__name__}: {exc}")
    return BenchmarkCell(
        dataset=job.dataset_name, solver=job.entry.label, trial=job.trial, fold=job.fold, seed=job.seed, **outcome
    )


def run_benchmark(
    datasets: dict[str, Dataset],
    entries: list[BenchmarkEntry],
    trials: int,
    folds: int,
    base_seed: int = 0,
    s=DEFAULT_RATE,
    lam: float = DEFAULT_LAM,
    budget=DEFAULT_BUDGET,
    baseline: str | None = None,
    jobs: int = 1,
) -> BenchmarkSummary:
    """Trials x folds stratified CV of every solver on every dataset.

    All solvers share the same splits within a (dataset, trial); the
    held-out score is the plain pairwise AUC of the returned weights.
    Cells and rows are keyed by (dataset, entry label), so labels must be
    distinct. Per-cell seeds derive from ``base_seed`` and the cell key
    through a stable hash, so reruns reproduce each cell independently of
    execution order. Failures are recorded on their cell and excluded from
    summaries.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    if not entries:
        raise ValueError("need at least one solver entry")
    if trials < 1 or folds < 2:
        raise ValueError("need trials >= 1 and folds >= 2")
    labels = [e.label for e in entries]
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate entry labels in {labels}; set a distinct label per entry")
    rate = as_rate(s, "sampling rate")
    budget = as_budget(budget)
    if baseline is None:
        baseline = labels[0]
    if baseline not in labels:
        raise ValueError(f"baseline {baseline!r} is not among the entry labels")

    jobs_list: list[_CellJob] = []
    for name, ds in datasets.items():
        for trial in range(trials):
            split = stratified_kfold(ds, folds, seed=stable_seed("split", base_seed, name, trial))
            for fold in range(folds):
                train_idx = split.train_indices(fold)
                test_idx = split.test_indices(fold)
                for entry in entries:
                    cell_seed = base_seed ^ stable_seed(name, entry.label, trial, fold)
                    jobs_list.append(
                        _CellJob(
                            dataset_name=name,
                            dataset=ds,
                            entry=entry,
                            trial=trial,
                            fold=fold,
                            train_idx=train_idx,
                            test_idx=test_idx,
                            seed=cell_seed,
                            s=rate,
                            lam=lam,
                            budget=budget,
                        )
                    )

    if jobs > 1:
        # With the fork start method the executor starts all max_workers
        # processes at the first submit, so never ask for more than cells.
        with ProcessPoolExecutor(max_workers=min(jobs, len(jobs_list))) as pool:
            cells = list(pool.map(_execute_cell, jobs_list, chunksize=1))
    else:
        cells = [_execute_cell(job) for job in jobs_list]

    # keyed in dataset-then-entry order, which is the order of the rows
    aucs: dict[tuple[str, str], list[float]] = {(name, label): [] for name in datasets for label in labels}
    for cell in cells:
        if cell.auc is not None:
            aucs[cell.dataset, cell.solver].append(cell.auc)

    rows: list[BenchmarkRow] = []
    for (name, label), vals in aucs.items():
        base_vals = aucs[name, baseline]
        mean = float(np.mean(vals)) if vals else None
        std = float(np.std(vals, ddof=1)) if len(vals) > 1 else (0.0 if vals else None)
        if label == baseline:
            verdict = VERDICT_SIMILAR
        elif len(vals) >= 5 and len(base_vals) >= 5:
            verdict = compare_cells(np.array(vals), np.array(base_vals))
        else:
            verdict = VERDICT_UNDECIDED
        rows.append(BenchmarkRow(dataset=name, solver=label, mean=mean, std=std, n=len(vals), verdict=verdict))

    return BenchmarkSummary(rows=tuple(rows), cells=tuple(cells), baseline=baseline)
