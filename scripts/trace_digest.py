"""Print one ``key sha256`` line per solver run over a fixed grid.

The digest of a run covers the bytes of its ``trace.csv``, the best
objective and weights, the ledger (spent, evaluations per task) and the
cheap-task adjustment log. Two trees give the same output exactly when
every run in the grid produced the same artifacts. The first line names
the numpy and scipy versions, which fix the RNG stream and the CSR
summation order. ``tests/golden/trace_digest.txt`` holds the committed
output, and ``tests/test_golden.py`` regenerates all of it in every test
run: that is the byte-compare gate for refactors of the solvers. By hand:

    diff <(PYTHONPATH=src python scripts/trace_digest.py) tests/golden/trace_digest.txt

The grid is 3 solvers x seeds 0-2 x 12 budgets (several of which run out
during initialisation, mid-generation or during transfer) x delta
{None, 3} x two solver configurations, over two synthetic Gaussian sets
from ``tests/conftest.py``: 864 runs. A second grid covers larger views:
3 solvers x seeds 0-1 x budgets {2021, 8000, 40000} x delta {None, 3}
over a 2400/3600 x 20 Gaussian set, where rows certify, a copy with 100
positive rows repeated as negatives, whose full view stays on CSR since
every row ties there, and a 268/500 x 8 Gaussian set, the size of the
paper's diabetes data: 108 runs. Every other view of every run, full and
cheap, counts on the certified BLAS path of ``evaluate``, so run it at more than one BLAS
thread count (``OPENBLAS_NUM_THREADS``) to check that the output does not
depend on it. It takes no flags.
"""
from __future__ import annotations

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from conftest import make_gaussian_dataset  # noqa: E402
from scipy import sparse  # noqa: E402

from emtauc import Dataset, SolverConfig, TaskId, build_environment, cli, dispatch_solver  # noqa: E402


def with_positives_as_negatives(ds: Dataset, count: int) -> Dataset:
    """``ds`` plus its first ``count`` positive rows again, labelled negative."""
    X = sparse.vstack([ds.X, ds.X[ds.pos_idx[:count]]])
    return Dataset(X, np.concatenate([ds.labels, -np.ones(count, dtype=np.int64)]))


DATASETS = {
    "gauss0": make_gaussian_dataset(0),
    "gauss1": make_gaussian_dataset(1, n_pos=37, n_neg=91, dim=8),
}
LARGER_DATASETS = {"gauss5-6000x20": make_gaussian_dataset(5, n_pos=2400, n_neg=3600, dim=20)}
LARGER_DATASETS["gauss5-6000x20-ties"] = with_positives_as_negatives(LARGER_DATASETS["gauss5-6000x20"], 100)
LARGER_DATASETS["gauss3-768x8"] = make_gaussian_dataset(3, n_pos=268, n_neg=500, dim=8)
KINDS = ("single_task_ga", "mfea", "emea")
SEEDS = (0, 1, 2)
BUDGETS = (5, 19, 20, 21, 150, 2020, 2021, 2100, 3000, 8000, 12345, 40000)
DELTAS = (None, 3)
VARIANTS = {
    "default": {},
    "pop7": {"pop_size": 7, "transfer_interval": 2, "transfer_count": 3},
}
GRIDS = (
    (DATASETS, KINDS, SEEDS, BUDGETS, DELTAS, VARIANTS),
    (LARGER_DATASETS, KINDS, (0, 1), (2021, 8000, 40000), DELTAS, ("default",)),
)


def run_digest(ds, kind, seed, budget, delta, variant, trace_path: Path) -> str:
    env = build_environment(ds, delta=delta, budget=budget, seed=seed)
    config = SolverConfig(kind=kind, seed=seed + 1000, **VARIANTS[variant])
    result = dispatch_solver(env, config)
    cli.write_trace(trace_path, result.trace, 1)
    h = hashlib.sha256(trace_path.read_bytes())
    weights = b"" if result.best_weights is None else result.best_weights.tobytes()
    ledger = env.ledger
    h.update(repr(result.best_objective).encode())
    h.update(weights)
    h.update(f"{ledger.spent} {ledger.evals[TaskId.CHEAP]} {ledger.evals[TaskId.EXPENSIVE]}".encode())
    for event in env.adjustment_log:
        h.update(f"{event.generation} {event.view_fingerprint}".encode())
    return h.hexdigest()


def digest_lines(grids=GRIDS):
    """Yield the ``key sha256`` line of every run in ``grids``, in grid order."""
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for datasets, *axes in grids:
            for name, kind, seed, budget, delta, variant in itertools.product(datasets, *axes):
                digest = run_digest(datasets[name], kind, seed, budget, delta, variant, trace_path)
                yield f"{name}/{kind}/seed{seed}/budget{budget}/delta{delta}/{variant} {digest}"


def main() -> int:
    print(f"# numpy {np.__version__} scipy {scipy.__version__}", flush=True)
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
