"""Print one ``key sha256`` line per solver run over a fixed grid.

The digest of a run covers the bytes of its ``trace.csv``, the best
objective and weights, the ledger (spent, evaluations per task) and the
cheap-task adjustment log. Two trees give the same output exactly when
every run in the grid produced the same artifacts, so a diff of the output
is the byte-compare gate for refactors of the solvers:

    PYTHONPATH=<other tree>/src python scripts/trace_digest.py > before.txt
    PYTHONPATH=src python scripts/trace_digest.py > after.txt
    diff before.txt after.txt

The grid is 3 solvers x seeds 0-2 x jobs 1, 2 x 12 budgets (several of
which run out during initialisation, mid-generation or during transfer)
x delta {None, 3} x two solver configurations, over two synthetic Gaussian
sets from ``tests/conftest.py``: 1728 runs. It takes no flags.
"""
from __future__ import annotations

import hashlib
import itertools
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import make_gaussian_dataset  # noqa: E402

from emtauc import SolverConfig, TaskId, build_environment, cli, dispatch_solver  # noqa: E402

DATASETS = {
    "gauss0": make_gaussian_dataset(0),
    "gauss1": make_gaussian_dataset(1, n_pos=37, n_neg=91, dim=8),
}
KINDS = ("single_task_ga", "mfea", "emea")
SEEDS = (0, 1, 2)
JOBS = (1, 2)
BUDGETS = (5, 19, 20, 21, 150, 2020, 2021, 2100, 3000, 8000, 12345, 40000)
DELTAS = (None, 3)
VARIANTS = {
    "default": {},
    "pop7": {"pop_size": 7, "transfer_interval": 2, "transfer_count": 3},
}


def run_digest(ds, kind, seed, jobs, budget, delta, variant, trace_path: Path) -> str:
    env = build_environment(ds, delta=delta, budget=budget, seed=seed)
    config = SolverConfig(kind=kind, seed=seed + 1000, **VARIANTS[variant])
    result = dispatch_solver(env, config, jobs=jobs)
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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        grid = itertools.product(DATASETS, KINDS, SEEDS, JOBS, BUDGETS, DELTAS, VARIANTS)
        for name, kind, seed, jobs, budget, delta, variant in grid:
            digest = run_digest(DATASETS[name], kind, seed, jobs, budget, delta, variant, trace_path)
            key = f"{name}/{kind}/seed{seed}/jobs{jobs}/budget{budget}/delta{delta}/{variant}"
            print(key, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
