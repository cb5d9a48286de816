"""Compare the solve CPU time of two source trees in one process.

    python scripts/solve_ab.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are directories that hold an ``emtauc``
package (a checkout's ``src``). Both are imported side by side, as
``emtauc_old`` and ``emtauc_new``, so both solve on the same interpreter,
the same numpy and the same warm caches. Each round builds one environment
per tree from the same seeds and runs the same solve on each, alternating
which tree goes first, for every solver kind. A solve is timed in CPU
seconds of this process (``time.process_time``), after a garbage
collection, over ``dispatch_solver`` alone, as the benchmark harness times
it.

The data are six Gaussian sets, one per shape in ``SHAPES``: 268 + 500
instances x 8 features (the size of diabetes, as in the benchmark's
paper-scale workload), 300 + 700 x 24 (the synthetic set of its
``sweep-cv`` workload), 134 + 250 x 8 and 150 + 350 x 24 (the shapes of
that workload's fold subsets), 2400 + 3600 x 20 (a set of the larger grid
of ``scripts/trace_digest.py``) and 8000 + 12000 x 50 (the shape of the
benchmark's large workload). Every view of these dense sets, full and
cheap, counts on the certified BLAS path of ``evaluate``. A seventh set,
268 + 500 x 8 sign features (``TIE_HEAVY_SHAPES``), repeats 256 row
patterns across the classes, so its full view, and every cheap view that
holds a positive and a negative of one pattern, stays on CSR. Every solve
uses the rate, lambda, delta and budget that ``build_environment`` takes by
default, the paper's protocol, which the paper-scale workload also uses. The
script prints, per shape and solver, the median CPU seconds of each
tree, the median and range of the paired ratios new/old, how many rounds
the new tree won, and whether every pair of runs gave the same output; it
exits 1 if any pair differed. A run's output is what
``scripts/trace_digest.py`` digests: every field of every trace row, the
best objective and the bytes of the best weights, the ledger's spent total
and evaluations per task, and the cheap-task adjustment log.
When they differ (a new draw order, say), it also prints, per shape and
solver, the ``compare_cells`` verdict of the new tree's final AUC on the
full set (``auc_metric`` of the best weights) against the old tree's over
the same rounds: ``≈`` says the two orders reach equally good rankers.
Per shape it also prints each tree's median over the solves of all
solvers pooled, and their ratio: the benchmark's ``solve_cpu_s.p50`` is
that pooled median, so a gain in one solver moves it only if the pooled
median sits on that solver's solves.
This is a low-noise cross-check next to the benchmark: the two trees
share every condition of the machine that a pair of separate processes
does not.
"""
from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
from pathlib import Path
from time import process_time

import numpy as np

KINDS = ("single_task_ga", "mfea", "emea")
SHAPES = (  # (positives, negatives, features)
    (268, 500, 8), (300, 700, 24), (134, 250, 8), (150, 350, 24), (2400, 3600, 20), (8000, 12000, 50),
)
# (positives, negatives, features) of sets of random +-1 features
TIE_HEAVY_SHAPES = ((268, 500, 8),)
SEED = 7
ROUNDS = 10


def load_package(src: str, name: str):
    """The ``emtauc`` package under ``src``, imported as ``name``."""
    pkg = Path(src).resolve() / "emtauc"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no emtauc package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def gaussian_data(n_pos: int, n_neg: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    X = np.vstack([rng.normal(0.6 * direction, size=(n_pos, dim)), rng.normal(-0.6 * direction, size=(n_neg, dim))])
    return X, np.r_[np.ones(n_pos), -np.ones(n_neg)].astype(np.int64)


def sign_data(n_pos: int, n_neg: int, dim: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random +-1 features: at 8 features, rows repeat across the classes."""
    X = np.random.default_rng(seed).choice([-1.0, 1.0], size=(n_pos + n_neg, dim))
    return X, np.r_[np.ones(n_pos), -np.ones(n_neg)].astype(np.int64)


def timed_solve(pkg, ds, kind: str, env_seed: int, solver_seed: int):
    env = pkg.build_environment(ds, seed=env_seed)
    config = pkg.SolverConfig(kind=kind, seed=solver_seed)
    gc.collect()
    start = process_time()
    result = pkg.dispatch_solver(env, config)
    seconds = process_time() - start
    trace = [(p.generation, p.cumulative_cost, p.best_objective_expensive, p.best_auc_expensive,
              p.best_objective_cheap, p.adjust_event) for p in result.trace]
    weights = None if result.best_weights is None else result.best_weights.tobytes()
    ledger = env.ledger
    evals = (ledger.evals[pkg.TaskId.CHEAP], ledger.evals[pkg.TaskId.EXPENSIVE])
    adjustments = [(e.generation, e.view_fingerprint) for e in env.adjustment_log]
    output = (trace, result.best_objective, weights, ledger.spent, evals, adjustments)
    return seconds, output, pkg.auc_metric(result.best_weights, ds.full_view())


def compare(trees: dict, n_pos: int, n_neg: int, dim: int, make_data=gaussian_data) -> bool:
    """Alternate the solves of both trees on one shape of ``make_data``'s
    sets; True if all pairs agreed."""
    X, y = make_data(n_pos, n_neg, dim, SEED)
    data = {side: pkg.Dataset(X, y) for side, pkg in trees.items()}
    times = {(kind, side): [] for kind in KINDS for side in trees}
    aucs = {(kind, side): [] for kind in KINDS for side in trees}
    same = dict.fromkeys(KINDS, True)
    for r in range(ROUNDS):
        env_seed, solver_seed = np.random.SeedSequence([SEED, r]).generate_state(2).tolist()
        for kind in KINDS:
            order = ("old", "new") if (r + KINDS.index(kind)) % 2 == 0 else ("new", "old")
            outputs = {}
            for side in order:
                seconds, outputs[side], auc = timed_solve(trees[side], data[side], kind, env_seed, solver_seed)
                times[kind, side].append(seconds)
                aucs[kind, side].append(auc)
            same[kind] &= outputs["old"] == outputs["new"]

    features = "" if make_data is gaussian_data else " sign features"
    print(f"{ROUNDS} rounds, {n_pos}+{n_neg} x {dim}{features}, CPU seconds per solve")
    print(f"{'solver':<16}{'old p50':>10}{'new p50':>10}{'ratio p50':>11}{'ratio range':>16}{'wins':>7}  same output")
    for kind in KINDS:
        old, new = times[kind, "old"], times[kind, "new"]
        ratios = [b / a for a, b in zip(old, new)]
        wins = sum(b < a for a, b in zip(old, new))
        print(
            f"{kind:<16}{statistics.median(old):>10.4f}{statistics.median(new):>10.4f}"
            f"{statistics.median(ratios):>11.3f}{min(ratios):>8.3f}-{max(ratios):<7.3f}"
            f"{wins:>4}/{len(ratios)}  {'yes' if same[kind] else 'NO'}"
        )
    old, new = (statistics.median(t for kind in KINDS for t in times[kind, side]) for side in ("old", "new"))
    print(f"{'all solvers':<16}{old:>10.4f}{new:>10.4f}{new / old:>11.3f}  (pooled medians, ratio of the two)")
    if not all(same.values()):
        print(f"{'solver':<16}{'old AUC p50':>12}{'new AUC p50':>12}  verdict of new against old (compare_cells)")
        for kind in KINDS:
            old, new = aucs[kind, "old"], aucs[kind, "new"]
            verdict = trees["new"].compare_cells(new, old)
            print(f"{kind:<16}{statistics.median(old):>12.4f}{statistics.median(new):>12.4f}  {verdict}")
    return all(same.values())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    args = parser.parse_args(argv)

    trees = {"old": load_package(args.old_src, "emtauc_old"), "new": load_package(args.new_src, "emtauc_new")}
    agreed = [compare(trees, *shape) for shape in SHAPES]
    agreed += [compare(trees, *shape, make_data=sign_data) for shape in TIE_HEAVY_SHAPES]
    return 0 if all(agreed) else 1


if __name__ == "__main__":
    sys.exit(main())
