"""Command-line entry point.

Subcommands: run, benchmark, landscape, costmodel, validate-config. Every
command reads a strict JSON config (flags override file values), writes its
artifacts into one output directory, and exits 0 on success, 2 on a config
error, 3 on a data error, and 4 on a runtime failure. trace.csv, summary.csv,
landscape.csv, and costmodel.csv are byte-stable for a fixed config and seed;
manifest.json additionally carries wall-clock timestamps.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import landscape_similarity, run_benchmark
from .config import (
    BenchmarkConfig,
    ConfigError,
    CostModelConfig,
    LandscapeConfig,
    RunConfig,
    _safe_name,
    echo,
)
from .data import DataError, parse_libsvm_path, scale_features, stratified_sample
from .environment import DEFAULT_LAM, DEFAULT_RATE, TaskId, build_environment, expensive_cost
from .evaluation import objective
from .solvers import dispatch_solver

TRACE_HEADER = "generation,cumulative_cost,best_objective_expensive,best_auc_expensive,best_objective_cheap,adjust_event"
SUMMARY_HEADER = "dataset,solver,mean_auc,std_auc,n,verdict"
LANDSCAPE_HEADER = "repeat,rho"
COSTMODEL_HEADER = "rate,theoretical_ratio,measured_mean_seconds,measured_ratio"

_CONFIG_PARSERS = {
    "run": RunConfig.from_dict,
    "benchmark": BenchmarkConfig.from_dict,
    "landscape": LandscapeConfig.from_dict,
    "costmodel": CostModelConfig.from_dict,
}
# parsed arguments that are not config keys; every other flag overrides one
_NOT_OVERRIDES = frozenset(("config", "command", "handler", "kind"))


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _fmt(value) -> str:
    """CSV cell: shortest round-trip decimal, empty for missing."""
    return "" if value is None else repr(float(value))


def _load_config_dict(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return loaded


def _parse_config(args: argparse.Namespace):
    """The config file with every flag the user set laid over it, parsed
    as the subcommand's config kind (``--kind`` for validate-config)."""
    raw = _load_config_dict(args.config)
    raw.update(
        (key, value)
        for key, value in vars(args).items()
        if value is not None and key not in _NOT_OVERRIDES
    )
    return _CONFIG_PARSERS[getattr(args, "kind", args.command)](raw)


def _resolve_output_dir(configured: str | None) -> Path:
    chosen = configured or os.environ.get("EMTAUC_OUTPUT_DIR") or "emtauc-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(path: str):
    ds = parse_libsvm_path(path)
    try:
        return scale_features(ds)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _dataset_stats(path: str, ds) -> dict:
    return {
        "path": path,
        "instances": ds.n,
        "features": ds.dim,
        "positives": ds.t_pos,
        "negatives": ds.t_neg,
    }


def _write_artifact(path: Path, chunks) -> None:
    """Write the strings ``chunks`` yields to a temporary file beside
    ``path``, then rename it over ``path``. On any failure the temporary
    file is removed, so no artifact is ever left half written."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _drop_manifest(out_dir: Path) -> None:
    """Remove ``out_dir``'s manifest.json, if any. Each command calls this
    before it writes its first artifact, so a failure before the new
    manifest lands never leaves new artifacts beside an old manifest."""
    (out_dir / "manifest.json").unlink(missing_ok=True)


def _write_csv(path: Path, header: str, rows) -> None:
    """``header``, then one line per row of string cells."""
    _write_artifact(path, chain((header + "\n",), (",".join(cells) + "\n" for cells in rows)))


def _write_manifest(
    path: Path, command: str, config: dict, out_dir: Path, seed: int, clock, results: dict, **extra
) -> None:
    """The header every manifest shares: version, command, the ``config``
    echo with ``output_dir``, seed and the ``(started_at, finished_at)``
    clock; then ``results`` and any ``extra`` top-level keys
    (``dataset_stats``, ``derived_seeds``)."""
    started_at, finished_at = clock
    manifest = dict(
        extra,
        artifact_version=__version__,
        command=command,
        config=dict(config, output_dir=str(out_dir)),
        seed=seed,
        started_at=started_at,
        finished_at=finished_at,
        results=results,
    )
    encoder = json.JSONEncoder(indent=2, sort_keys=True, ensure_ascii=False)
    _write_artifact(path, chain(encoder.iterencode(manifest), ("\n",)))


def _run_results(best_objective, train_auc, test_auc, spent, budget, evaluations, adjustments) -> dict:
    """The results keys of one solver run, shared by ``run`` and
    ``benchmark-cell`` manifests. ``evaluations`` is (cheap, expensive)
    and ``adjustments`` holds ``AdjustmentEvent``s."""
    cheap, expensive = evaluations
    return {
        "final_best_objective": best_objective,
        "final_train_auc": train_auc,
        "final_test_auc": test_auc,
        "total_cost_spent": None if spent is None else float(spent),
        "total_cost_spent_exact": None if spent is None else str(spent),
        "budget": str(budget),
        "evaluations": {"cheap": cheap, "expensive": expensive},
        "adjustments": [{"generation": g, "view_fingerprint": fp} for g, fp in adjustments],
    }


def write_trace(path: Path, trace, stride: int) -> None:
    """One row per recorded generation, filtered to every ``stride``-th
    generation; the first and last recorded rows always appear."""
    last = len(trace) - 1
    rows = (
        (
            str(point.generation),
            repr(float(point.cumulative_cost)),
            _fmt(point.best_objective_expensive),
            _fmt(point.best_auc_expensive),
            _fmt(point.best_objective_cheap),
            str(int(point.adjust_event)),
        )
        for idx, point in enumerate(trace)
        if idx == last or point.generation % stride == 0
    )
    _write_csv(path, TRACE_HEADER, rows)


def _derived_seeds(seed: int) -> tuple[int, int]:
    env_seed, solver_seed = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(env_seed), int(solver_seed)


def cmd_run(args: argparse.Namespace) -> int:
    cfg = _parse_config(args)
    out_dir = _resolve_output_dir(cfg.output_dir)
    ds = _load_dataset(cfg.dataset)

    started_at = _utc_now()
    env_seed, solver_seed = _derived_seeds(cfg.seed)
    env = build_environment(
        ds, s=cfg.s, lam=cfg.lam, delta=cfg.delta, budget=cfg.budget, seed=env_seed
    )
    result = dispatch_solver(env, replace(cfg.solver, seed=solver_seed))
    finished_at = _utc_now()

    _drop_manifest(out_dir)
    write_trace(out_dir / "trace.csv", result.trace, cfg.trace_stride)

    train_auc = env.best_expensive_auc
    ledger = env.ledger
    results = _run_results(
        result.best_objective, train_auc, None, ledger.spent, ledger.budget,
        (ledger.evals[TaskId.CHEAP], ledger.evals[TaskId.EXPENSIVE]),
        env.adjustment_log,
    )
    _write_manifest(
        out_dir / "manifest.json", "run", echo(cfg), out_dir, cfg.seed, (started_at, finished_at),
        dict(results, solver_kind=result.kind, generations=result.trace[-1].generation),
        derived_seeds={"environment": env_seed, "solver": solver_seed},
        dataset_stats=_dataset_stats(cfg.dataset, ds),
    )
    print(
        f"run: solver={result.kind} best_objective={_fmt(result.best_objective) or 'n/a'} "
        f"train_auc={_fmt(train_auc) or 'n/a'} spent={float(ledger.spent)!r} -> {out_dir}"
    )
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    cfg = _parse_config(args)
    out_dir = _resolve_output_dir(cfg.output_dir)

    # config parsing has checked that file stems and solver labels stay
    # distinct as directory names
    datasets = {}
    stats = {}
    for path in cfg.datasets:
        name = Path(path).stem
        datasets[name] = _load_dataset(path)
        stats[name] = _dataset_stats(path, datasets[name])

    started_at = _utc_now()
    summary = run_benchmark(
        datasets,
        cfg.solvers,
        trials=cfg.trials,
        folds=cfg.folds,
        base_seed=cfg.seed,
        s=cfg.s,
        lam=cfg.lam,
        budget=cfg.budget,
        baseline=cfg.baseline,
        jobs=cfg.jobs,
    )
    clock = (started_at, _utc_now())

    # summary.csv's columns are also the keys of the manifest's rows
    rows = [(r.dataset, r.solver, r.mean, r.std, r.n, r.verdict) for r in summary.rows]
    _drop_manifest(out_dir)
    _write_csv(
        out_dir / "summary.csv",
        SUMMARY_HEADER,
        ((name, solver, _fmt(mean), _fmt(std), str(n), verdict) for name, solver, mean, std, n, verdict in rows),
    )

    config_echo = dict(echo(cfg), baseline=summary.baseline)
    for cell in summary.cells:
        cell_dir = out_dir / "cells" / _safe_name(
            f"{cell.dataset}__{cell.solver}__t{cell.trial}_f{cell.fold}"
        )
        cell_dir.mkdir(parents=True, exist_ok=True)
        results = _run_results(
            cell.best_objective, cell.train_auc, cell.auc, cell.spent, cfg.budget,
            (cell.cheap_evals, cell.expensive_evals), cell.adjustments,
        )
        cell_key = {"dataset": cell.dataset, "solver": cell.solver, "trial": cell.trial, "fold": cell.fold}
        _write_manifest(
            cell_dir / "manifest.json", "benchmark-cell", dict(config_echo, cell=cell_key), out_dir,
            cell.seed, clock, dict(results, error=cell.error), dataset_stats=stats[cell.dataset],
        )

    failures = sum(1 for c in summary.cells if c.error is not None)
    results = {
        "baseline": summary.baseline,
        "cells": len(summary.cells),
        "failed_cells": failures,
        "rows": [dict(zip(SUMMARY_HEADER.split(","), row)) for row in rows],
    }
    _write_manifest(out_dir / "manifest.json", "benchmark", config_echo, out_dir, cfg.seed, clock, results)
    print(
        f"benchmark: {len(summary.rows)} summary rows, {len(summary.cells)} cells "
        f"({failures} failed) -> {out_dir}"
    )
    return 0


def cmd_landscape(args: argparse.Namespace) -> int:
    cfg = _parse_config(args)
    out_dir = _resolve_output_dir(cfg.output_dir)
    ds = _load_dataset(cfg.dataset)

    started_at = _utc_now()
    rhos = landscape_similarity(
        ds, s=cfg.s, lam=cfg.lam, n_points=cfg.n_points, n_repeats=cfg.repeats, seed=cfg.seed
    )
    finished_at = _utc_now()

    mean_rho = float(np.mean(rhos))
    variance_rho = float(np.var(rhos, ddof=1)) if len(rhos) > 1 else 0.0
    rows = [(str(i), repr(rho)) for i, rho in enumerate(rhos)]
    _drop_manifest(out_dir)
    _write_csv(out_dir / "landscape.csv", LANDSCAPE_HEADER, rows + [("mean", repr(mean_rho))])
    _write_manifest(
        out_dir / "manifest.json", "landscape", echo(cfg), out_dir, cfg.seed, (started_at, finished_at),
        {"mean_rho": mean_rho, "variance_rho": variance_rho, "rhos": list(rhos)},
        dataset_stats=_dataset_stats(cfg.dataset, ds),
    )
    print(f"landscape: mean rho {mean_rho:.4f} over {cfg.repeats} repeats -> {out_dir}")
    return 0


def cmd_costmodel(args: argparse.Namespace) -> int:
    cfg = _parse_config(args)
    out_dir = _resolve_output_dir(cfg.output_dir)
    ds = _load_dataset(cfg.dataset)

    started_at = _utc_now()
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.rates))
    timed = []
    for rate, child in zip(cfg.rates, children):
        rng = np.random.default_rng(child)
        view = stratified_sample(ds, rate, rng)
        weights = rng.uniform(-1.0, 1.0, size=(cfg.repetitions, ds.dim))
        # untimed: the first evaluation builds the view's cached row copies
        objective(weights[0], view, DEFAULT_LAM)
        # each call's CPU seconds, and their median: a call on a small view
        # takes well under a millisecond, so one preempted call or a wall-clock
        # mean would swing the ratio
        seconds = []
        for w in weights:
            start = time.process_time()
            objective(w, view, DEFAULT_LAM)
            seconds.append(time.process_time() - start)
        timed.append((rate, statistics.median(seconds)))
    finished_at = _utc_now()

    base_seconds = next((sec for rate, sec in timed if rate == DEFAULT_RATE), timed[0][1])
    # the model's time ratio to the protocol rate: (rate / DEFAULT_RATE)^2
    base_cost = expensive_cost(DEFAULT_RATE)
    # costmodel.csv's columns are also the keys of the manifest's rows
    rows = [
        (str(rate), str(base_cost / expensive_cost(rate)), sec, sec / base_seconds if base_seconds > 0 else float("nan"))
        for rate, sec in timed
    ]
    _drop_manifest(out_dir)
    _write_csv(
        out_dir / "costmodel.csv",
        COSTMODEL_HEADER,
        ((rate, ratio, repr(sec), repr(measured)) for rate, ratio, sec, measured in rows),
    )
    _write_manifest(
        out_dir / "manifest.json", "costmodel", echo(cfg), out_dir, cfg.seed, (started_at, finished_at),
        {"rows": [dict(zip(COSTMODEL_HEADER.split(","), row)) for row in rows]},
        dataset_stats=_dataset_stats(cfg.dataset, ds),
    )
    print(f"costmodel: {len(rows)} rates timed on {cfg.dataset} -> {out_dir}")
    return 0


def cmd_validate_config(args: argparse.Namespace) -> int:
    _parse_config(args)
    print(f"ok: valid {args.kind} config")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emtauc",
        description="Budget-aware evolutionary multitasking for AUC-optimal linear rankers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        if output:
            p.add_argument("--output-dir", dest="output_dir", default=None, help="override the output directory")

    p_run = sub.add_parser("run", help="one solver run; writes trace.csv and manifest.json")
    add_common(p_run)
    p_run.add_argument("--dataset", default=None, help="override the dataset path")
    p_run.add_argument("--budget", default=None, help="override the evaluation budget")
    p_run.add_argument("--jobs", type=int, default=None, help="accepted for existing configs; has no effect")
    p_run.add_argument(
        "--trace-stride", dest="trace_stride", type=int, default=None,
        help="record every k-th generation in trace.csv",
    )
    p_run.set_defaults(handler=cmd_run)

    p_bench = sub.add_parser(
        "benchmark", help="cross-validated solver comparison; writes summary.csv and cell manifests"
    )
    add_common(p_bench)
    p_bench.add_argument("--jobs", type=int, default=None, help="parallel benchmark cells (processes)")
    p_bench.set_defaults(handler=cmd_benchmark)

    p_land = sub.add_parser(
        "landscape", help="cheap/expensive objective rank correlation; writes landscape.csv"
    )
    add_common(p_land)
    p_land.set_defaults(handler=cmd_landscape)

    p_cost = sub.add_parser(
        "costmodel", help="theoretical and measured evaluation cost per sampling rate"
    )
    add_common(p_cost)
    p_cost.set_defaults(handler=cmd_costmodel)

    p_val = sub.add_parser("validate-config", help="parse a config file and report problems")
    p_val.add_argument(
        "--kind", choices=sorted(_CONFIG_PARSERS), default="run", help="which config shape to check"
    )
    add_common(p_val, output=False)
    p_val.set_defaults(handler=cmd_validate_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
