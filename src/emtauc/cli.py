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
import re
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    BenchmarkEntry,
    landscape_similarity,
    run_benchmark,
)
from .config import (
    BenchmarkConfig,
    ConfigError,
    CostModelConfig,
    LandscapeConfig,
    RunConfig,
    echo,
)
from .data import DataError, parse_libsvm_path, scale_features, stratified_sample
from .environment import TaskId, build_environment
from .evaluation import auc_metric, objective
from .solvers import dispatch_solver

TRACE_HEADER = "generation,cumulative_cost,best_objective_expensive,best_auc_expensive,best_objective_cheap,adjust_event"
SUMMARY_HEADER = "dataset,solver,mean_auc,std_auc,n,verdict"
LANDSCAPE_HEADER = "repeat,rho"
COSTMODEL_HEADER = "rate,theoretical_ratio,measured_mean_seconds,measured_ratio"

_BASE_RATE = Fraction(1, 10)


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


def _apply_overrides(d: dict, args: argparse.Namespace, keys: tuple[str, ...]) -> dict:
    out = dict(d)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            out[key] = value
    return out


def _resolve_output_dir(configured: str | None) -> Path:
    chosen = configured or os.environ.get("EMTAUC_OUTPUT_DIR") or "emtauc-out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_dataset(path: str):
    ds = parse_libsvm_path(path)
    return scale_features(ds)


def _dataset_stats(path: str, ds) -> dict:
    return {
        "path": path,
        "instances": ds.n,
        "features": ds.dim,
        "positives": ds.t_pos,
        "negatives": ds.t_neg,
    }


def _write_manifest(path: Path, manifest: dict) -> None:
    text = json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_trace(path: Path, trace, stride: int) -> None:
    """One row per recorded generation, filtered to every ``stride``-th
    generation; the first and last recorded rows always appear."""
    lines = [TRACE_HEADER]
    last = len(trace) - 1
    for idx, point in enumerate(trace):
        if idx != last and point.generation % stride != 0:
            continue
        lines.append(
            ",".join(
                (
                    str(point.generation),
                    repr(float(point.cumulative_cost)),
                    _fmt(point.best_objective_expensive),
                    _fmt(point.best_auc_expensive),
                    _fmt(point.best_objective_cheap),
                    str(int(point.adjust_event)),
                )
            )
        )
    _write_lines(path, lines)


def _derived_seeds(seed: int) -> tuple[int, int]:
    env_seed, solver_seed = np.random.SeedSequence(seed).generate_state(2, dtype=np.uint64)
    return int(env_seed), int(solver_seed)


def cmd_run(args: argparse.Namespace) -> int:
    raw = _apply_overrides(
        _load_config_dict(args.config),
        args,
        ("seed", "output_dir", "dataset", "budget", "jobs", "trace_stride"),
    )
    cfg = RunConfig.from_dict(raw)
    out_dir = _resolve_output_dir(cfg.output_dir)
    ds = _load_dataset(cfg.dataset)

    started_at = _utc_now()
    env_seed, solver_seed = _derived_seeds(cfg.seed)
    env = build_environment(
        ds, s=cfg.s, lam=cfg.lam, delta=cfg.delta, budget=cfg.budget, seed=env_seed
    )
    result = dispatch_solver(env, replace(cfg.solver, seed=solver_seed), jobs=cfg.jobs)
    finished_at = _utc_now()

    write_trace(out_dir / "trace.csv", result.trace, cfg.trace_stride)

    if result.best_weights is None:
        train_auc = None
    else:
        train_auc = float(auc_metric(result.best_weights, env.tasks[TaskId.EXPENSIVE].view))
    manifest = {
        "artifact_version": __version__,
        "command": "run",
        "config": dict(echo(cfg), output_dir=str(out_dir)),
        "seed": cfg.seed,
        "derived_seeds": {"environment": env_seed, "solver": solver_seed},
        "started_at": started_at,
        "finished_at": finished_at,
        "dataset_stats": _dataset_stats(cfg.dataset, ds),
        "results": {
            "solver_kind": result.kind,
            "final_best_objective": result.best_objective,
            "final_train_auc": train_auc,
            "final_test_auc": None,
            "total_cost_spent": float(env.ledger.spent),
            "total_cost_spent_exact": str(env.ledger.spent),
            "budget": str(env.ledger.budget),
            "evaluations": {
                "cheap": env.ledger.evals[TaskId.CHEAP],
                "expensive": env.ledger.evals[TaskId.EXPENSIVE],
            },
            "generations": result.trace[-1].generation,
            "adjustments": [
                {"generation": e.generation, "view_fingerprint": e.view_fingerprint}
                for e in env.adjustment_log
            ],
        },
    }
    _write_manifest(out_dir / "manifest.json", manifest)
    print(
        f"run: solver={result.kind} best_objective={_fmt(result.best_objective) or 'n/a'} "
        f"train_auc={_fmt(train_auc) or 'n/a'} spent={float(env.ledger.spent)!r} -> {out_dir}"
    )
    return 0


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def cmd_benchmark(args: argparse.Namespace) -> int:
    raw = _apply_overrides(
        _load_config_dict(args.config), args, ("seed", "output_dir", "jobs")
    )
    cfg = BenchmarkConfig.from_dict(raw)
    out_dir = _resolve_output_dir(cfg.output_dir)

    datasets = {}
    stats = {}
    for path in cfg.datasets:
        name = Path(path).stem
        if name in datasets:
            raise ConfigError(f"benchmark config.datasets: duplicate dataset name {name!r}")
        ds = _load_dataset(path)
        datasets[name] = ds
        stats[name] = _dataset_stats(path, ds)

    entries = [
        BenchmarkEntry(label=spec.label, config=spec.config, delta=spec.delta)
        for spec in cfg.solvers
    ]

    started_at = _utc_now()
    summary = run_benchmark(
        datasets,
        entries,
        trials=cfg.trials,
        folds=cfg.folds,
        base_seed=cfg.seed,
        s=cfg.s,
        lam=cfg.lam,
        budget=cfg.budget,
        baseline=cfg.baseline,
        jobs=cfg.jobs,
    )
    finished_at = _utc_now()

    lines = [SUMMARY_HEADER]
    for row in summary.rows:
        lines.append(
            ",".join(
                (
                    row.dataset,
                    row.solver,
                    _fmt(row.mean),
                    _fmt(row.std),
                    str(row.n),
                    row.verdict,
                )
            )
        )
    _write_lines(out_dir / "summary.csv", lines)

    config_echo = dict(echo(cfg), output_dir=str(out_dir), baseline=summary.baseline)

    cells_dir = out_dir / "cells"
    for cell in summary.cells:
        cell_dir = cells_dir / _safe_name(
            f"{cell.dataset}__{cell.solver}__t{cell.trial}_f{cell.fold}"
        )
        cell_dir.mkdir(parents=True, exist_ok=True)
        cell_manifest = {
            "artifact_version": __version__,
            "command": "benchmark-cell",
            "config": dict(
                config_echo,
                cell={
                    "dataset": cell.dataset,
                    "solver": cell.solver,
                    "trial": cell.trial,
                    "fold": cell.fold,
                },
            ),
            "seed": cell.seed,
            "started_at": started_at,
            "finished_at": finished_at,
            "dataset_stats": stats[cell.dataset],
            "results": {
                "final_best_objective": cell.best_objective,
                "final_train_auc": cell.train_auc,
                "final_test_auc": cell.auc,
                "total_cost_spent": None if cell.spent is None else float(cell.spent),
                "total_cost_spent_exact": None if cell.spent is None else str(cell.spent),
                "budget": str(cfg.budget),
                "evaluations": {
                    "cheap": cell.cheap_evals,
                    "expensive": cell.expensive_evals,
                },
                "adjustments": [
                    {"generation": g, "view_fingerprint": fp} for g, fp in cell.adjustments
                ],
                "error": cell.error,
            },
        }
        _write_manifest(cell_dir / "manifest.json", cell_manifest)

    failures = sum(1 for c in summary.cells if c.error is not None)
    manifest = {
        "artifact_version": __version__,
        "command": "benchmark",
        "config": config_echo,
        "seed": cfg.seed,
        "started_at": started_at,
        "finished_at": finished_at,
        "results": {
            "baseline": summary.baseline,
            "cells": len(summary.cells),
            "failed_cells": failures,
            "rows": [
                {
                    "dataset": row.dataset,
                    "solver": row.solver,
                    "mean_auc": row.mean,
                    "std_auc": row.std,
                    "n": row.n,
                    "verdict": row.verdict,
                }
                for row in summary.rows
            ],
        },
    }
    _write_manifest(out_dir / "manifest.json", manifest)
    print(
        f"benchmark: {len(summary.rows)} summary rows, {len(summary.cells)} cells "
        f"({failures} failed) -> {out_dir}"
    )
    return 0


def cmd_landscape(args: argparse.Namespace) -> int:
    raw = _apply_overrides(
        _load_config_dict(args.config), args, ("seed", "output_dir")
    )
    cfg = LandscapeConfig.from_dict(raw)
    out_dir = _resolve_output_dir(cfg.output_dir)
    ds = _load_dataset(cfg.dataset)

    started_at = _utc_now()
    report = landscape_similarity(
        ds, s=cfg.s, lam=cfg.lam, n_points=cfg.n_points, n_repeats=cfg.repeats, seed=cfg.seed
    )
    finished_at = _utc_now()

    lines = [LANDSCAPE_HEADER]
    for i, rho in enumerate(report.rhos):
        lines.append(f"{i},{repr(rho)}")
    lines.append(f"mean,{repr(report.mean)}")
    _write_lines(out_dir / "landscape.csv", lines)

    manifest = {
        "artifact_version": __version__,
        "command": "landscape",
        "config": dict(echo(cfg), output_dir=str(out_dir)),
        "seed": cfg.seed,
        "started_at": started_at,
        "finished_at": finished_at,
        "dataset_stats": _dataset_stats(cfg.dataset, ds),
        "results": {
            "mean_rho": report.mean,
            "variance_rho": report.variance,
            "rhos": list(report.rhos),
        },
    }
    _write_manifest(out_dir / "manifest.json", manifest)
    print(f"landscape: mean rho {report.mean:.4f} over {cfg.repeats} repeats -> {out_dir}")
    return 0


def cmd_costmodel(args: argparse.Namespace) -> int:
    raw = _apply_overrides(
        _load_config_dict(args.config), args, ("seed", "output_dir")
    )
    cfg = CostModelConfig.from_dict(raw)
    out_dir = _resolve_output_dir(cfg.output_dir)
    ds = _load_dataset(cfg.dataset)
    lam = 0.125

    started_at = _utc_now()
    children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.rates))
    rows = []
    for rate, child in zip(cfg.rates, children):
        rng = np.random.default_rng(child)
        view = stratified_sample(ds, rate, rng)
        weights = rng.uniform(-1.0, 1.0, size=(cfg.repetitions, ds.dim))
        start = time.perf_counter()
        for w in weights:
            objective(w, view, lam)
        mean_seconds = (time.perf_counter() - start) / cfg.repetitions
        rows.append(
            {
                "rate": rate,
                "theoretical_ratio": (rate / _BASE_RATE) ** 2,
                "measured_mean_seconds": mean_seconds,
            }
        )
    finished_at = _utc_now()

    base_row = next((r for r in rows if r["rate"] == _BASE_RATE), rows[0])
    base_seconds = base_row["measured_mean_seconds"]
    lines = [COSTMODEL_HEADER]
    for row in rows:
        measured_ratio = (
            row["measured_mean_seconds"] / base_seconds if base_seconds > 0 else float("nan")
        )
        row["measured_ratio"] = measured_ratio
        lines.append(
            ",".join(
                (
                    str(row["rate"]),
                    str(row["theoretical_ratio"]),
                    repr(row["measured_mean_seconds"]),
                    repr(measured_ratio),
                )
            )
        )
    _write_lines(out_dir / "costmodel.csv", lines)

    manifest = {
        "artifact_version": __version__,
        "command": "costmodel",
        "config": dict(echo(cfg), output_dir=str(out_dir)),
        "seed": cfg.seed,
        "started_at": started_at,
        "finished_at": finished_at,
        "dataset_stats": _dataset_stats(cfg.dataset, ds),
        "results": {
            "rows": [
                {
                    "rate": str(row["rate"]),
                    "theoretical_ratio": str(row["theoretical_ratio"]),
                    "measured_mean_seconds": row["measured_mean_seconds"],
                    "measured_ratio": row["measured_ratio"],
                }
                for row in rows
            ],
        },
    }
    _write_manifest(out_dir / "manifest.json", manifest)
    print(f"costmodel: {len(rows)} rates timed on {cfg.dataset} -> {out_dir}")
    return 0


_CONFIG_PARSERS = {
    "run": RunConfig.from_dict,
    "benchmark": BenchmarkConfig.from_dict,
    "landscape": LandscapeConfig.from_dict,
    "costmodel": CostModelConfig.from_dict,
}


def cmd_validate_config(args: argparse.Namespace) -> int:
    raw = _load_config_dict(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    _CONFIG_PARSERS[args.kind](raw)
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
    p_run.add_argument("--jobs", type=int, default=None, help="parallel evaluation threads")
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
