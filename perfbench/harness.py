"""One workload in one fresh process: set-up, closed-loop solves, output
checks and, with ``--trace 1``, the traced pass.

Started by ``run.py`` with BLAS/OpenMP threads capped at 1 and the source
tree on ``PYTHONPATH``; writes its result as JSON to ``--result``. Only the
library's public entry points are driven. One caller runs the loop: the
next solve starts when the previous one has finished.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from emtauc import (
    BenchmarkEntry,
    SolverConfig,
    TaskId,
    build_environment,
    cli,
    dispatch_solver,
    parse_libsvm_path,
    run_benchmark,
    scale_features,
)
from tracing import Tracer, instrumented, self_times
from workloads import LAM, S, WORKLOADS, Workload


def round_seeds(seed: int, r: int) -> tuple[int, int]:
    """Environment and solver seed of round ``r``: a fixed list per seed."""
    a, b = np.random.SeedSequence([seed, r]).generate_state(2, dtype=np.uint64)
    return int(a) >> 1, int(b) >> 1


def cpu_clock() -> float:
    """CPU seconds used so far by this process, all its threads, and its
    reaped child processes (user plus system time).

    Timings use CPU time, not wall time: on a shared host the wall time of
    the same work swings with the load of other tenants, most of all when
    the solver's threads wait for a core, while CPU time does not count
    the waits. Thread-pool overhead still shows, as the CPU spent starting
    threads and handing the GIL between them.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def _span(tracer, name, attrs=None):
    return tracer.span(name, attrs) if tracer is not None else nullcontext({})


def set_up(w: Workload, paths, tracer=None):
    """LIBSVM files on disk to scaled datasets and a ready Environment each."""
    datasets, raw_nnz = [], 0
    for path in paths:
        with _span(tracer, "data.parse_libsvm", {"bytes": Path(path).stat().st_size}):
            raw = parse_libsvm_path(path)
        with _span(tracer, "data.scale_features", {"nnz_in": raw.X.nnz}) as attrs:
            ds = scale_features(raw)
            attrs["nnz_out"] = ds.X.nnz
        raw_nnz += raw.X.nnz
        with _span(tracer, "environment.build_environment"):
            build_environment(ds, s=S, lam=LAM, delta=w.delta, budget=w.budget, seed=0)
        datasets.append(ds)
    return datasets, raw_nnz


# ---------------------------------------------------------------- checks


def ledger_problems(spent, cheap, expensive, budget, s: Fraction) -> list[str]:
    """spent == cheap + expensive/s^2 exactly, and budget <= spent < budget + 1/s^2."""
    per_expensive = 1 / (s * s)
    out = []
    if spent != cheap + expensive * per_expensive:
        out.append(f"ledger identity: spent {spent} != {cheap} + {expensive}*{per_expensive}")
    if not budget <= spent < budget + per_expensive:
        out.append(f"ledger bounds: spent {spent} outside [{budget}, {budget + per_expensive})")
    return out


def brute_force_objective(ds, w: np.ndarray, lam: float) -> tuple[float, float]:
    """Objective and AUC of ``w`` on all of ``ds`` from an explicit pairwise
    comparison of decision values (ties count as losses); independent of
    ``emtauc.evaluation``."""
    f = ds.X @ w
    f_pos, f_neg = f[ds.pos_idx], f[ds.neg_idx]
    step = max(1, 4_000_000 // f_neg.size)
    losses = 0
    for i in range(0, f_pos.size, step):
        losses += int(np.count_nonzero(f_pos[i:i + step, None] <= f_neg[None, :]))
    pairs = f_pos.size * f_neg.size
    W = w[np.newaxis, :]
    obj = losses / pairs + 0.5 * lam * np.einsum("ij,ij->i", W, W)[0]
    return float(obj), 1.0 - losses / pairs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def solve(w, ds, kind, r, seed, jobs, out: Path, tracer=None) -> dict:
    """One closed-loop solve plus its output checks (outside the clock)."""
    env_seed, solver_seed = round_seeds(seed, r)
    env = build_environment(ds, s=S, lam=LAM, delta=w.delta, budget=w.budget, seed=env_seed)
    config = SolverConfig(kind=kind, seed=solver_seed)
    with _span(tracer, "solve", {"kind": kind}):
        start, cpu_start = perf_counter(), cpu_clock()
        result = dispatch_solver(env, config, jobs=jobs)
        seconds, wall = cpu_clock() - cpu_start, perf_counter() - start
    path = out / f"{kind}-r{r}-jobs{jobs}-{'traced' if tracer else 'plain'}.csv"
    with _span(tracer, "cli.write_trace") as attrs:
        cli.write_trace(path, result.trace, 1)
    attrs["bytes"] = path.stat().st_size
    ledger = env.ledger
    problems = ledger_problems(
        ledger.spent, ledger.evals[TaskId.CHEAP], ledger.evals[TaskId.EXPENSIVE], ledger.budget, env.s
    )
    auc = None
    if result.best_weights is None:
        problems.append("no expensive evaluation")
    else:
        obj, auc = brute_force_objective(ds, result.best_weights, LAM)
        if obj != result.best_objective:
            problems.append(f"recount {obj!r} != best_objective {result.best_objective!r}")
    return {
        "kind": kind,
        "seconds": seconds,
        "wall": wall,
        "spent": ledger.spent,
        "auc": auc,
        "generations": len(result.trace) - 1,
        "digest": _sha256(path),
        "problems": problems,
    }


def sweep(w, datasets, r, seed, workers) -> dict:
    """One ``run_benchmark`` call plus its per-cell checks."""
    entries = [
        BenchmarkEntry(label, SolverConfig(kind=kind), delta=w.delta) for label, kind in w.sweep.entries
    ]
    named = {spec.name: ds for spec, ds in zip(w.data, datasets)}
    start, cpu_start = perf_counter(), cpu_clock()
    summary = run_benchmark(
        named, entries, trials=w.sweep.trials, folds=w.sweep.folds, base_seed=round_seeds(seed, r)[0],
        s=S, lam=LAM, budget=w.budget, jobs=workers,
    )
    seconds, wall = cpu_clock() - cpu_start, perf_counter() - start
    failed, spent, aucs, notes = 0, Fraction(0), [], []
    for cell in summary.cells:
        problems = [] if cell.error is None else [f"cell error: {cell.error}"]
        if cell.error is None:
            problems += ledger_problems(
                cell.spent, cell.cheap_evals, cell.expensive_evals, Fraction(w.budget), Fraction(S)
            )
            if not 0.0 <= cell.auc <= 1.0:
                problems.append(f"held-out AUC {cell.auc} outside [0, 1]")
            spent += cell.spent
            aucs.append(cell.auc)
        failed += bool(problems)
        notes += problems
    return {
        "seconds": seconds,
        "wall": wall,
        "cells": len(summary.cells),
        "failed": failed,
        "notes": notes,
        "spent": spent,
        "aucs": aucs,
    }


# ---------------------------------------------------------------- passes


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 samples above it, but never
    below the upper quartile, as (value, percentile, n). Below 40 samples
    the quartile applies, with fewer than 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(n - 10, math.ceil(0.75 * n))
    return ordered[k - 1], 100.0 * k / n, n


def untraced_pass(w: Workload, paths, seconds: float, seed: int, out: Path) -> dict:
    notes, attempted, failed = [], 0, 0
    setup_times, unit_times, spent, aucs = [], [], Fraction(0), []
    unit_walls = []
    first = None
    start, r = perf_counter(), 0
    while r == 0 or perf_counter() - start < seconds:
        # Set-ups are spread over the run so that they sample the same
        # machine conditions as the solves.
        for _ in range(w.setups):
            # A Dataset and its cached full view form a reference cycle, so
            # the previous copy is only freed by a collection; free it before
            # building the next so that peak RSS does not depend on GC timing.
            datasets = None
            gc.collect()
            setup_start = cpu_clock()
            datasets, _ = set_up(w, paths)
            setup_times.append(cpu_clock() - setup_start)
        if w.sweep is not None:
            res = sweep(w, datasets, r, seed, w.sweep.workers)
            attempted += res["cells"]
            failed += res["failed"]
            notes += res["notes"]
            unit_times.append(res["seconds"])
            unit_walls.append(res["wall"])
            spent += res["spent"]
            aucs += res["aucs"]
        else:
            for kind in w.solvers:
                rec = solve(w, datasets[0], kind, r, seed, w.jobs, out)
                first = first or rec
                attempted += 1
                failed += bool(rec["problems"])
                notes += rec["problems"]
                unit_times.append(rec["seconds"])
                unit_walls.append(rec["wall"])
                spent += rec["spent"]
                if rec["auc"] is not None:
                    aucs.append(rec["auc"])
        r += 1

    if first is not None:
        # The first solve once more under tracing: trace.csv must not change.
        with instrumented(Tracer()) as tracer:
            replay = solve(w, datasets[0], first["kind"], 0, seed, w.jobs, out, tracer)
        attempted += 1
        problems = replay["problems"]
        if replay["digest"] != first["digest"]:
            problems.append(f"traced trace.csv differs for {first['kind']} round 0")
        failed += bool(problems)
        notes += problems

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if w.sweep is not None:
        peak_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    tail_value, tail_pct, tail_n = tail(unit_times)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_cpu_s.p50": (statistics.median(unit_times), "s"),
        "solve_cpu_s.tail": (tail_value, "s"),
        "units_per_cpu_s": (float(spent) / sum(unit_times), "unit/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "auc.mean": (statistics.fmean(aucs) if aucs else 0.0, "ratio"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    details = {
        "rounds": r,
        "setup_s.samples": [round(t, 4) for t in setup_times],
        "solve_cpu_s.samples": [round(t, 4) for t in unit_times],
        "solve_cpu_s.tail.percentile": tail_pct,
        "solve_cpu_s.tail.n": tail_n,
        "solve_wall_s.samples": [round(t, 4) for t in unit_walls],
        "solve_wall_s.p50": round(statistics.median(unit_walls), 4),
        "solve_unit": "run_benchmark call" if w.sweep is not None else "dispatch_solver call",
    }
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics, "details": details}


def traced_pass(w: Workload, paths, seconds: float, seed: int, out: Path) -> dict:
    tracer = Tracer()
    start = cpu_clock()
    set_up(w, paths)
    plain_total = cpu_clock() - start
    tracer.run = "setup"
    start = cpu_clock()
    datasets, raw_nnz = set_up(w, paths, tracer)
    traced_total = cpu_clock() - start

    notes, attempted, failed = [], 0, 0
    alt_jobs = 1 if w.jobs > 1 else 2
    jobs_time = {w.jobs: 0.0, alt_jobs: 0.0}
    parallel_s = 0.0
    generations = []
    start, r = perf_counter(), 0
    while r == 0 or perf_counter() - start < seconds:
        for kind in w.solvers:
            plain = solve(w, datasets[0], kind, r, seed, w.jobs, out)
            tracer.run = f"{kind}-r{r}"
            with instrumented(tracer):
                traced = solve(w, datasets[0], kind, r, seed, w.jobs, out, tracer)
            if plain["digest"] != traced["digest"]:
                traced["problems"].append(f"traced trace.csv differs for {kind} round {r}")
            for rec in (plain, traced):
                attempted += 1
                failed += bool(rec["problems"])
                notes += rec["problems"]
            plain_total += plain["seconds"]
            traced_total += traced["seconds"]
            generations.append(traced["generations"])
            if kind == "mfea":
                alt = solve(w, datasets[0], kind, r, seed, alt_jobs, out)
                if alt["digest"] != plain["digest"]:
                    alt["problems"].append(f"trace.csv differs between jobs={w.jobs} and jobs={alt_jobs}")
                attempted += 1
                failed += bool(alt["problems"])
                notes += alt["problems"]
                jobs_time[w.jobs] += plain["wall"]
                jobs_time[alt_jobs] += alt["wall"]
        if w.sweep is not None:
            parallel = sweep(w, datasets, r, seed, w.sweep.workers)
            serial = sweep(w, datasets, r, seed, 1)
            tracer.run = f"sweep-r{r}"
            with instrumented(tracer):
                traced = sweep(w, datasets, r, seed, 1)
            for res in (parallel, serial, traced):
                attempted += res["cells"]
                failed += res["failed"]
                notes += res["notes"]
            plain_total += serial["seconds"]
            traced_total += traced["seconds"]
            parallel_s += parallel["wall"]
        r += 1

    tracer.write_jsonl(out / "spans.jsonl")
    metrics = layer_metrics(tracer, raw_nnz)
    cell_seconds = sum(s.end - s.start for s in tracer.spans if s.name == "analysis._execute_cell")
    metrics.update(
        {
            "solvers.generations": (statistics.fmean(generations), "count"),
            "solvers.mfea.jobs2_over_jobs1": (jobs_time[2] / jobs_time[1], "ratio"),
            "analysis.fanout_efficiency": (
                cell_seconds / (w.sweep.workers * parallel_s) if parallel_s else 0.0, "ratio"
            ),
            "trace.overhead_ratio": (traced_total / plain_total, "ratio"),
        }
    )
    if w.sweep is not None:
        notes.append(
            "analysis._execute_cell is traced only in a serial run_benchmark: worker "
            "processes receive the function by pickling, so spans there are not recorded"
        )
    details = {"rounds": r, "spans": len(tracer.spans)}
    return {"attempted": attempted, "failed": failed, "notes": notes, "metrics": metrics, "details": details}


def layer_metrics(tracer: Tracer, raw_nnz: int) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    solve_spans = by_name.get("solve", [])
    units = len(solve_spans) + len(by_name.get("analysis._execute_cell", []))
    mfea_runs = {s.run for s in solve_spans if s.attrs["kind"] == "mfea"}
    mfea_seconds = sum(s.end - s.start for s in solve_spans if s.run in mfea_runs)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.end - s.start for s in named(name))

    def mean(name):
        return total(name) / len(named(name)) if named(name) else 0.0

    def self_sum(name, runs=None):
        return sum(own[s.id] for s in named(name) if runs is None or s.run in runs)

    def per_unit(x):
        return x / units if units else 0.0

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name) if s.attrs)

    ob = "evaluation.objective_batch"
    rows = attr_sum(ob, "rows")
    row_instances = sum(s.attrs["rows"] * s.attrs["instances"] for s in named(ob) if s.attrs)
    expensive = [s for s in named(ob) if s.attrs and s.attrs["task"] == int(TaskId.EXPENSIVE)]
    expensive_rows = sum(s.attrs["rows"] for s in expensive)
    charge = "environment.CostLedger.charge"
    parse_bytes = attr_sum("data.parse_libsvm", "bytes")
    scaled_nnz = attr_sum("data.scale_features", "nnz_out")
    eval_batch_wall = total("solvers._eval_batch")

    return {
        "data.parse_libsvm.s": (mean("data.parse_libsvm"), "s"),
        "data.parse_libsvm.mb_per_s": (parse_bytes / 1e6 / total("data.parse_libsvm"), "MB/s"),
        "data.scale_features.s": (mean("data.scale_features"), "s"),
        "data.scale_features.densify_ratio": (scaled_nnz / raw_nnz, "ratio"),
        "data.subset.s": (mean("data.subset"), "s"),
        f"{ob}.calls": (per_unit(len(named(ob))), "count"),
        f"{ob}.rows": (per_unit(rows), "count"),
        f"{ob}.self_s": (per_unit(self_sum(ob)), "s"),
        f"{ob}.ns_per_row_instance": (1e9 * self_sum(ob) / row_instances if row_instances else 0.0, "ns"),
        f"{ob}.flops_computed": (per_unit(2 * sum(s.attrs["nnz"] * s.attrs["rows"] for s in named(ob) if s.attrs)), "flop"),
        f"{ob}.bytes_computed": (per_unit(attr_sum(ob, "bytes")), "B"),
        f"{ob}.expensive_s_per_20": (
            20 * sum(s.end - s.start for s in expensive) / expensive_rows if expensive_rows else 0.0, "s"
        ),
        "evaluation.rows_charged_ratio": (len(named(charge)) / rows if rows else 0.0, "ratio"),
        "evaluation.hardness_scores.self_s": (per_unit(self_sum("evaluation.hardness_scores")), "s"),
        f"{charge}.calls": (per_unit(len(named(charge))), "count"),
        f"{charge}.self_s": (per_unit(self_sum(charge)), "s"),
        f"{charge}.mfea_share": (self_sum(charge, mfea_runs) / mfea_seconds if mfea_seconds else 0.0, "ratio"),
        "environment.Environment.adjust_cheap_task.self_s": (
            per_unit(self_sum("environment.Environment.adjust_cheap_task")), "s"
        ),
        "environment.build_environment.s": (mean("environment.build_environment"), "s"),
        "solvers.pm_mutation.self_s": (per_unit(self_sum("solvers.pm_mutation")), "s"),
        "solvers.pm_mutation.mfea_share": (
            self_sum("solvers.pm_mutation", mfea_runs) / mfea_seconds if mfea_seconds else 0.0, "ratio"
        ),
        "solvers.sbx_crossover.self_s": (per_unit(self_sum("solvers.sbx_crossover")), "s"),
        "solvers._population_stats.self_s": (per_unit(self_sum("solvers._population_stats")), "s"),
        "solvers.fit_transfer_map.self_s": (per_unit(self_sum("solvers.fit_transfer_map")), "s"),
        "solvers._eval_batch.self_s": (per_unit(self_sum("solvers._eval_batch")), "s"),
        "solvers._eval_batch.parallel_speedup": (
            total(ob) / eval_batch_wall if eval_batch_wall else 0.0, "ratio"
        ),
        "cli.write_trace.s": (mean("cli.write_trace"), "s"),
        "cli.write_trace.bytes": (
            attr_sum("cli.write_trace", "bytes") / len(named("cli.write_trace")), "B"
        ),
        "analysis._execute_cell.s": (mean("analysis._execute_cell"), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("files", nargs="+")
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    result_path = Path(args.result)
    out = result_path.parent
    run = traced_pass if args.trace else untraced_pass
    result = run(w, args.files, args.seconds, args.seed, out)
    result["metrics"] = {k: {"value": float(v), "unit": u} for k, (v, u) in result["metrics"].items()}
    result_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
