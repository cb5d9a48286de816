"""Run the benchmark on one or more source trees and write one snapshot file.

    python scripts/bench_snapshot.py --out BENCH.json --tree parent=PARENT_CLONE --tree change=CHANGE_CLONE

Each ``--tree LABEL=DIR`` names a checkout that holds ``perfbench/`` and
``src/``; give at least one. Trees that are compared should be alike
apart from their commits, two fresh clones say, not one clone and a
working checkout: on the large workload a working checkout read a few
percent slower than a clone of the same code. For every workload of
``BENCHMARK.json`` and every seed, each tree runs its own, unchanged ``perfbench/run.py --trace 0`` once, in a
fresh process from the tree's root; the tree that goes first alternates
from seed to seed, so the runs of a seed form a pair that shares the
machine's conditions. Then each tree runs ``--trace 1`` once, on the
first seed, for the per-layer metrics.

The snapshot is one JSON object:

* ``seconds`` (``BENCHMARK.json``'s ``run_seconds``, which every run
  uses), ``seeds``, ``workloads`` and ``command``: what was run;
* ``trees``: per label, the commit (``run.py``'s ``git_commit``) and the
  sha256 of ``git diff HEAD -- src``, null when ``src`` is committed;
* ``machine``: the machine facts ``run.py`` prints;
* ``results``: per workload and tree, every end-to-end metric of
  ``BENCHMARK.json`` with its unit, each run's value in seed order, the
  median and the quartiles (``statistics.quantiles``, inclusive), the
  runs attempted and failed, and the per-layer metrics of the traced run;
* ``pairs``: with two trees, per workload and end-to-end metric, on how
  many seeds the second tree's run was better than the first tree's, in
  the direction ``BENCHMARK.json`` gives, and on how many they tied;
* ``caveats``: metrics whose names say more than they measure.

A run that exits non-zero is kept as a null value with its exit code.
Reading the numbers is left to the reader: the script decides nothing.
"""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
# one machine fact: a name, "=", and a Python literal (run.py prints repr())
_FACT = re.compile(r"(\w+)=('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"|\S+)")

CAVEATS = {
    "solvers._eval_batch.parallel_speedup": (
        "the share of _eval_batch time that objective_batch spans cover, not a speedup: every "
        "evaluation runs on the calling thread"
    ),
    "solvers.mfea.jobs2_over_jobs1": "about 1 by construction: dispatch_solver's jobs argument has no effect",
    "environment.CostLedger.charge.calls": "counts batches, one per _evaluate call, not charged rows",
    "environment.CostLedger.charge.self_s": "time per batch charge, not per charged row",
    "environment.CostLedger.charge.mfea_share": "share of batch charges, not of charged rows",
    "evaluation.rows_charged_ratio": "charge calls (batches) per evaluated row, not charged rows per row",
    "solvers.pm_mutation.self_s": "one span per variation pass over a whole generation, not per child",
    "solvers.sbx_crossover.self_s": "one span per variation pass over a whole generation, not per pair",
    "evaluation.objective_batch.bytes_computed": (
        "counts the CSR arrays of the view, also on calls that counted on the dense copy (certified path)"
    ),
    "evaluation.objective_batch.flops_computed": (
        "counts CSR work, also on calls that counted on the dense copy (certified path)"
    ),
    "trace.overhead_ratio": (
        "per-call spans add their own cost, the most on paper-size calls, and every per-layer time includes it"
    ),
    "auc.mean": (
        "the mean over every solve that fits into --seconds, so it moves with speed even when every "
        "solve gives the same bytes"
    ),
    "peak_rss_mb": "moves by 1-3 MB with heap fragmentation and the host",
    "setup_s": "a few milliseconds on the small workloads, so it spreads widely from run to run",
}


def parse_trees(specs: list[str]) -> dict[str, Path]:
    trees = {}
    for spec in specs:
        label, sep, path = spec.partition("=")
        if not sep or not label or label in trees:
            raise SystemExit(f"--tree wants a new LABEL=DIR, got {spec!r}")
        trees[label] = Path(path).resolve()
        if not (trees[label] / "perfbench" / "run.py").is_file():
            raise SystemExit(f"no perfbench/run.py under {path}")
    return trees


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise SystemExit(f"empty seed range {text!r}")
    return seeds


def src_diff_sha256(tree: Path) -> str | None:
    done = subprocess.run(["git", "diff", "HEAD", "--", "src"], cwd=tree, capture_output=True, timeout=60)
    if done.returncode != 0 or not done.stdout:
        return None
    return hashlib.sha256(done.stdout).hexdigest()


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` process: its result line, its machine facts and its
    exit code."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    machine = next((line for line in lines if line.startswith("machine ")), "")
    facts = {key: ast.literal_eval(value) for key, value in _FACT.findall(machine[len("machine "):])}
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print(f"{workload} seed {seed} trace {trace} {tree.name}: exit {done.returncode}", file=sys.stderr, flush=True)
    return {"returncode": done.returncode, "result": result, "machine": facts}


def summary(values: list[float | None]) -> dict:
    kept = [v for v in values if v is not None]
    out = {"runs": values, "median": statistics.median(kept) if kept else None}
    if len(kept) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(kept, n=4, method="inclusive")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("2801-2805"), metavar="FIRST-LAST")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in BENCHMARK["workloads"]])
    args = parser.parse_args(argv)
    trees = parse_trees(args.tree)
    labels = list(trees)
    end_to_end = {m["name"]: m for m in BENCHMARK["end_to_end"]}

    snapshot = {
        "command": BENCHMARK["command"],
        "seconds": BENCHMARK["run_seconds"],
        "seeds": args.seeds,
        "workloads": args.workloads,
        "trees": {label: {"commit": None, "src_diff_sha256": src_diff_sha256(tree)} for label, tree in trees.items()},
        "machine": None,
        "results": {},
        "caveats": CAVEATS,
    }
    if len(labels) == 2:
        snapshot["pairs"] = {"baseline": labels[0], "candidate": labels[1]}
    for workload in args.workloads:
        runs = {label: [] for label in labels}
        for i, seed in enumerate(args.seeds):
            order = labels[i % len(labels):] + labels[: i % len(labels)]
            for label in order:
                runs[label].append(run_once(trees[label], workload, seed, 0))
        traced = {label: run_once(trees[label], workload, args.seeds[0], 1) for label in labels}
        per_tree = {}
        for label in labels:
            results = [run["result"] for run in runs[label]]
            machine = next((run["machine"] for run in runs[label] if run["machine"]), {})
            snapshot["trees"][label]["commit"] = machine.get("git_commit")
            snapshot["machine"] = {k: v for k, v in machine.items() if k not in ("git_commit", "workload_seed")}
            metrics = {}
            for name, meta in end_to_end.items():
                values = [r["metrics"][name]["value"] if r and name in r["metrics"] else None for r in results]
                metrics[name] = {"unit": meta["unit"], "better": meta["better"], **summary(values)}
            traced_result = traced[label]["result"]
            per_tree[label] = {
                "attempted": sum(r["attempted"] for r in results if r),
                "failed": sum(r["failed"] for r in results if r),
                "exit_codes": [run["returncode"] for run in runs[label]],
                "end_to_end": metrics,
                "per_layer": traced_result["metrics"] if traced_result else None,
                "per_layer_exit_code": traced[label]["returncode"],
            }
        snapshot["results"][workload] = per_tree
        if len(labels) == 2:
            base, new = (per_tree[label]["end_to_end"] for label in labels)
            pairs = {}
            for name, meta in end_to_end.items():
                both = [(a, b) for a, b in zip(base[name]["runs"], new[name]["runs"]) if a is not None and b is not None]
                wins = sum((b > a) if meta["better"] == "higher" else (b < a) for a, b in both)
                pairs[name] = {"wins": wins, "ties": sum(a == b for a, b in both), "of": len(both)}
            snapshot["pairs"][workload] = pairs
        args.out.write_text(json.dumps(snapshot, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
