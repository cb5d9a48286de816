"""Benchmark entry point; runs one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It writes the workload's LIBSVM files
from the seed, or reuses them from ``perfbench/.cache``. It then runs
``harness.py`` in a fresh process, with ``src`` on ``PYTHONPATH`` and
BLAS/OpenMP threads capped at 1. It prints the input files, machine
facts, check notes and every metric with its unit. The last line is one
JSON object with the keys correct, attempted, failed and metrics:
end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``. If the source tree is missing or the workload process
fails, it exits non-zero and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / ".out"
# One BLAS/OpenMP thread per solver thread, so jobs=2 needs no more than two cores.
THREAD_CAP = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
}
WORKLOAD_TIMEOUT_S = 170


def _first_line_value(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _first_line_value("/proc/cpuinfo", "model name"),
        "mem_total": _first_line_value("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_cap": ",".join(f"{k}={v}" for k, v in THREAD_CAP.items()),
        "git_commit": commit,
        "workload_seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "emtauc" / "__init__.py").is_file():
        print(f"error: no emtauc source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    files = [generate(spec, args.seed) for spec in workload.data]
    work_dir = OUT_DIR / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    result_path = work_dir / "result.json"
    env = dict(os.environ, **THREAD_CAP)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", workload.name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--result", str(result_path),
        *(str(path) for path, _ in files),
    ]
    try:
        try:
            done = subprocess.run(command, env=env, cwd=ROOT, timeout=WORKLOAD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: workload process exceeded {WORKLOAD_TIMEOUT_S} s", file=sys.stderr)
            return 3
        if done.returncode != 0 or not result_path.is_file():
            print(f"error: workload process exited with code {done.returncode}", file=sys.stderr)
            return 3
        result = json.loads(result_path.read_text())
        if args.trace:
            (work_dir / "spans.jsonl").replace(OUT_DIR / f"{workload.name}.spans.jsonl")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    print(f"workload {workload.name}: {workload.why}")
    for _, meta in files:
        print("input " + " ".join(f"{k}={meta[k]}" for k in sorted(meta)))
    print("machine " + " ".join(f"{k}={v!r}" for k, v in machine_facts(args.seed).items()))
    for key, value in sorted(result["details"].items()):
        print(f"detail {key} {value}")
    for note in result["notes"]:
        print(f"note {note}")
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
