"""Workload definitions and the synthetic LIBSVM generators behind them.

Everything here uses numpy only, never the emtauc package: the program
under test receives nothing but the files these generators write. A
file is fully determined by its spec and the workload seed, and is cached
under ``perfbench/.cache`` keyed by both, so a repeated seed skips
generation. Generation time is part of no metric.
"""
from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
S = "1/10"  # sampling rate of the cheap task
LAM = 0.125


@dataclass(frozen=True)
class DataSpec:
    """One synthetic binary dataset: two Gaussian clouds ``sep`` apart
    along a unit direction fixed by the spec."""

    name: str
    n_pos: int
    n_neg: int
    dim: int
    sep: float = 0.5

    @property
    def n(self) -> int:
        return self.n_pos + self.n_neg


@dataclass(frozen=True)
class Sweep:
    """``run_benchmark`` settings for the sweep workload."""

    entries: tuple[tuple[str, str], ...]
    trials: int
    folds: int
    workers: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    data: tuple[DataSpec, ...]
    solvers: tuple[str, ...]
    jobs: int
    setups: int  # set-ups timed per round of the untraced pass
    budget: int = 101000
    delta: int = 30
    sweep: Sweep | None = None


DIABETES_LIKE = DataSpec("gauss-768x8", n_pos=268, n_neg=500, dim=8, sep=0.6)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-768x8-jobs2",
            why="paper scale: variation, selection and ledger outweigh evaluation, "
            "and the per-call thread pool at jobs=2 is the bottleneck",
            data=(DIABETES_LIKE,),
            solvers=("single_task_ga", "mfea", "emea"),
            jobs=2,
            setups=5,
        ),
        Workload(
            name="large-20kx50-jobs2",
            why="22 MB of dense LIBSVM text: parsing dominates set-up and the "
            "evaluation kernel dominates the solve, so the jobs=2 pool splits real work",
            data=(DataSpec("gauss-20kx50", n_pos=8000, n_neg=12000, dim=50, sep=4.0),),
            solvers=("single_task_ga", "mfea"),
            jobs=2,
            setups=1,
            budget=50500,
        ),
        Workload(
            name="sweep-cv",
            why="the only workload that runs analysis: fold splits, per-cell "
            "subsets, pickling to 2 worker processes, jobs=1 solves",
            data=(
                DIABETES_LIKE,
                DataSpec("gauss-1000x24", n_pos=300, n_neg=700, dim=24, sep=0.35),
            ),
            solvers=("single_task_ga", "mfea"),
            jobs=1,
            setups=3,
            sweep=Sweep(
                entries=(("ga", "single_task_ga"), ("mfea", "mfea")),
                trials=1,
                folds=2,
                workers=2,
            ),
        ),
    )
}


def _rng(spec: DataSpec, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(spec.name.encode())])


def _dense_rows(spec: DataSpec, rng) -> tuple[np.ndarray, np.ndarray]:
    # The class direction depends on the spec only, so every seed poses an
    # equally hard problem and auc.mean stays comparable across seeds.
    direction = np.random.default_rng(zlib.crc32(spec.name.encode())).normal(size=spec.dim)
    direction /= np.linalg.norm(direction)
    pos = rng.normal(loc=spec.sep * direction, size=(spec.n_pos, spec.dim))
    neg = rng.normal(loc=-spec.sep * direction, size=(spec.n_neg, spec.dim))
    return np.vstack([pos, neg]), np.r_[np.ones(spec.n_pos), -np.ones(spec.n_neg)]


def _write_dense(path: Path, X: np.ndarray, y: np.ndarray) -> None:
    row_fmt = "%s " + " ".join(f"{j + 1}:%r" for j in range(X.shape[1])) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, X.shape[0], 2000):
            fh.write(
                "".join(
                    row_fmt % (("+1" if label > 0 else "-1"), *row.tolist())
                    for label, row in zip(y[start:start + 2000], X[start:start + 2000])
                )
            )


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def generate(spec: DataSpec, seed: int, directory: Path = CACHE_DIR) -> tuple[Path, dict]:
    """Write (or reuse) the LIBSVM file for ``spec`` and ``seed``.

    Returns the path and its metadata: sha256, bytes, n, dim, nnz and the
    class counts. Rows are shuffled so the classes interleave.
    """
    directory.mkdir(parents=True, exist_ok=True)
    key = hashlib.sha256(repr(spec).encode()).hexdigest()[:12]
    stem = f"{spec.name}-{key}-seed{seed}"
    path = directory / f"{stem}.svm"
    meta_path = directory / f"{stem}.json"
    if path.is_file() and meta_path.is_file():
        meta = json.loads(meta_path.read_text())
        if meta.get("sha256") == _sha256(path):
            return path, meta
    rng = _rng(spec, seed)
    tmp = path.with_suffix(".tmp")
    X, y = _dense_rows(spec, rng)
    order = rng.permutation(spec.n)
    X, y = X[order], y[order]
    _write_dense(tmp, X, y)
    tmp.replace(path)
    meta = {
        "file": path.name,
        "sha256": _sha256(path),
        "bytes": path.stat().st_size,
        "n": spec.n,
        "dim": spec.dim,
        "nnz": int(np.count_nonzero(X)),
        "n_pos": int((y > 0).sum()),
        "n_neg": int((y < 0).sum()),
    }
    meta_path.write_text(json.dumps(meta, sort_keys=True) + "\n")
    return path, meta
