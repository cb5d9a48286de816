import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

from emtauc import evaluation
from emtauc.data import Dataset, scale_features

# Real LIBSVM files are looked up here for the desk-scale reproduction tests.
# Point EMTAUC_DATA_DIR somewhere else or run scripts/fetch_datasets.py first.
DATA_DIR = Path(os.environ.get("EMTAUC_DATA_DIR", str(Path(__file__).resolve().parent.parent / "data")))

# name -> candidate file names as published in the LIBSVM binary collection
REAL_DATASETS = {
    "diabetes": ("diabetes", "diabetes.txt"),
    "fourclass": ("fourclass", "fourclass.txt", "fourclass_scale"),
    "german.numer": ("german.numer", "german.numer_scale", "german.numer.txt"),
    "australian": ("australian", "australian.txt", "australian_scale"),
    "sonar": ("sonar_scale", "sonar", "sonar.txt"),
    "svmguide3": ("svmguide3", "svmguide3.txt"),
}


def real_dataset_path(name: str) -> Path | None:
    for candidate in REAL_DATASETS[name]:
        path = DATA_DIR / candidate
        if path.is_file():
            return path
    return None


def require_real_dataset(name: str) -> Path:
    path = real_dataset_path(name)
    if path is None:
        pytest.skip(
            f"dataset {name!r} not found under {DATA_DIR}; "
            "set EMTAUC_DATA_DIR or run scripts/fetch_datasets.py on a networked machine"
        )
    return path


def make_gaussian_dataset(seed, n_pos=60, n_neg=80, dim=5, sep=0.6) -> Dataset:
    """Two Gaussian clouds pushed apart along a random direction."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=dim)
    direction /= np.linalg.norm(direction)
    pos = rng.normal(loc=sep * direction, scale=1.0, size=(n_pos, dim))
    neg = rng.normal(loc=-sep * direction, scale=1.0, size=(n_neg, dim))
    X = sparse.csr_matrix(np.vstack([pos, neg]))
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return scale_features(Dataset(X, labels))


def make_separable_dataset(seed, n_pos=40, n_neg=50, dim=3) -> Dataset:
    """Perfectly separable along feature 1; remaining features are noise."""
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n_pos, dim))
    neg = rng.normal(size=(n_neg, dim))
    pos[:, 0] = rng.uniform(0.2, 1.0, size=n_pos)
    neg[:, 0] = rng.uniform(-1.0, -0.2, size=n_neg)
    X = sparse.csr_matrix(np.vstack([pos, neg]))
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return scale_features(Dataset(X, labels))


def random_small_dataset(rng, max_per_class=40, max_dim=6, grid=None) -> Dataset:
    """Small random dataset drawing feature values from a coarse grid so
    decision-value ties actually happen."""
    if grid is None:
        grid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    n_pos = int(rng.integers(1, max_per_class + 1))
    n_neg = int(rng.integers(1, max_per_class + 1))
    dim = int(rng.integers(1, max_dim + 1))
    X = rng.choice(grid, size=(n_pos + n_neg, dim))
    labels = np.concatenate([np.ones(n_pos, dtype=np.int64), -np.ones(n_neg, dtype=np.int64)])
    return Dataset(sparse.csr_matrix(X), labels)


def csr_evaluate(W, view, lam):
    """``evaluate``'s objectives and losses from the CSR decision values
    alone (``_decision_rows`` and ``_loss_counts``): the fallback every
    certified BLAS count is proven equal to."""
    losses = evaluation._loss_counts(*evaluation._decision_rows(W, view)) / (view.t_pos * view.t_neg)
    return losses + 0.5 * lam * np.einsum("ij,ij->i", W, W), losses


@contextmanager
def count_path_rows():
    """Count the weight rows ``evaluate`` keeps from the certified
    BLAS path (``"certified"``) and those whose CSR decision values it
    computes (``"csr"``): the rows that fail the certificate, or every row
    of a view that stays on CSR."""
    rows = {"certified": 0, "csr": 0}
    certified_loss_counts, decision_rows = evaluation._certified_loss_counts, evaluation._decision_rows

    def spy_certified_loss_counts(g, t_pos, margin):
        losses, certified = certified_loss_counts(g, t_pos, margin)
        rows["certified"] += int(certified.sum())
        return losses, certified

    def spy_decision_rows(W, view):
        rows["csr"] += W.shape[0]
        return decision_rows(W, view)

    evaluation._certified_loss_counts, evaluation._decision_rows = spy_certified_loss_counts, spy_decision_rows
    try:
        yield rows
    finally:
        evaluation._certified_loss_counts, evaluation._decision_rows = certified_loss_counts, decision_rows


@pytest.fixture
def toy_dataset() -> Dataset:
    return make_gaussian_dataset(0)


@pytest.fixture
def separable_dataset() -> Dataset:
    return make_separable_dataset(1)
