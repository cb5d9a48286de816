"""Sparse binary-classification datasets in LIBSVM text format.

Parsing, canonical serialization, per-feature scaling to [-1, 1],
stratified subsampling, and stratified k-fold splitting. Containers are
treated as immutable once built and are safe to share between threads.

Feature ids follow the file format and are 1-based; internally feature
id k is stored in matrix column k - 1.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp


class DataError(ValueError):
    """Raised for malformed dataset files or invalid dataset operations."""


def as_rate(value, what: str = "rate") -> Fraction:
    """Coerce a sampling rate to an exact Fraction in (0, 1].

    Floats go through their shortest decimal repr, so 0.1 becomes exactly
    1/10 rather than the nearest binary double.
    """
    if isinstance(value, bool):
        raise DataError(f"{what} must be a number, got bool")
    if isinstance(value, Fraction):
        rate = value
    elif isinstance(value, int):
        rate = Fraction(value)
    elif isinstance(value, (float, str)):
        try:
            rate = Fraction(str(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise DataError(f"{what} is not a valid number: {value!r}") from exc
    else:
        raise DataError(f"{what} must be a number, got {type(value).__name__}")
    if not 0 < rate <= 1:
        raise DataError(f"{what} must lie in (0, 1], got {rate}")
    return rate


class Dataset:
    """Immutable sparse dataset with a fixed positive/negative split.

    Attributes:
        X: (n, dim) CSR matrix; implicit entries are semantic zeros.
        labels: (n,) int array of +1/-1.
        pos_idx / neg_idx: ascending instance indices per class.
    """

    __slots__ = ("X", "labels", "pos_idx", "neg_idx", "_full_view")

    def __init__(self, X, labels) -> None:
        X = sp.csr_matrix(X, dtype=np.float64, copy=True)
        X.sum_duplicates()
        X.eliminate_zeros()
        X.sort_indices()
        labels = np.asarray(labels, dtype=np.int64).copy()
        if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
            raise DataError("labels must be one per matrix row")
        if not np.all(np.isin(labels, (-1, 1))):
            raise DataError("labels must be +1 or -1")
        if X.nnz and not np.all(np.isfinite(X.data)):
            raise DataError("feature values must be finite")
        self.X = X
        self.labels = labels
        self.pos_idx = np.flatnonzero(labels == 1)
        self.neg_idx = np.flatnonzero(labels == -1)
        if self.pos_idx.size == 0 or self.neg_idx.size == 0:
            raise DataError("dataset needs at least one instance of each class")
        self._full_view: DatasetView | None = None

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @property
    def t_pos(self) -> int:
        return int(self.pos_idx.size)

    @property
    def t_neg(self) -> int:
        return int(self.neg_idx.size)

    def subset(self, indices) -> "Dataset":
        """New Dataset from the given instance indices; keeps this dim."""
        idx = _checked_indices(indices, self.n, "subset")
        return Dataset(self.X[idx], self.labels[idx])

    def full_view(self) -> "DatasetView":
        if self._full_view is None:
            self._full_view = DatasetView(self, np.arange(self.n))
        return self._full_view

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        if self.X.shape != other.X.shape:
            return False
        if not np.array_equal(self.labels, other.labels):
            return False
        return (
            np.array_equal(self.X.indptr, other.X.indptr)
            and np.array_equal(self.X.indices, other.X.indices)
            and np.array_equal(self.X.data, other.X.data)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"Dataset(n={self.n}, dim={self.dim}, "
            f"t_pos={self.t_pos}, t_neg={self.t_neg})"
        )


def _checked_indices(indices, n: int, what: str) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 1:
        raise DataError(f"{what} indices must be one-dimensional")
    if idx.size == 0:
        raise DataError(f"{what} indices must be nonempty")
    if idx.min(initial=0) < 0 or (idx.size and (idx >= n).any()):
        raise DataError(f"{what} indices out of range for {n} instances")
    if np.unique(idx).size != idx.size:
        raise DataError(f"{what} indices contain duplicates")
    return idx


class DatasetView:
    """An ordered selection of instances from a base Dataset.

    The view owns no data; it caches the per-class submatrices the first
    time they are needed so repeated evaluations stay cheap.
    """

    __slots__ = ("base", "selected", "pos_selected", "neg_selected", "_mat_pos", "_mat_neg")

    def __init__(self, base: Dataset, selected) -> None:
        self.base = base
        self.selected = _checked_indices(selected, base.n, "view")
        mask = base.labels[self.selected] == 1
        self.pos_selected = self.selected[mask]
        self.neg_selected = self.selected[~mask]
        self._mat_pos = None
        self._mat_neg = None

    @property
    def n(self) -> int:
        return int(self.selected.size)

    @property
    def t_pos(self) -> int:
        return int(self.pos_selected.size)

    @property
    def t_neg(self) -> int:
        return int(self.neg_selected.size)

    @property
    def pos_matrix(self) -> sp.csr_matrix:
        if self._mat_pos is None:
            self._mat_pos = self.base.X[self.pos_selected]
        return self._mat_pos

    @property
    def neg_matrix(self) -> sp.csr_matrix:
        if self._mat_neg is None:
            self._mat_neg = self.base.X[self.neg_selected]
        return self._mat_neg

    def fingerprint(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(np.int64(self.base.n).tobytes())
        h.update(self.selected.tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"DatasetView(n={self.n}, t_pos={self.t_pos}, t_neg={self.t_neg})"


# the largest feature index a CSR matrix can hold as its int64 dimension
_MAX_INDEX = np.iinfo(np.int64).max


def parse_libsvm(source: str | bytes) -> Dataset:
    """Parse LIBSVM text: ``<label> <index>:<value> ...`` per line.

    ``#`` starts a comment, blank lines are skipped, indices are 1-based and
    must be strictly increasing within a line. Any label parsing as a
    positive number (``inf`` included) maps to +1, any other number to -1;
    ``nan`` is an invalid label.
    """
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"input is not valid UTF-8: {exc}") from exc

    labels: list[int] = []
    rows_idx: list[list[int]] = []
    rows_val: list[list[float]] = []
    max_index = 0

    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label_tok = tokens[0]
        if ":" in label_tok:
            raise DataError(f"line {line_no}: missing label before features")
        try:
            label_val = float(label_tok)
        except ValueError:
            label_val = np.nan
        if np.isnan(label_val):
            raise DataError(f"line {line_no}: invalid label {label_tok!r}")
        labels.append(1 if label_val > 0 else -1)

        idxs: list[int] = []
        vals: list[float] = []
        prev = 0
        for tok in tokens[1:]:
            part = tok.split(":")
            if len(part) != 2:
                raise DataError(f"line {line_no}: malformed feature {tok!r}")
            try:
                idx = int(part[0])
            except ValueError as exc:
                raise DataError(f"line {line_no}: invalid feature index {part[0]!r}") from exc
            try:
                val = float(part[1])
            except ValueError as exc:
                raise DataError(f"line {line_no}: invalid feature value {part[1]!r}") from exc
            if idx < 1:
                raise DataError(f"line {line_no}: feature index {idx} is not 1-based")
            if idx > _MAX_INDEX:
                raise DataError(f"line {line_no}: feature index {idx} is too large")
            if idx <= prev:
                raise DataError(
                    f"line {line_no}: feature indices must be strictly increasing "
                    f"({idx} after {prev})"
                )
            if not np.isfinite(val):
                raise DataError(f"line {line_no}: non-finite feature value {part[1]!r}")
            prev = idx
            idxs.append(idx - 1)
            vals.append(val)
        max_index = max(max_index, prev)
        rows_idx.append(idxs)
        rows_val.append(vals)

    if not labels:
        raise DataError("no instances found")

    indptr = np.zeros(len(labels) + 1, dtype=np.int64)
    for i, idxs in enumerate(rows_idx):
        indptr[i + 1] = indptr[i] + len(idxs)
    indices = np.fromiter(
        (j for idxs in rows_idx for j in idxs), dtype=np.int64, count=indptr[-1]
    )
    data = np.fromiter(
        (v for vals in rows_val for v in vals), dtype=np.float64, count=indptr[-1]
    )
    dim = max(max_index, 1)
    X = sp.csr_matrix((data, indices, indptr), shape=(len(labels), dim))
    return Dataset(X, np.asarray(labels))


def parse_libsvm_path(path) -> Dataset:
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    try:
        return parse_libsvm(payload)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def serialize_libsvm(ds: Dataset) -> str:
    """Canonical LIBSVM text: explicit labels, ascending indices, shortest
    round-trip decimals, zero entries omitted."""
    indptr = ds.X.indptr.tolist()
    feature_ids = (ds.X.indices + 1).tolist()
    values = ds.X.data.tolist()
    out: list[str] = []
    for i, label in enumerate(ds.labels.tolist()):
        row = range(indptr[i], indptr[i + 1])
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{feature_ids[k]}:{values[k]!r}" for k in row if values[k] != 0.0)
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


def scale_features(ds: Dataset) -> Dataset:
    """Affinely map each feature to [-1, 1] column-wise.

    Implicit zeros participate in the per-feature min/max and are
    transformed like any other value, so the result may be denser than the
    input. Constant features collapse to 0. Columns already spanning exactly
    [-1, 1] are left untouched, which makes scaling idempotent.
    """
    n, dim = ds.X.shape
    # the dense input and its scaled copy must fit in physical memory, or the
    # run ends in MemoryError or the OOM killer
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else np.iinfo(np.intp).max
    if 2 * n * dim * 8 > memory:
        raise DataError(f"dense {n} x {dim} feature matrix is too large to scale")
    dense = np.asarray(ds.X.todense())
    out = np.empty_like(dense)
    for j in range(dense.shape[1]):
        col = dense[:, j]
        lo = col.min()
        hi = col.max()
        if lo == hi:
            out[:, j] = 0.0
        elif lo == -1.0 and hi == 1.0:
            out[:, j] = col
        else:
            out[:, j] = 2.0 * (col - lo) / (hi - lo) - 1.0
    return Dataset(sp.csr_matrix(out), ds.labels)


def class_view_sizes(ds: Dataset, rate: Fraction) -> tuple[int, int]:
    """Positives and negatives in a cheap view at ``rate``: max(1, floor(rate * T))
    per class, for the uniform and the hardest-instance views alike."""
    return max(1, int(rate * ds.t_pos)), max(1, int(rate * ds.t_neg))


def stratified_sample(ds: Dataset, s, seed) -> DatasetView:
    """Uniform class-stratified subsample at rate ``s``.

    Picks ``class_view_sizes`` instances per class without replacement;
    the view lists the chosen indices in ascending order.
    """
    rate = as_rate(s, "sampling rate")
    rng = np.random.default_rng(seed)
    n_pos, n_neg = class_view_sizes(ds, rate)
    chosen_pos = rng.choice(ds.pos_idx, size=n_pos, replace=False)
    chosen_neg = rng.choice(ds.neg_idx, size=n_neg, replace=False)
    return DatasetView(ds, np.sort(np.concatenate([chosen_pos, chosen_neg])))


@dataclass(frozen=True)
class CvSplit:
    """Stratified fold assignment over one dataset."""

    fold_assignments: np.ndarray
    k: int

    def test_indices(self, fold: int) -> np.ndarray:
        self._check(fold)
        return np.flatnonzero(self.fold_assignments == fold)

    def train_indices(self, fold: int) -> np.ndarray:
        self._check(fold)
        return np.flatnonzero(self.fold_assignments != fold)

    def _check(self, fold: int) -> None:
        if not 0 <= fold < self.k:
            raise DataError(f"fold {fold} out of range for k={self.k}")


def stratified_kfold(ds: Dataset, k: int, seed) -> CvSplit:
    """Assign instances to k folds, round-robin within each shuffled class."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 2:
        raise DataError(f"k must be an integer >= 2, got {k!r}")
    if ds.t_pos < k or ds.t_neg < k:
        raise DataError(
            f"k={k} exceeds the smaller class (t_pos={ds.t_pos}, t_neg={ds.t_neg})"
        )
    rng = np.random.default_rng(seed)
    assignments = np.empty(ds.n, dtype=np.int64)
    for class_idx in (ds.pos_idx, ds.neg_idx):
        order = rng.permutation(class_idx)
        assignments[order] = np.arange(order.size) % k
    return CvSplit(fold_assignments=assignments, k=k)
