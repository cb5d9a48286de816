"""Pairwise ranking metric, regularized objective, and hardness scoring.

The ranking loss counts positive/negative pairs whose decision values are
misordered, with ties counted as losses. All float comparisons are exact;
no epsilon is applied anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetView, as_rate, class_view_sizes


def _as_weights(w, dim: int) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.shape[0] != dim:
        raise ValueError(f"weight vector must have shape ({dim},), got {w.shape}")
    return w


def _decision_rows(W: np.ndarray, view: DatasetView) -> tuple[np.ndarray, np.ndarray]:
    """Decision values of every row of ``W`` (shape (k, dim)), row-major.

    Returns C-contiguous (k, T+) and (k, T-) arrays in view order. The
    values come from the CSR products ``pos_matrix @ W.T`` and
    ``neg_matrix @ W.T``; the transpose only moves them.
    """
    f_pos = np.ascontiguousarray((view.pos_matrix @ W.T).T)
    f_neg = np.ascontiguousarray((view.neg_matrix @ W.T).T)
    return f_pos, f_neg


def _count_below(ref: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The package's one pairwise counting kernel.

    ``ref`` (k, m) and ``queries`` (k, q) are row-major; row r of the
    (k, q) int64 result holds #{j : ref[r, j] < queries[r, i]} for every i.
    Each row of ``ref`` is sorted and searched once with a vectorized
    binary search. Comparisons are exact; no epsilon is applied.
    """
    ref = np.sort(ref, axis=1)
    out = np.empty(queries.shape, dtype=np.int64)
    for r in range(ref.shape[0]):
        out[r] = np.searchsorted(ref[r], queries[r], side="left")
    return out


def _loss_counts(f_pos: np.ndarray, f_neg: np.ndarray) -> np.ndarray:
    """One int64 count per row r of the pairs (i, j) with
    f_pos[r, i] <= f_neg[r, j]; ties are losses.

    Both inputs are row-major, (k, T+) and (k, T-). The positives are
    sorted before the search, so consecutive queries probe nearby memory.
    """
    below = _count_below(f_neg, np.sort(f_pos, axis=1))
    return f_pos.shape[1] * f_neg.shape[1] - below.sum(axis=1)


def decision_values(w, view: DatasetView) -> tuple[np.ndarray, np.ndarray]:
    """Inner products of ``w`` with the view's instances, split by class.

    Returns (f_pos, f_neg) in view order. Absent features contribute zero.
    """
    w = _as_weights(w, view.base.dim)
    f_pos, f_neg = _decision_rows(w[np.newaxis, :], view)
    return f_pos[0], f_neg[0]


def pairwise_loss_count(f_pos, f_neg) -> int:
    """Exact number of pairs (i, j) with f_pos[i] <= f_neg[j].

    The k = 1 case of ``objective_batch``'s kernel: the values become one
    row-major (1, T+) and one (1, T-) row, both are sorted, and the sorted
    positives are binary-searched among the sorted negatives. That equals
    enumerating all T+ * T- pairs, in O((T+ + T-) log(T+ + T-)). Sorting
    the positives is exact: the count is an integer sum with one term per
    positive, and sorting only reorders the terms.
    """
    f_pos = np.asarray(f_pos, dtype=np.float64)
    f_neg = np.asarray(f_neg, dtype=np.float64)
    if f_pos.size == 0 or f_neg.size == 0:
        raise ValueError("both classes need at least one decision value")
    return int(_loss_counts(f_pos.reshape(1, -1), f_neg.reshape(1, -1))[0])


def loss_fraction(w, view: DatasetView) -> float:
    f_pos, f_neg = decision_values(w, view)
    return pairwise_loss_count(f_pos, f_neg) / (view.t_pos * view.t_neg)


def auc_metric(w, view: DatasetView) -> float:
    """Fraction of correctly ordered pairs; ties count against it."""
    return 1.0 - loss_fraction(w, view)


def objective(w, view: DatasetView, lam: float) -> float:
    """Minimization target: pairwise loss fraction plus (lam/2) * ||w||^2.

    Routed through ``objective_batch`` so scalar and batched evaluation of
    the same weights agree bit for bit.
    """
    w = _as_weights(w, view.base.dim)
    return float(objective_batch(w[np.newaxis, :], view, lam)[0])


def objective_batch(W, view: DatasetView, lam: float) -> np.ndarray:
    """Vectorized ``objective`` over the rows of ``W`` (shape (k, dim)).

    The decision values are laid out row-major: one (T+) and one (T-) row
    per weight vector, each contiguous. Both rows are sorted and
    ``_loss_counts`` returns one exact integer loss per row; the objective
    is that count over T+ * T- plus the penalty. Sorting the positives
    changes no result, because the loss is a sum of integer counts, one per
    positive, over a permutation of the same positives. Every row is
    computed independently of the others, so evaluating in chunks yields
    bit-equal results to one full batch.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[1] != view.base.dim:
        raise ValueError(f"weight batch must have shape (k, {view.base.dim})")
    if view.t_pos == 0 or view.t_neg == 0:
        raise ValueError("both classes need at least one instance in the view")
    out = _loss_counts(*_decision_rows(W, view)) / (view.t_pos * view.t_neg)
    out += 0.5 * lam * np.einsum("ij,ij->i", W, W)
    return out


@dataclass(frozen=True)
class HardnessScores:
    """Per-instance misranking counts under a fixed weight vector.

    ``pos_scores[i]`` belongs to instance ``dataset.pos_idx[i]`` and counts
    negatives with decision value >= that positive's (ties hurt positives).
    ``neg_scores[j]`` belongs to ``dataset.neg_idx[j]`` and counts positives
    with decision value strictly below that negative's.
    """

    pos_scores: np.ndarray
    neg_scores: np.ndarray


def hardness_scores(w, ds: Dataset) -> HardnessScores:
    """Both classes' per-instance counts over the full data, from the same
    row-major decision values and counting kernel as ``objective_batch``."""
    f_pos, f_neg = _decision_rows(_as_weights(w, ds.dim)[np.newaxis, :], ds.full_view())
    return HardnessScores(
        pos_scores=ds.t_neg - _count_below(f_neg, f_pos)[0],
        neg_scores=_count_below(f_pos, f_neg)[0],
    )


def select_hardest(scores: HardnessScores, ds: Dataset, s) -> DatasetView:
    """View of the ``class_view_sizes`` hardest instances per class.

    Within a class, higher score wins; ties break toward the lower original
    index. The view lists its indices ascending.
    """
    rate = as_rate(s, "sampling rate")
    if scores.pos_scores.shape[0] != ds.t_pos or scores.neg_scores.shape[0] != ds.t_neg:
        raise ValueError("scores do not match the dataset's class sizes")
    n_pos, n_neg = class_view_sizes(ds, rate)
    # lexsort: primary key descending score, secondary ascending position
    pos_order = np.lexsort((np.arange(ds.t_pos), -scores.pos_scores))[:n_pos]
    neg_order = np.lexsort((np.arange(ds.t_neg), -scores.neg_scores))[:n_neg]
    chosen = np.concatenate([ds.pos_idx[pos_order], ds.neg_idx[neg_order]])
    return DatasetView(ds, np.sort(chosen))
