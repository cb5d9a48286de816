"""Pairwise ranking metric, regularized objective, and hardness scoring.

The ranking loss counts positive/negative pairs whose decision values are
misordered, with ties counted as losses. Every count is an exact
comparison count on the CSR decision values (``_decision_rows``): no
tolerance ever decides whether a pair is a loss.

Views with enough nonzeros (``DatasetView.dense_rows``; at the paper's
scale, the full 768 x 8 view but not the cheap task's) compute decision
values faster, with one BLAS product ``W @ dense`` on a dense (dim, n)
copy of their rows, which gives the C-contiguous (k, n) block the kernel
sorts. But BLAS rounds differently from CSR, and differently again per
build and thread count. So each weight row's BLAS count is certified
before it is used. By Higham's componentwise bound (Accuracy and
Stability of Numerical Algorithms, 2nd ed., sec. 3.1), a length-d dot
product computed as a sum of its d products, in any order and with or
without FMA, lies within gamma_d * sum_i |w_i| |x_i| of the exact one,
gamma_d = d*u / (1 - d*u) and u = 2^-53. With c_i the largest |x_i|
over the view's rows, that sum is at most |w| . c for every row, so a
BLAS value is within 2 * gamma_d * |w| . c of its CSR value, and the
difference of a positive and a negative value within
4 * gamma_d * |w| . c of its CSR difference: half the margin of
``_rounding_margin``.

The BLAS count takes one sort per row (``_certified_loss_counts``). Each
value's lowest mantissa bit is first set to its class, 1 for a positive
and 0 for a negative, so no positive equals a negative and the sorted row
shows each value's class. The pairs a positive wins then follow from the
positives' sorted positions (the Mann-Whitney rank sum), which one exact
int64 product of the tags with the positions sums. A tag moves a
value by at most one ulp: at most 2u times its magnitude, or 2^-1074 below
the normal range, which the margin's absolute term covers. So the two tags
of a pair move its difference by less than another half margin, and a
tagged difference lies within one margin of the CSR one. If every pair of
sorted neighbours of different classes lies more than 2 * margin apart (a
factor 2 of slack for the rounding of |w| . c and the gaps), no pair
compares differently on the CSR values, and the BLAS count is the CSR
count. The check takes two stages: every gap between neighbours of
different classes is a gap between sorted neighbours, so a row whose
smallest gap between any two sorted neighbours exceeds 2 * margin passes
at once, and only the rows that fail it are checked neighbour by
neighbour with their classes. Together the two stages certify exactly
the rows that the class-aware check alone would. Rows that fail (ties,
zero weights, near-ties) are recounted on CSR. Every count, and so every
objective and trace, is the same whatever the BLAS.

Weights are checked once, at the public entry points (``_checked_rows``);
the solvers' ``TaskSpec.objective_batch`` calls the unchecked core,
``_evaluate_rows``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetView, as_rate, class_view_sizes

_U = 2.0**-53  # unit roundoff of float64
_TINY = np.finfo(np.float64).tiny
_HALF_MAX = np.finfo(np.float64).max / 2
# Bytes of one chunk's (k, n) float64 decision values in ``_loss_fractions``;
# an evaluation's working set is a few arrays of that size. A 20000-instance
# view takes 52 rows per chunk, more than any solver batch at the default
# population sizes (at most 20 rows per task), so solver batches are never
# split.
_CHUNK_BYTES = 8 << 20


def _checked_rows(w, view: DatasetView, batch: bool) -> np.ndarray:
    """``w`` as a float64 (k, dim) array of weight rows on ``view``: a
    (k, dim) batch if ``batch``, else one (dim,) vector as one row.

    Raises ValueError for a wrong shape, non-finite weights or a view that
    lacks a class. The one input check of every public entry point.
    """
    w = np.asarray(w, dtype=np.float64)
    dim = view.base.dim
    if batch and (w.ndim != 2 or w.shape[1] != dim):
        raise ValueError(f"weight batch must have shape (k, {dim})")
    if not batch and w.shape != (dim,):
        raise ValueError(f"weight vector must have shape ({dim},), got {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("weights must be finite")
    if view.t_pos == 0 or view.t_neg == 0:
        raise ValueError("both classes need at least one instance in the view")
    return w if batch else w[np.newaxis, :]


def _decision_rows(W: np.ndarray, view: DatasetView) -> tuple[np.ndarray, np.ndarray]:
    """CSR decision values of every row of ``W`` (shape (k, dim)), row-major.

    Returns (k, T+) and (k, T-) arrays in view order, each row contiguous:
    the two column blocks of one C-contiguous (k, n) array. The values come
    from one CSR product ``class_matrix @ W.T``; the transpose only moves
    them. Each value is the dot product of one row of the matrix, so the
    product of the whole class-ordered matrix gives the same bits as one
    product per class. These are the reference values every count is exact
    on, whichever path computed it.
    """
    f = np.ascontiguousarray((view.class_matrix @ W.T).T)
    return f[:, : view.t_pos], f[:, view.t_pos:]


def _count_below(ref: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """The package's one pairwise counting kernel.

    ``ref`` (k, m), each row sorted ascending, and ``queries`` (k, q) are
    row-major; row r of the (k, q) int64 result holds
    #{j : ref[r, j] < queries[r, i]} for every i. Each row of ``ref`` is
    searched once with a vectorized binary search. Comparisons are exact;
    no tolerance is applied.
    """
    out = np.empty(queries.shape, dtype=np.int64)
    for row, sorted_ref, query in zip(out, ref, queries):
        row[...] = sorted_ref.searchsorted(query)
    return out


def _sorted_rows(f: np.ndarray) -> np.ndarray:
    """Each row of the (k, m) array ``f``, m >= 1, sorted ascending.

    NaN compares false both ways, which a sorted search does not
    reproduce, so NaN values raise ValueError. NaN sorts last, so only the
    last column needs checking (``count_nonzero`` is the cheapest test of a
    short bool array).
    """
    f = np.sort(f, axis=1)
    if np.count_nonzero(np.isnan(f[:, -1])):
        raise ValueError("decision values must not be NaN")
    return f


def _loss_counts(f_pos: np.ndarray, f_neg: np.ndarray) -> np.ndarray:
    """One int64 count per row r of the pairs (i, j) with
    f_pos[r, i] <= f_neg[r, j]; ties are losses.

    Both inputs are row-major, (k, T+) and (k, T-). The positives are
    sorted before the search, so consecutive queries probe nearby memory.
    """
    below = _count_below(_sorted_rows(f_neg), _sorted_rows(f_pos))
    return f_pos.shape[1] * f_neg.shape[1] - below.sum(axis=1)


def _certified_loss_counts(g: np.ndarray, t_pos: int, margin: np.ndarray):
    """Per row r of the C-contiguous (k, n) BLAS block ``g``, whose first
    ``t_pos`` columns are positives: the loss count of the class-tagged
    values, and True where each pair of sorted neighbours of different
    classes lies more than 2 * margin[r] apart, which makes that count the
    CSR count (module docstring).

    ``g`` is tagged and sorted in place. After the sort, the negatives
    below the positives number the sum of the positives' positions less
    t_pos * (t_pos - 1) / 2; the sums come from one exact int64 product of
    the class tags with the positions. The smallest gap between the
    classes lies between two sorted neighbours of different classes, so a
    row whose smallest gap between any two sorted neighbours exceeds
    2 * margin is certified at once; only the other rows take the check
    that reads the classes. Besides ``g``, the kernel holds at most one
    temporary of g's size at a time, and bool masks: the second stage
    compares the gaps before it selects the failed rows, so it copies
    only those rows' tags.
    """
    k, n = g.shape
    bits = g.view(np.int64)
    bits[:, :t_pos] |= 1
    bits[:, t_pos:] &= ~1
    g.sort(axis=1)
    below = np.einsum("ij,j->i", bits & 1, np.arange(n)) - t_pos * (t_pos - 1) // 2
    bound = 2 * margin
    gaps = np.diff(g, axis=1)
    certified = gaps.min(axis=1, initial=np.inf) > bound
    if not certified.all():
        rest = np.flatnonzero(~certified)
        close = gaps <= bound[:, np.newaxis]
        del gaps
        close = close[rest]
        tags = bits[rest]
        tags &= 1
        is_pos = tags.astype(bool)
        del tags
        close &= is_pos[:, 1:] != is_pos[:, :-1]
        certified[rest] = ~close.any(axis=1)
    return t_pos * (n - t_pos) - below, certified


def _rounding_margin(W: np.ndarray, magnitudes: np.ndarray) -> np.ndarray:
    """Per row of ``W``, a gap between BLAS decision values above which the
    CSR values of the same pair are ordered the same way, on rows whose
    feature magnitudes are at most ``magnitudes`` (shape (dim,)).

    Each of the two values of a pair is off its CSR value by at most
    2 * gamma_d * |w| . magnitudes, so 4 * gamma_d * |w| . magnitudes
    suffices; the factor 8 covers the rounding of ``|W| @ magnitudes``, of
    this product and of the gap subtraction, and the absolute term covers
    underflow. Rows whose products could overflow get an infinite margin
    and always fall back.
    """
    dim = W.shape[1]
    gamma = dim * _U / (1 - dim * _U)
    with np.errstate(over="ignore"):
        bound = np.abs(W) @ magnitudes
        margin = np.nextafter(8 * gamma * bound + 8 * dim * _TINY, np.inf)
    margin[~(bound <= _HALF_MAX)] = np.inf
    return margin


def pairwise_loss_count(f_pos, f_neg) -> int:
    """Exact number of pairs (i, j) with f_pos[i] <= f_neg[j].

    The k = 1 case of ``evaluate``'s kernel: the values become one
    row-major (1, T+) and one (1, T-) row, both are sorted, and the sorted
    positives are binary-searched among the sorted negatives. That equals
    enumerating all T+ * T- pairs, in O((T+ + T-) log(T+ + T-)). Sorting
    the positives is exact: the count is an integer sum with one term per
    positive, and sorting only reorders the terms. NaN values raise
    ValueError.
    """
    f_pos = np.asarray(f_pos, dtype=np.float64)
    f_neg = np.asarray(f_neg, dtype=np.float64)
    if f_pos.size == 0 or f_neg.size == 0:
        raise ValueError("both classes need at least one decision value")
    return int(_loss_counts(f_pos.reshape(1, -1), f_neg.reshape(1, -1))[0])


def _evaluate_rows(W: np.ndarray, view: DatasetView, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``evaluate`` without its input check: ``W`` is a float64 (k, dim)
    array of finite weights, and the view holds both classes."""
    losses = _loss_fractions(W, view)
    return losses + 0.5 * lam * np.einsum("ij,ij->i", W, W), losses


def _loss_fractions(W: np.ndarray, view: DatasetView) -> np.ndarray:
    """The pairwise loss of each row of the float64 (k, dim) array ``W`` on
    the view: its exact CSR loss count over T+ * T-.

    Rows are counted in chunks whose decision values take at most
    ``_CHUNK_BYTES``, so memory stays bounded however many rows there are.
    Each count is the CSR count of its row alone (``_chunk_loss_counts``),
    so the chunks yield bit-equal results to one full batch.
    """
    step = max(1, _CHUNK_BYTES // (8 * view.n))
    if W.shape[0] <= step:
        losses = _chunk_loss_counts(W, view)
    else:
        losses = np.concatenate([_chunk_loss_counts(W[i : i + step], view) for i in range(0, W.shape[0], step)])
    return losses / (view.t_pos * view.t_neg)


def _chunk_loss_counts(W: np.ndarray, view: DatasetView) -> np.ndarray:
    """The exact CSR loss count of each row of ``W`` on the view.

    A view with ``dense_rows`` takes its values from one BLAS product and
    keeps each row's count only if the certificate (module docstring)
    proves it equal to the CSR count; the other rows are counted on CSR.
    Rows whose products could overflow (an infinite margin) can never be
    certified, so they skip the BLAS product and go to CSR at once; when
    no row does, the batch takes the BLAS path whole, with no gather or
    scatter, which matters on paper-size calls of about 0.1 ms.
    """
    rows = view.dense_rows()
    if rows is None:
        return _loss_counts(*_decision_rows(W, view))
    dense, magnitudes = rows
    margin = _rounding_margin(W, magnitudes)
    blas = margin < np.inf
    if blas.all():
        losses, certified = _certified_loss_counts(W @ dense, view.t_pos, margin)
    else:
        losses = np.empty(W.shape[0], dtype=np.int64)
        certified = np.zeros(W.shape[0], dtype=bool)
        if blas.any():
            losses[blas], certified[blas] = _certified_loss_counts(W[blas] @ dense, view.t_pos, margin[blas])
    if not certified.all():
        losses[~certified] = _loss_counts(*_decision_rows(W[~certified], view))
    return losses


def loss_fraction(w, view: DatasetView) -> float:
    """Fraction of misordered pairs, ties included: ``evaluate``'s loss
    for one row. Below 2^53 pairs the quotient is correctly rounded."""
    return float(_loss_fractions(_checked_rows(w, view, batch=False), view)[0])


def auc_metric(w, view: DatasetView) -> float:
    """Fraction of correctly ordered pairs; ties count against it."""
    return 1.0 - loss_fraction(w, view)


def objective(w, view: DatasetView, lam: float) -> float:
    """Minimization target: pairwise loss fraction plus (lam/2) * ||w||^2.

    One row of ``evaluate``, so scalar and batched evaluation of the same
    weights agree bit for bit.
    """
    return float(_evaluate_rows(_checked_rows(w, view, batch=False), view, lam)[0][0])


def evaluate(W, view: DatasetView, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The ``objective`` of each row of ``W`` (shape (k, dim)) and the loss
    fraction in it; one minus a loss is that row's ``auc_metric``.

    The losses come from ``_loss_fractions``, the path every evaluation
    counts by, so each is the exact CSR count of its row alone, whether or
    not the view certified it on BLAS values.
    """
    return _evaluate_rows(_checked_rows(W, view, batch=True), view, lam)


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
    """Both classes' per-instance counts over the full data, from the CSR
    decision values every ``evaluate`` count is exact on (one product over
    the full view's ``class_matrix``), and the same counting kernel. It runs
    once per cheap-task rebuild, so it never takes the BLAS path."""
    view = ds.full_view()
    f_pos, f_neg = _decision_rows(_checked_rows(w, view, batch=False), view)
    return HardnessScores(
        pos_scores=ds.t_neg - _count_below(_sorted_rows(f_neg), f_pos)[0],
        neg_scores=_count_below(_sorted_rows(f_pos), f_neg)[0],
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
