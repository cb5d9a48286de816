"""Pairwise ranking metric, regularized objective, and hardness scoring.

The ranking loss counts positive/negative pairs whose decision values are
misordered, with ties counted as losses. Every count is an exact
comparison count on the CSR decision values (``_decision_rows``): no
tolerance ever decides whether a pair is a loss.

Every view whose dense copy takes no more bytes than its CSR arrays and
whose classes share no row (``DatasetView.dense_rows``; at the paper's
scale, the full 768 x 8 view and the cheap task's alike) computes
decision values with one BLAS product ``W @ dense`` on a dense (dim, n)
copy of its rows, which gives the C-contiguous (k, n) block the kernel
sorts; sparse high-dimensional views, and views in which a positive row
equals a negative row, whose pair ties under any weights, stay on CSR.
But BLAS rounds differently from CSR, and differently again per build
and thread count. So each weight row's BLAS count is certified before it
is used. By Higham's componentwise bound (Accuracy and Stability of
Numerical Algorithms, 2nd ed., sec. 3.1), a length-d dot product
computed as a sum of its d products, in any order and with or without
FMA, lies within gamma_d * sum_i |w_i| |x_i| of the exact one,
gamma_d = d*u / (1 - d*u) and u = 2^-53. With c_i the largest |x_i| over
the view's rows, that sum is at most |w| . c, and since
|w| . c <= max_i |w_i| * sum_i c_i, at most max|w| * sum(c) for every row
w of the batch, where max|w| is the largest weight magnitude in the
batch. So a BLAS value is within 2 * gamma_d * max|w| * sum(c) of its CSR
value, and the difference of a positive and a negative value within
4 * gamma_d * max|w| * sum(c) of its CSR difference: half the batch's
margin, 8 * gamma_d * max|w| * sum(c) + 8 * d * tiny rounded up
(``_batch_margin``). One bound serves the whole batch: it costs a few
float operations per call where a bound per row cost a dozen numpy
calls, and it is never below any row's own 8 * gamma_d * |w| . c.

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
factor 2 of slack for the rounding of max|w| * sum(c) and the gaps), no
pair compares differently on the CSR values, and the BLAS count is the
CSR count. The check takes two stages: every gap between neighbours of
different classes is a gap between sorted neighbours, so a row whose
smallest gap between any two sorted neighbours exceeds 2 * margin passes
at once (and a batch in which every row does passes after one minimum
over its gaps), and only the rows that fail it are checked neighbour by
neighbour with their classes. Together the two stages certify exactly
the rows that the class-aware check alone would. Rows that fail (ties,
zero weights, near-ties) are recounted on CSR, and a batch whose values
could overflow (max|w| * sum(c) above half the largest float) is counted
on CSR whole. Every count, and so every objective and trace, is the same
whatever the BLAS.

Weights are checked once, at the public entry points (``_checked_rows``);
the solvers' ``TaskSpec.objective_batch`` calls the unchecked core,
``_evaluate_rows``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetView, as_rate, class_view_sizes

_U = 2.0**-53  # unit roundoff of float64
_TINY = float(np.finfo(np.float64).tiny)
_HALF_MAX = float(np.finfo(np.float64).max) / 2
# Bytes of one chunk's (k, n) float64 decision values in ``_evaluate_rows``;
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


def _certified_loss_counts(g: np.ndarray, t_pos: int, margin: float):
    """Per row of the C-contiguous (k, n) BLAS block ``g``, whose first
    ``t_pos`` columns are positives and the rest negatives, both classes
    present: the loss count of the class-tagged values, and True where
    each pair of sorted neighbours of different classes lies more than
    2 * margin apart, which makes that count the CSR count (module
    docstring).

    ``g`` is tagged and sorted in place. After the sort, the negatives
    below the positives number the sum of the positives' positions less
    t_pos * (t_pos - 1) / 2; the sums come from one exact int64 product of
    the class tags with the positions. The smallest gap between the
    classes lies between two sorted neighbours of different classes, so a
    row whose smallest gap between any two sorted neighbours exceeds
    2 * margin is certified at once, and a batch whose smallest gap does
    is certified whole after one reduction; only the other rows take the
    check that reads the classes. The gaps come from one subtraction over
    the flattened block, since row-wise slices of it take numpy's slower
    strided loop. Besides ``g``, the kernel holds at most one
    temporary of g's size at a time, and bool masks: the second stage
    compares the gaps before it selects the failed rows, so it copies
    only those rows' tags.
    """
    k, n = g.shape
    bits = g.view(np.int64)
    bits &= ~1
    bits[:, :t_pos] |= 1
    g.sort(axis=1)
    below = np.dot(bits & 1, np.arange(n)) - t_pos * (t_pos - 1) // 2
    bound = 2 * margin
    # the gaps of each row in its first n - 1 columns, from one subtraction
    # over the flat block; the last column would span two rows and reads inf
    gaps = np.empty((k, n))
    flat = g.reshape(-1)
    np.subtract(flat[1:], flat[:-1], out=gaps.reshape(-1)[:-1])
    gaps[:, -1] = np.inf
    if gaps.min(initial=np.inf) > bound:
        return t_pos * (n - t_pos) - below, np.ones(k, dtype=bool)
    certified = gaps.min(axis=1) > bound
    if not certified.all():
        rest = np.flatnonzero(~certified)
        close = gaps[:, :-1] <= bound
        del gaps
        close = close[rest]
        tags = bits[rest]
        tags &= 1
        is_pos = tags.astype(bool)
        del tags
        close &= is_pos[:, 1:] != is_pos[:, :-1]
        certified[rest] = ~close.any(axis=1)
    return t_pos * (n - t_pos) - below, certified


def _batch_margin(W: np.ndarray, magnitude_sum: float) -> float:
    """One gap between BLAS decision values above which the CSR values of
    the same pair are ordered the same way, for every row of ``W``, on a
    view whose features' largest magnitudes sum to ``magnitude_sum``
    (``DenseRows``); inf if the products could overflow.

    Each of the two values of a pair is off its CSR value by at most
    2 * gamma_d * max|w| * magnitude_sum, so 4 times that suffices; the
    factor 8 covers the rounding of ``magnitude_sum``, of this product and
    of the gap subtraction, and the absolute term covers underflow. The
    arithmetic is on Python floats, which overflow to inf without a
    warning.
    """
    reach = float(np.abs(W).max(initial=0.0)) * magnitude_sum
    if not reach <= _HALF_MAX:
        return math.inf
    dim = W.shape[1]
    gamma = dim * _U / (1 - dim * _U)
    return math.nextafter(8 * gamma * reach + 8 * dim * _TINY, math.inf)


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
    array of finite weights, and the view holds both classes.

    Each loss is the exact CSR loss count of its row alone over T+ * T-.
    Rows are counted in chunks whose decision values take at most
    ``_CHUNK_BYTES``, so memory stays bounded however many rows there are.
    A view with ``dense_rows`` takes each chunk's values from one BLAS
    product and keeps each row's count only if the certificate (module
    docstring) proves it equal to the CSR count; the other rows are
    counted on CSR. A batch whose products could overflow (an infinite
    margin) is counted on CSR whole, with no BLAS product. So the chunks,
    and any split of a batch, yield bit-equal results to one full batch.
    """
    rows = view.dense_rows()
    if rows is None:
        margin, pairs = math.inf, view.t_pos * view.t_neg
    else:
        margin, pairs = _batch_margin(W, rows.magnitude_sum), rows.pairs
    k = W.shape[0]
    step = max(1, _CHUNK_BYTES // (8 * view.n))
    counts = np.empty(k, dtype=np.int64)
    for start in range(0, k, step):
        chunk = W[start:start + step]
        if margin < math.inf:
            part, certified = _certified_loss_counts(chunk @ rows.matrix, rows.t_pos, margin)
            if not certified.all():
                part[~certified] = _loss_counts(*_decision_rows(chunk[~certified], view))
        else:
            part = _loss_counts(*_decision_rows(chunk, view))
        counts[start:start + step] = part
    losses = counts / pairs
    return losses + 0.5 * lam * np.einsum("ij,ij->i", W, W), losses


def loss_fraction(w, view: DatasetView) -> float:
    """Fraction of misordered pairs, ties included: ``evaluate``'s loss
    for one row. Below 2^53 pairs the quotient is correctly rounded."""
    return float(_evaluate_rows(_checked_rows(w, view, batch=False), view, 0.0)[1][0])


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

    The losses come from ``_evaluate_rows``, the path every evaluation
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
