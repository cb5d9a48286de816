"""Property tests: the ranking kernel against the literal loops in _oracles.

Features and weights mostly come from small grids of exactly representable
values, so decision values tie often and the dense oracle products are
exact. The certified BLAS path is checked on those, where most rows fall
back to CSR, and on continuous values, where every row certifies.
"""
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from emtauc import evaluation
from emtauc.data import Dataset
from emtauc.evaluation import (
    _HALF_MAX,
    _batch_margin,
    _certified_loss_counts,
    _decision_rows,
    evaluate,
    hardness_scores,
    pairwise_loss_count,
)

from conftest import count_path_rows, csr_evaluate
from _oracles import (
    certified_loss_counts_reference,
    decision_values,
    dot_exact,
    hardness_naive,
    higham_gamma,
    pair_loss_broadcast,
    pair_loss_naive,
)

FEATURES = (-2.0, -1.0, 0.0, 1.0, 2.0)
WEIGHTS = (-1.0, -0.5, 0.0, 0.5, 1.0)
DECISIONS = (-2.0, -1.0, -0.0, 0.0, 1.0, 2.0)


@st.composite
def tie_heavy_problem(draw):
    """A dataset on the feature grid and a (k, dim) weight batch, 1 <= k <= 25."""
    n_pos = draw(st.integers(1, 15))
    n_neg = draw(st.integers(1, 15))
    dim = draw(st.integers(1, 4))
    k = draw(st.integers(1, 25))
    cells = st.lists(st.sampled_from(FEATURES), min_size=(n_pos + n_neg) * dim, max_size=(n_pos + n_neg) * dim)
    X = np.array(draw(cells)).reshape(n_pos + n_neg, dim)
    labels = np.array(draw(st.permutations([1] * n_pos + [-1] * n_neg)), dtype=np.int64)
    weights = st.lists(st.sampled_from(WEIGHTS), min_size=k * dim, max_size=k * dim)
    W = np.array(draw(weights)).reshape(k, dim)
    return X, labels, W


@st.composite
def continuous_problem(draw):
    """Gaussian features and a (k, dim) uniform weight batch, 1 <= k <= 25:
    decision values almost surely never tie."""
    n_pos = draw(st.integers(1, 30))
    n_neg = draw(st.integers(1, 30))
    dim = draw(st.integers(1, 6))
    k = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n_pos + n_neg, dim))
    labels = rng.permutation(np.repeat(np.array([1, -1], dtype=np.int64), [n_pos, n_neg]))
    return X, labels, rng.uniform(-1, 1, size=(k, dim))


def _certified_and_csr(X, labels, W, lam):
    """``evaluate``'s objectives, those counted on the CSR values alone,
    and the rows each path counted in the first."""
    view = Dataset(sparse.csr_matrix(X), labels).full_view()
    with count_path_rows() as rows:
        got = evaluate(W, view, lam)[0]
    return got, csr_evaluate(W, view, lam)[0], rows


def _oracle_decisions(X, labels, w):
    f = X @ w  # exact on the grids
    return f[labels == 1], f[labels == -1]


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problem(), st.sampled_from((0.0, 0.125, 1.0)))
def test_objective_batch_matches_oracles(problem, lam):
    X, labels, W = problem
    view = Dataset(sparse.csr_matrix(X), labels).full_view()
    counts = []
    for w in W:
        f_pos, f_neg = _oracle_decisions(X, labels, w)
        counts.append(pair_loss_naive(f_pos, f_neg))
        assert counts[-1] == pair_loss_broadcast(f_pos, f_neg)
    want = np.array(counts) / (view.t_pos * view.t_neg) + 0.5 * lam * (W * W).sum(axis=1)
    assert np.array_equal(evaluate(W, view, lam)[0], want)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problem(), st.sampled_from((0.0, 0.125, 1.0)))
def test_certified_path_matches_csr_and_oracle_on_ties(problem, lam):
    X, labels, W = problem
    got, csr, _ = _certified_and_csr(X, labels, W, lam)
    assert np.array_equal(got, csr)
    counts = [pair_loss_naive(*_oracle_decisions(X, labels, w)) for w in W]
    pairs = (labels == 1).sum() * (labels == -1).sum()
    assert np.array_equal(got, np.array(counts) / pairs + 0.5 * lam * (W * W).sum(axis=1))


@settings(max_examples=150, deadline=None)
@given(continuous_problem(), st.sampled_from((0.0, 0.125, 1.0)))
def test_certified_path_matches_csr_and_oracle_on_continuous_values(problem, lam):
    X, labels, W = problem
    got, csr, rows = _certified_and_csr(X, labels, W, lam)
    assert rows == {"certified": W.shape[0], "csr": 0}
    assert np.array_equal(got, csr)
    view = Dataset(sparse.csr_matrix(X), labels).full_view()
    counts = [pair_loss_naive(*decision_values(w, view)) for w in W]
    want = np.array(counts) / (view.t_pos * view.t_neg) + 0.5 * lam * np.einsum("ij,ij->i", W, W)
    assert np.array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problem(), st.integers(2, 25))
def test_objective_batch_chunks_bit_equal(problem, parts):
    X, labels, W = problem
    view = Dataset(sparse.csr_matrix(X), labels).full_view()
    full = evaluate(W, view, 0.125)[0]
    chunks = [evaluate(c, view, 0.125)[0] for c in np.array_split(W, min(parts, W.shape[0]))]
    assert np.array_equal(np.concatenate(chunks), full)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_problem())
def test_hardness_scores_match_oracle(problem):
    X, labels, W = problem
    ds = Dataset(sparse.csr_matrix(X), labels)
    for w in W:
        scores = hardness_scores(w, ds)
        want_pos, want_neg = hardness_naive(*_oracle_decisions(X, labels, w))
        assert np.array_equal(scores.pos_scores, want_pos)
        assert np.array_equal(scores.neg_scores, want_neg)
        assert scores.pos_scores.dtype == scores.neg_scores.dtype == np.int64


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.sampled_from(DECISIONS), min_size=1, max_size=40),
    st.lists(st.sampled_from(DECISIONS), min_size=1, max_size=40),
)
def test_pairwise_loss_count_matches_oracles(f_pos, f_neg):
    got = pairwise_loss_count(f_pos, f_neg)
    assert type(got) is int
    assert got == pair_loss_naive(f_pos, f_neg) == pair_loss_broadcast(f_pos, f_neg)


def _certified_like_reference(g: np.ndarray, t_pos: int, margin: float):
    """``_certified_loss_counts`` on a copy of ``g``, after asserting that
    its (losses, certified) are bit-equal to the one-stage reference
    kernel's on another copy, which takes the margin once per row."""
    losses, certified = _certified_loss_counts(g.copy(), t_pos, margin)
    want_losses, want_certified = certified_loss_counts_reference(g.copy(), t_pos, np.full(g.shape[0], margin))
    assert losses.dtype == want_losses.dtype and certified.dtype == want_certified.dtype
    assert np.array_equal(losses, want_losses) and np.array_equal(certified, want_certified)
    return losses, certified


def _tie_free_gap_bound(values: np.ndarray) -> float:
    """Four ulps of the largest |value| of a row: the most that the two
    class tags of a pair and the rounding of its two gaps (here and in the
    kernel) can take from the gap between a positive and a negative. It
    stays finite at +-_HALF_MAX, so no row escapes the completeness check."""
    return 4 * np.spacing(np.abs(values).max())


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1e-9, 1e-3, 0.25, 1.0)))
def test_certificate_is_the_smallest_pair_gap(seed, margin):
    # near-ties on a half-integer grid. Sound: a certified row's count is
    # exact and its smallest pair gap exceeds margin. Complete: a row whose
    # smallest pair gap exceeds 2 * margin by more than the tags can move it
    # is certified.
    rng = np.random.default_rng(seed)
    k, n_pos, n_neg = rng.integers(1, 4), rng.integers(1, 30), rng.integers(1, 30)
    offsets = np.array([0.0, 0.0, 1e-6, -1e-6, 0.1, 0.3])
    f_pos = rng.integers(-4, 5, size=(k, n_pos)) / 2 + rng.choice(offsets, size=(k, n_pos))
    f_neg = rng.integers(-4, 5, size=(k, n_neg)) / 2 + rng.choice(offsets, size=(k, n_neg))
    g = np.hstack([f_pos, f_neg])
    losses, certified = _certified_like_reference(g, n_pos, margin)
    for r in range(k):
        gap = np.abs(f_pos[r][:, None] - f_neg[r][None, :]).min()
        if certified[r]:
            assert losses[r] == pair_loss_naive(f_pos[r], f_neg[r])
            assert gap > margin
        if gap > 2 * margin + _tie_free_gap_bound(g[r]):
            assert certified[r]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((1e-9, 1e-3, 0.25, 1.0)))
def test_certificate_holds_every_smallest_gap_above_twice_the_margin(seed, margin):
    # Short tie-free rows whose smallest gap between the classes lies in
    # (2 * margin, 3 * margin]: sorted neighbours 4 to 8 margins apart, but
    # one pair of different classes 2.1 to 2.9 margins apart. Every such row
    # is certified, so a kernel that certified only above 3 * margin fails.
    rng = np.random.default_rng(seed)
    k, n = rng.integers(1, 4), rng.integers(2, 9)
    t_pos = rng.integers(1, n)
    rows = []
    for _ in range(k):
        gaps = rng.uniform(4, 8, size=n - 1) * margin
        near = rng.integers(0, n - 1)
        gaps[near] = rng.uniform(2.1, 2.9) * margin
        values = rng.uniform(-4, 4) + np.concatenate([[0.0], np.cumsum(gaps)])
        # t_pos of the sorted values are positives, the two ends of the near
        # gap in different classes
        is_pos = rng.permutation(n) < t_pos
        if is_pos[near] == is_pos[near + 1]:
            other = rng.choice(np.flatnonzero(is_pos != is_pos[near]))
            is_pos[near + 1], is_pos[other] = is_pos[other], is_pos[near + 1]
        rows.append(np.concatenate([values[is_pos], values[~is_pos]]))
    g = np.array(rows)
    losses, certified = _certified_loss_counts(g.copy(), t_pos, margin)
    for r in range(k):
        f_pos, f_neg = g[r, :t_pos], g[r, t_pos:]
        gap = np.abs(f_pos[:, None] - f_neg[None, :]).min()
        assert 2 * margin + _tie_free_gap_bound(g[r]) < gap <= 3 * margin
        assert certified[r]
        assert losses[r] == pair_loss_naive(f_pos, f_neg)


# Per-feature and per-weight scales from the smallest subnormal to near the
# largest float, so that products underflow, cancel across scales and, for
# the largest, overflow.
SCALES = (5e-324, 1e-310, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300)


@st.composite
def mixed_magnitude_rows(draw):
    """(X, W): an (n, dim) row matrix and a (k, dim) weight batch. Each
    feature of X and each column of W has its own scale from SCALES, and
    each entry is zero or that scale times a signed mantissa in [1, 2]."""
    n, dim, k = draw(st.integers(2, 8)), draw(st.integers(1, 8)), draw(st.integers(1, 3))
    mantissas = st.one_of(st.just(0.0), st.floats(1, 2), st.floats(-2, -1))

    def scaled(rows):
        scales = draw(st.lists(st.sampled_from(SCALES), min_size=dim, max_size=dim))
        cells = draw(st.lists(mantissas, min_size=rows * dim, max_size=rows * dim))
        return np.array(cells).reshape(rows, dim) * np.array(scales)

    return scaled(n), scaled(k)


@settings(max_examples=200, deadline=None)
@given(mixed_magnitude_rows())
def test_rounding_margin_covers_the_blas_and_csr_rounding(rows):
    # The certificate's premise, against exact rational dot products: with
    # c the largest magnitude of each feature, the BLAS value and the CSR
    # value of each row lie within Higham's componentwise bound
    # gamma_d * |w| . c (plus the subnormal spacing per product, for
    # underflow) of the exact value, so within 2 * bound of each other; and
    # the batch's margin is at least 4 times that for every row, up to the
    # rounding of its own few float operations, which the certificate's
    # 2 * margin absorbs. Only batches with a finite margin take the BLAS
    # path.
    X, W = rows
    dim = X.shape[1]
    ds = Dataset(sparse.csr_matrix(X), np.where(np.arange(X.shape[0]) % 2 == 0, 1, -1))
    view = ds.full_view()
    copy = view.dense_rows()
    class_rows = view.class_matrix.toarray()
    magnitudes = np.abs(X).max(axis=0)
    if copy is not None:
        assert np.array_equal(copy.matrix, class_rows.T) and copy.magnitude_sum == sum(magnitudes.tolist())
    margin = _batch_margin(W, sum(magnitudes.tolist()))
    if margin == np.inf:
        return
    blas = W @ np.ascontiguousarray(class_rows.T)
    csr = np.hstack(_decision_rows(W, view))
    for r in range(W.shape[0]):
        bound = higham_gamma(dim) * dot_exact(np.abs(W[r]), magnitudes) + dim * Fraction(1, 2**1074)
        for j, x in enumerate(class_rows):
            exact = dot_exact(W[r], x)
            assert abs(Fraction(blas[r, j]) - exact) <= bound
            assert abs(Fraction(csr[r, j]) - exact) <= bound
        assert Fraction(margin) >= 4 * (2 * bound) * (1 - higham_gamma(dim + 4))


@st.composite
def unscaled_batch(draw):
    """(X, labels, W): unscaled rows of ``mixed_magnitude_rows`` with both
    classes, and its weight batch with zero rows spliced in."""
    X, W = draw(mixed_magnitude_rows())
    labels = np.where(np.arange(X.shape[0]) % 2 == 0, 1, -1)
    zeros = draw(st.integers(0, 2))
    at = draw(st.lists(st.integers(0, W.shape[0]), min_size=zeros, max_size=zeros))
    return X, labels, np.insert(W, at, 0.0, axis=0)


@settings(max_examples=200, deadline=None)
@given(unscaled_batch())
def test_batch_threshold_covers_every_row_and_overflow_falls_back(problem):
    # One threshold per batch, 2 * margin, is at least each row's own
    # 16 * gamma_d * (|w| . c), whatever the magnitudes of the other rows,
    # up to the rounding of the margin's own float operations. A batch
    # whose values could overflow takes no BLAS product and is counted on
    # CSR, and no step warns (pytest turns RuntimeWarnings into errors).
    # Where a CSR value is NaN (inf - inf) there is no count, and both
    # raise.
    X, labels, W = problem
    dim = X.shape[1]
    view = Dataset(sparse.csr_matrix(X), labels).full_view()
    magnitudes = np.abs(X).max(axis=0)
    margin = _batch_margin(W, sum(magnitudes.tolist()))
    if margin < np.inf:
        for w in W:
            row_threshold = 16 * higham_gamma(dim) * dot_exact(np.abs(w), magnitudes)
            assert Fraction(2 * margin) >= row_threshold * (1 - higham_gamma(dim + 4))
    kernel = mock.Mock(wraps=evaluation._certified_loss_counts)
    try:
        want = csr_evaluate(W, view, 0.125)
    except ValueError:
        with mock.patch.object(evaluation, "_certified_loss_counts", kernel), pytest.raises(ValueError):
            evaluate(W, view, 0.125)
    else:
        with mock.patch.object(evaluation, "_certified_loss_counts", kernel):
            got = evaluate(W, view, 0.125)
        assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    if margin == np.inf or view.dense_rows() is None:
        assert kernel.call_count == 0


# Decision values where a class tag in the lowest mantissa bit could go
# wrong: signed zeros, subnormals down to the smallest, values one ulp
# apart, negatives, and magnitudes up to half the largest float, the most a
# row with a finite rounding margin can produce.
EDGE_VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308, -2.225073858507201e-308,
    1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), -1.0, np.nextafter(-1.0, 0.0), 3.0, -2.5,
    1e300, -1e300, _HALF_MAX, np.nextafter(_HALF_MAX, 0.0), -_HALF_MAX,
)


@st.composite
def edge_rows(draw):
    """A (k, n) block of edge values, its first t_pos columns positives."""
    t_pos, t_neg = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    k = draw(st.integers(1, 3))
    cells = st.lists(st.sampled_from(EDGE_VALUES), min_size=k * (t_pos + t_neg), max_size=k * (t_pos + t_neg))
    return np.array(draw(cells)).reshape(k, t_pos + t_neg), t_pos


@settings(max_examples=400, deadline=None)
@given(edge_rows(), st.sampled_from((1.0, 1e3, 1e12)))
# two equal positives in each row, so the smallest gap between sorted
# neighbours is 0 and the check that reads the classes decides: the first
# row is certified, the second (a positive equals a negative) is not
@example((np.array([[1.0, 1.0, 3.0, -2.5], [3.0, 3.0, 3.0, -1.0]]), 2), 1.0)
def test_class_tags_keep_certified_counts_exact_on_edge_values(rows, scale):
    # each row on its own: scale 1 is the smallest margin _batch_margin
    # gives a row, that of a length-1 product with |w| = the row's largest
    # |value| and magnitude 1
    g, t_pos = rows
    for r in range(g.shape[0]):
        margin = _batch_margin(np.abs(g[r:r + 1]).max(axis=1, keepdims=True), 1.0) * scale
        losses, certified = _certified_like_reference(g[r:r + 1], t_pos, margin)
        f_pos, f_neg = g[r, :t_pos], g[r, t_pos:]
        if certified[0]:
            assert not (f_pos[:, None] == f_neg[None, :]).any()
            assert losses[0] == pair_loss_naive(f_pos, f_neg)
        if np.abs(f_pos[:, None] - f_neg[None, :]).min() > 2 * margin + _tie_free_gap_bound(g[r]):
            assert certified[0]


@settings(max_examples=150, deadline=None)
@given(edge_rows(), st.sampled_from((0.0, 0.125)))
def test_certified_path_matches_csr_on_edge_values(rows, lam):
    # the first row's values as a one-feature set; a constant second
    # feature keeps the dense copy smaller than the CSR arrays. The decision
    # values are the edge values times 1, -1 or -0.5, or plus 0.5. A set in
    # which a positive equals a negative stays on CSR.
    g, t_pos = rows
    X = np.column_stack([g[0], np.ones(g.shape[1])])
    labels = np.repeat(np.array([1, -1], dtype=np.int64), [t_pos, g.shape[1] - t_pos])
    W = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.5], [-0.5, 0.0]])
    view = Dataset(sparse.csr_matrix(X), labels).full_view()
    shares_a_row = bool(set(g[0, :t_pos].tolist()) & set(g[0, t_pos:].tolist()))
    assert (view.dense_rows() is None) == shares_a_row
    assert np.array_equal(evaluate(W, view, lam)[0], csr_evaluate(W, view, lam)[0])
