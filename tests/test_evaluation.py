import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from scipy import sparse

from emtauc import data, evaluation
from emtauc.config import _DEFAULT_POP
from emtauc.data import Dataset, DatasetView
from emtauc.environment import TaskId, build_environment
from emtauc.evaluation import (
    _batch_margin,
    auc_metric,
    evaluate,
    hardness_scores,
    loss_fraction,
    objective,
    pairwise_loss_count,
    select_hardest,
)

from conftest import count_path_rows, csr_evaluate, make_gaussian_dataset, random_small_dataset
from _oracles import (
    decision_values,
    dot_exact,
    hardness_naive,
    higham_gamma,
    pair_loss_broadcast,
    pair_loss_naive,
    select_hardest_naive,
)


def one_feature_dataset(pos_values, neg_values) -> Dataset:
    vals = np.array(list(pos_values) + list(neg_values), dtype=np.float64)
    labels = np.array([1] * len(pos_values) + [-1] * len(neg_values))
    return Dataset(sparse.csr_matrix(vals.reshape(-1, 1)), labels)


def test_pair_count_frozen_example():
    # f+ = (2, 1), f- = (1, 0): only the pair (1, 1) ties, and ties lose
    assert pairwise_loss_count([2.0, 1.0], [1.0, 0.0]) == 1
    assert pair_loss_naive([2.0, 1.0], [1.0, 0.0]) == 1


def test_pair_count_all_ties():
    # zero weights give identical decision values: every pair is a loss
    assert pairwise_loss_count([0.0] * 3, [0.0] * 5) == 15


def test_pair_count_separable():
    assert pairwise_loss_count([3.0, 2.0], [1.0, 0.5, -1.0]) == 0


def test_pair_count_rejects_empty():
    with pytest.raises(ValueError):
        pairwise_loss_count([], [1.0])


def test_pair_count_rejects_nan():
    # NaN compares false both ways, so no pair with a NaN is a loss, but
    # the sorted search would count (0.5, nan) as one
    assert pair_loss_naive([0.5], [np.nan, 0.1]) == pair_loss_broadcast([0.5], [np.nan, 0.1]) == 0
    with pytest.raises(ValueError, match="NaN"):
        pairwise_loss_count([0.5], [np.nan, 0.1])
    with pytest.raises(ValueError, match="NaN"):
        pairwise_loss_count([np.nan], [0.1])


def test_overflowing_decision_values_reject_nan():
    # finite rows and weights whose decision values overflow to inf and
    # inf - inf: the second positive's is NaN. The view densifies, but the
    # margin is infinite, so the row goes to CSR without a BLAS product,
    # and no numpy overflow or invalid-value warning is raised.
    X = np.array([[1e308, 1e308, 0.0], [1e308, -1e308, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    ds = Dataset(sparse.csr_matrix(X), np.array([1, 1, -1, -1]))
    w = np.array([1e10, 1e10, 1.0])
    view = ds.full_view()
    for call in (
        lambda: auc_metric(w, view),
        lambda: objective(w, view, 0.1),
        lambda: evaluate(w[np.newaxis, :], view, 0.1),
        lambda: hardness_scores(w, ds),
    ):
        with pytest.raises(ValueError, match="decision values must not be NaN"):
            call()
    assert view.dense_rows() is not None


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_weights_rejected(toy_dataset, bad):
    w = np.zeros(toy_dataset.dim)
    w[1] = bad
    view = toy_dataset.full_view()
    for call in (
        lambda: objective(w, view, 0.0),
        lambda: auc_metric(w, view),
        lambda: evaluate(np.vstack([np.zeros_like(w), w]), view, 0.0),
        lambda: hardness_scores(w, toy_dataset),
    ):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_pair_count_matches_oracles():
    rng = np.random.default_rng(0)
    grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    for _ in range(300):
        f_pos = rng.choice(grid, size=rng.integers(1, 30))
        f_neg = rng.choice(grid, size=rng.integers(1, 30))
        want = pair_loss_broadcast(f_pos, f_neg)
        assert pairwise_loss_count(f_pos, f_neg) == want
        assert pair_loss_naive(f_pos, f_neg) == want  # the two oracles agree too


def test_auc_plus_loss_is_one(toy_dataset):
    rng = np.random.default_rng(1)
    view = toy_dataset.full_view()
    eps = np.finfo(np.float64).eps
    for _ in range(50):
        w = rng.uniform(-1, 1, size=toy_dataset.dim)
        assert abs(auc_metric(w, view) + loss_fraction(w, view) - 1.0) <= eps


def test_auc_scale_invariance(toy_dataset):
    rng = np.random.default_rng(2)
    view = toy_dataset.full_view()
    for _ in range(20):
        w = rng.uniform(-1, 1, size=toy_dataset.dim)
        base = auc_metric(w, view)
        for c in (1e-3, 1.0, 1e3):
            assert auc_metric(c * w, view) == base


def test_objective_zero_weights(toy_dataset):
    # all pairs tie -> loss fraction 1, no penalty
    w = np.zeros(toy_dataset.dim)
    assert objective(w, toy_dataset.full_view(), 0.125) == 1.0


def test_objective_penalty_term():
    ds = one_feature_dataset([1.0], [-1.0])
    view = ds.full_view()
    # w = (1.0,): perfect ranking, objective is the penalty alone
    assert objective(np.array([1.0]), view, 0.125) == 0.5 * 0.125
    assert objective(np.array([1.0]), view, 0.0) == 0.0


def test_objective_batch_matches_scalar(toy_dataset):
    rng = np.random.default_rng(3)
    view = toy_dataset.full_view()
    W = rng.uniform(-1, 1, size=(40, toy_dataset.dim))
    batch = evaluate(W, view, 0.125)[0]
    for i in range(W.shape[0]):
        assert batch[i] == objective(W[i], view, 0.125)


def test_objective_batch_chunking_bit_equal(toy_dataset):
    # evaluate's documented contract: rows are independent, so any
    # split of a batch reproduces the full batch bit for bit
    rng = np.random.default_rng(4)
    view = toy_dataset.full_view()
    W = rng.uniform(-1, 1, size=(23, toy_dataset.dim))
    full = evaluate(W, view, 0.125)[0]
    for parts in (2, 3, 7):
        chunks = [evaluate(c, view, 0.125)[0] for c in np.array_split(W, parts)]
        assert np.array_equal(np.concatenate(chunks), full)


def test_hardness_frozen_example():
    ds = one_feature_dataset([2.0, 1.0], [1.0, 0.0])
    scores = hardness_scores(np.array([1.0]), ds)
    assert list(scores.pos_scores) == [0, 1]
    assert list(scores.neg_scores) == [0, 0]


def test_hardness_zero_weights():
    ds = one_feature_dataset([1.0, 2.0, 3.0], [4.0, 5.0])
    scores = hardness_scores(np.array([0.0]), ds)
    assert list(scores.pos_scores) == [2, 2, 2]  # every negative ties
    assert list(scores.neg_scores) == [0, 0]  # no positive is strictly below


def test_hardness_sum_identity(toy_dataset):
    rng = np.random.default_rng(5)
    view = toy_dataset.full_view()
    for _ in range(30):
        w = rng.uniform(-1, 1, size=toy_dataset.dim)
        scores = hardness_scores(w, toy_dataset)
        f_pos, f_neg = decision_values(w, view)
        assert int(scores.pos_scores.sum()) == pairwise_loss_count(f_pos, f_neg)


def test_hardness_matches_oracle():
    rng = np.random.default_rng(6)
    wgrid = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])
    for _ in range(200):
        ds = random_small_dataset(rng)
        w = rng.choice(wgrid, size=ds.dim)
        scores = hardness_scores(w, ds)
        f_pos, f_neg = decision_values(w, ds.full_view())
        want_pos, want_neg = hardness_naive(f_pos, f_neg)
        assert np.array_equal(scores.pos_scores, want_pos)
        assert np.array_equal(scores.neg_scores, want_neg)


def test_select_hardest_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        ds = random_small_dataset(rng, max_per_class=30)
        w = rng.uniform(-1, 1, size=ds.dim)
        scores = hardness_scores(w, ds)
        for rate in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            view = select_hardest(scores, ds, rate)
            n_pos = max(1, int(rate * ds.t_pos))
            n_neg = max(1, int(rate * ds.t_neg))
            want = select_hardest_naive(
                scores.pos_scores, scores.neg_scores, ds.pos_idx, ds.neg_idx, n_pos, n_neg
            )
            assert list(view.selected) == want


def test_select_hardest_tie_breaks_prefer_low_index():
    # zero weights tie everything, so selection is by original position
    ds = one_feature_dataset([5.0, 4.0, 3.0], [2.0, 1.0, 0.0, -1.0])
    scores = hardness_scores(np.array([0.0]), ds)
    view = select_hardest(scores, ds, "1/3")
    assert list(view.selected) == [0, 3]  # first positive, first negative


def test_select_hardest_validates_lengths(toy_dataset):
    other = make_gaussian_dataset(12, n_pos=5, n_neg=5)
    scores = hardness_scores(np.zeros(other.dim), other)
    with pytest.raises(ValueError):
        select_hardest(scores, toy_dataset, "0.1")


def test_decision_values_view_subset(toy_dataset):
    # a view of some instances, in shuffled order, evaluates bit for bit as
    # the Dataset of the same instances does, and as the CSR values count;
    # the zero weight row ties every pair and falls back to CSR
    rng = np.random.default_rng(3)
    idx = rng.permutation(toy_dataset.n)[: toy_dataset.n // 2]
    W = rng.normal(size=(6, toy_dataset.dim))
    W[0] = 0.0
    view = DatasetView(toy_dataset, idx)
    with count_path_rows() as rows:
        got = evaluate(W, view, 0.125)
        want = evaluate(W, toy_dataset.subset(idx).full_view(), 0.125)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert [a.tobytes() for a in got] == [b.tobytes() for b in csr_evaluate(W, view, 0.125)]
    assert rows == {"certified": 10, "csr": 2}


@pytest.mark.parametrize("label", [1, -1])
def test_one_class_view_rejected(toy_dataset, label):
    view = DatasetView(toy_dataset, np.flatnonzero(toy_dataset.labels == label))
    w = np.zeros(toy_dataset.dim)
    for call in (
        lambda: evaluate(w[np.newaxis, :], view, 0.125),
        lambda: objective(w, view, 0.125),
        lambda: loss_fraction(w, view),
        lambda: auc_metric(w, view),
    ):
        with pytest.raises(ValueError, match="both classes"):
            call()


def test_weight_shape_validation(toy_dataset):
    with pytest.raises(ValueError):
        objective(np.zeros(toy_dataset.dim + 1), toy_dataset.full_view(), 0.125)
    with pytest.raises(ValueError):
        evaluate(np.zeros((3, toy_dataset.dim + 1)), toy_dataset.full_view(), 0.125)


def test_rounding_margin_bounds():
    dim = 50
    magnitudes = np.linspace(0.5, 3.0, dim)
    magnitude_sum = sum(magnitudes.tolist())
    big = np.zeros(dim)
    big[-1] = 0.2 * np.finfo(np.float64).max
    W = np.array([np.linspace(-1, 1, dim), np.full(dim, 1e-170), np.zeros(dim), np.full(dim, 1e307), big])
    # twice the 4 * gamma_d * |w| . magnitudes that a pair's rounding can
    # reach, summed exactly (the signs of w do not lower it), up to the
    # rounding of the margin's own few float operations: for each row
    # alone, and for every row of a batch that holds it
    for r in (0, 1):
        bound = 8 * higham_gamma(dim) * dot_exact(np.abs(W[r]), magnitudes)
        for batch in (W[r:r + 1], W[:3]):
            assert Fraction(_batch_margin(batch, magnitude_sum)) >= bound * (1 - higham_gamma(dim + 4))
    assert 0 < _batch_margin(W[2:3], magnitude_sum) < 1e-300
    # the products could overflow: the batch always falls back, whether
    # max|w| * sum(magnitudes) overflows (1e307 * 87.5) or only exceeds
    # half the largest float, and whatever other rows it holds
    for batch in (W[3:4], W[4:5], W[:4], W[[0, 4]]):
        assert _batch_margin(batch, magnitude_sum) == np.inf


def test_tie_heavy_rows_fall_back_to_csr():
    # features in {-1, 0, 1} at dim 2: 40 instances over 9 distinct rows,
    # so rows repeat across the classes and every weight vector ties: the
    # view stays on CSR
    rng = np.random.default_rng(4)
    X = rng.integers(-1, 2, size=(40, 2)).astype(np.float64)
    labels = np.where(np.arange(40) % 3 == 0, 1, -1)
    ds = Dataset(sparse.csr_matrix(X), labels)
    W = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -1.0], [0.3, 0.7], [-0.9, 0.2]])
    view = ds.full_view()
    with count_path_rows() as rows:
        got = evaluate(W, view, 0.125)[0]
    assert view.dense_rows() is None
    want = csr_evaluate(W, view, 0.125)[0]
    assert rows == {"certified": 0, "csr": W.shape[0]}
    assert np.array_equal(got, want)
    losses = [pair_loss_naive(*decision_values(w, view)) for w in W]
    assert np.array_equal(got, np.array(losses) / (view.t_pos * view.t_neg) + 0.0625 * np.einsum("ij,ij->i", W, W))


def test_paper_size_tie_heavy_rows_fall_back_to_csr():
    # 768 x 8 sign features, the paper's scale: the rows repeat 256
    # patterns across the classes, so every weight row ties a positive with
    # a negative and would fail the certificate. A view finds such a pair
    # once, where it would densify, and stays on CSR: no BLAS product is
    # taken. The full view and the cheap task's first 76-instance view hold
    # such pairs. The view rebuilt from the hardest instances under all-ones
    # weights holds none (its positives have few +1 features, its negatives
    # many), so it densifies, but weights in quarters tie its distinct rows
    # and no row certifies. On every view every count is the CSR count.
    # Weights in quarters make every decision value exact, so the oracle's
    # product is exact too.
    rng = np.random.default_rng(11)
    X = rng.choice([-1.0, 1.0], size=(768, 8))
    labels = np.where(np.arange(768) < 268, 1, -1)
    ds = Dataset(sparse.csr_matrix(X), labels)
    W = rng.integers(-4, 5, size=(10, 8)) / 4
    env = build_environment(ds, seed=0)
    views = [ds.full_view(), env.tasks[TaskId.CHEAP].view, env.adjust_cheap_task(np.ones(8), generation=30)]
    assert [view.n for view in views] == [768, 76, 76]
    for view, shares_a_row in zip(views, (True, True, False)):
        rows = view.class_matrix.toarray()
        assert shares_a_row == bool({*map(tuple, rows[: view.t_pos])} & {*map(tuple, rows[view.t_pos:])})
        kernel = mock.Mock(wraps=evaluation._certified_loss_counts)
        with mock.patch.object(evaluation, "_certified_loss_counts", kernel), count_path_rows() as counted:
            got = evaluate(W, view, 0.125)
        assert (view.dense_rows() is None) == shares_a_row
        assert kernel.call_count == (0 if shares_a_row else 1)
        assert counted == {"certified": 0, "csr": W.shape[0]}
        assert [a.tobytes() for a in got] == [b.tobytes() for b in csr_evaluate(W, view, 0.125)]
        losses = [pair_loss_broadcast(X[view.pos_selected] @ w, X[view.neg_selected] @ w) for w in W]
        assert np.array_equal(got[1], np.array(losses) / (view.t_pos * view.t_neg))


def test_large_gaussian_view_certifies_every_row():
    # continuous features at 512 x 8: every row certifies on the BLAS path,
    # and every count equals the CSR values' count
    ds = make_gaussian_dataset(8, n_pos=256, n_neg=256, dim=8)
    W = np.random.default_rng(8).uniform(-1, 1, size=(12, ds.dim))
    view = ds.full_view()
    with count_path_rows() as rows:
        got = evaluate(W, view, 0.125)[0]
    assert rows == {"certified": W.shape[0], "csr": 0}
    want, csr_losses = csr_evaluate(W, view, 0.125)
    assert np.array_equal(got, want)
    # the AUC of a view is counted by the same certified path
    for metric, csr_value in ((loss_fraction, csr_losses[0]), (auc_metric, 1.0 - csr_losses[0])):
        with count_path_rows() as rows:
            assert metric(W[0], view).hex() == csr_value.hex()
        assert rows == {"certified": 1, "csr": 0}
    losses = [pair_loss_broadcast(*decision_values(w, view)) for w in W]
    want = np.array(losses) / (view.t_pos * view.t_neg) + 0.0625 * np.einsum("ij,ij->i", W, W)
    assert np.array_equal(got, want)


@pytest.mark.parametrize(
    ("rows", "csr_bytes"), [([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]], 48), ([[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]], 36)]
)
def test_a_view_densifies_when_its_dense_copy_is_no_larger_than_its_csr_arrays(rows, csr_bytes):
    # one positive and one negative at dim 3: the dense copy takes 48 bytes.
    # Three nonzeros take 48 CSR bytes (8 per value, 4 per index, 4 per
    # row pointer), so the view densifies and its row certifies; two take
    # 36 and the view stays on CSR. Both count the one pair alike.
    ds = Dataset(sparse.csr_matrix(np.array(rows)), np.array([1, -1]))
    view = ds.full_view()
    X = view.class_matrix
    assert X.data.nbytes + X.indices.nbytes + X.indptr.nbytes == csr_bytes
    with count_path_rows() as counted:
        losses = evaluate(np.array([[1.0, 1.0, 1.0]]), view, 0.125)[1]
    assert np.array_equal(losses, [0.0])
    if csr_bytes >= 48:
        assert view.dense_rows() is not None and counted == {"certified": 1, "csr": 0}
    else:
        assert view.dense_rows() is None and counted == {"certified": 0, "csr": 1}


def test_sparse_high_dim_view_never_densifies():
    # 5000 x 200000 with 10 nonzeros per row: a dense copy would take 8 GB
    rng = np.random.default_rng(9)
    n, dim, per_row = 5000, 200_000, 10
    cols = np.concatenate([np.sort(rng.choice(dim, per_row, replace=False)) for _ in range(n)])
    X = sparse.csr_matrix((rng.normal(size=n * per_row), cols, np.arange(0, n * per_row + 1, per_row)), shape=(n, dim))
    ds = Dataset(X, np.where(np.arange(n) % 2 == 0, 1, -1))
    view = ds.full_view()
    W = rng.uniform(-1, 1, size=(3, dim))
    with count_path_rows() as rows:
        evaluate(W, view, 0.125)
    assert rows == {"certified": 0, "csr": 3}
    assert view.dense_rows() is None and view._dense is False


@pytest.mark.parametrize("n", [20, 2000])
def test_views_without_features_lose_every_pair(n):
    # with no features every decision value is 0, so every pair ties. Every
    # row is the empty row, which both classes hold, so the view stays on
    # CSR, and every row is counted there
    ds = Dataset(np.zeros((n, 0)), np.where(np.arange(n) % 2 == 0, 1, -1))
    view = ds.full_view()
    with count_path_rows() as rows:
        losses = evaluate(np.zeros((3, 0)), view, 0.125)[1]
    assert np.array_equal(losses, np.ones(3))
    assert view.dense_rows() is None
    assert rows == {"certified": 0, "csr": 3}


def test_dense_copy_and_magnitudes_match_the_rows_in_every_block():
    # blocks of 3 rows over 11 instances, the last one partial; each
    # feature's largest magnitude sits in another row, two of them negative,
    # and the last feature is all zeros
    X = np.random.default_rng(6).uniform(-1, 1, size=(11, 5))
    X[[1, 4, 7, 10], [0, 1, 2, 3]] = [50.0, -60.0, 70.0, -80.0]
    X[:, 4] = 0.0
    ds = Dataset(sparse.csr_matrix(X), np.where(np.arange(11) % 3 == 0, 1, -1))
    with mock.patch.object(data, "_DENSE_BLOCK_BYTES", 8 * 5 * 3):
        view = DatasetView(ds, np.arange(ds.n)[::-1])
        rows = view.dense_rows()
    assert rows.matrix.flags.c_contiguous
    assert np.array_equal(rows.matrix, view.class_matrix.toarray().T)
    assert rows.magnitude_sum == 50.0 + 60.0 + 70.0 + 80.0
    assert (rows.t_pos, rows.pairs) == (4, 4 * 7)


def test_dense_rows_and_their_constants_are_built_once_per_view():
    # two evaluations on one view build its dense copy and constants once,
    # at the first evaluation and not when the view is made; the view that
    # a cheap-task rebuild makes builds its own
    ds = make_gaussian_dataset(12, n_pos=268, n_neg=500, dim=8)
    W = np.random.default_rng(12).uniform(-1, 1, size=(4, ds.dim))
    built = mock.Mock(wraps=DatasetView._dense_copy)
    with mock.patch.object(DatasetView, "_dense_copy", autospec=True, side_effect=built) as copy:
        env = build_environment(ds, seed=0)
        views = [task.view for task in env.tasks.values()]
        views.append(env.adjust_cheap_task(W[0], generation=30))
        assert copy.call_count == 0
        for view in views:
            for _ in range(2):
                with count_path_rows() as rows:
                    evaluate(W, view, 0.125)
                assert rows == {"certified": W.shape[0], "csr": 0}
        assert [call.args[0] for call in copy.call_args_list] == views
    assert len({id(view.dense_rows()) for view in views}) == 3


def _csr_equal(a, b) -> bool:
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


@pytest.mark.parametrize("seed", range(4))
def test_class_blocks_are_the_class_rows_and_share_one_matrix(seed):
    rng = np.random.default_rng(seed)
    ds = random_small_dataset(rng)
    for view in (ds.full_view(), DatasetView(ds, rng.permutation(ds.n)[: max(2, ds.n // 2)])):
        assert _csr_equal(view.pos_matrix, ds.X[view.pos_selected])
        assert _csr_equal(view.neg_matrix, ds.X[view.neg_selected])
        assert _csr_equal(view.class_matrix, ds.X[np.concatenate([view.pos_selected, view.neg_selected])])
        for block in (view.pos_matrix, view.neg_matrix):
            assert np.shares_memory(block.data, view.class_matrix.data)
            assert np.shares_memory(block.indices, view.class_matrix.indices)


def test_solver_batches_on_the_largest_benchmark_view_are_one_chunk():
    # a solver evaluates at most pop_size rows per task at once, and the
    # largest benchmark view (the 20000 x 50 workload's full view) has 20000
    # instances, so chunking never splits a solver batch there
    assert evaluation._CHUNK_BYTES // (8 * 20000) >= max(_DEFAULT_POP.values())


def test_first_certified_evaluation_holds_one_copy_of_the_rows():
    # The full view keeps one class-ordered CSR copy of its rows and one
    # dense copy of it, and nothing else. No step may build a second copy
    # even for a moment: the peak of building the CSR copy (the first step
    # of the first evaluation) is that copy plus a few index arrays of the
    # view's length, and the peak of the rest of the evaluation is the
    # dense copy plus the larger of two working sets measured on the
    # cached view: the block build of the dense copy (its peak less the
    # copy it keeps, rebuilt from the cached CSR copy) and a repeated
    # evaluation. With one row of weights both stay under a dense copy, so
    # that a transient second dense copy exceeds the bound.
    ds = make_gaussian_dataset(5, n_pos=2400, n_neg=3600, dim=20)
    view = ds.full_view()
    W = np.random.default_rng(5).uniform(-1, 1, size=(1, ds.dim))
    dense_bytes = 8 * view.n * ds.dim
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        X = view.class_matrix
        built_csr, csr_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with count_path_rows() as rows:
            evaluate(W, view, 0.125)
        held, eval_peak = tracemalloc.get_traced_memory()
        held -= before
        eval_peak -= built_csr
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        evaluate(W, view, 0.125)
        rerun_peak = tracemalloc.get_traced_memory()[1] - start
        view._dense = None
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert view.dense_rows() is not None
        build_peak = tracemalloc.get_traced_memory()[1] - start - dense_bytes
    finally:
        tracemalloc.stop()
    assert rows == {"certified": W.shape[0], "csr": 0}
    csr_bytes = X.data.nbytes + X.indices.nbytes + X.indptr.nbytes
    slack = 16 << 10
    assert held <= csr_bytes + dense_bytes + slack
    assert csr_peak - before <= csr_bytes + 4 * 8 * view.n + slack
    working = max(build_peak, rerun_peak) + slack
    assert working < dense_bytes
    assert eval_peak <= dense_bytes + working


def test_certified_evaluation_working_set_stays_under_the_search_kernels():
    # A 20-row evaluation on a full view whose dense copy is already cached
    # holds the (k, n) float64 BLAS block, sorted in place, and one more
    # array of its size at a time: the class tags, then the gaps of its
    # neighbours. The kernel that binary-searched sorted positives among
    # sorted negatives peaked at 3.6 such blocks here, and the one that
    # counted from a bool mask of the tags at 2.25; no kernel may exceed it.
    # On the second set every instance appears twice, so each row has equal
    # neighbours of one class: no row passes the first stage, and all are
    # certified by the class-aware check.
    ds = make_gaussian_dataset(5, n_pos=2400, n_neg=3600, dim=20)
    twice = Dataset(sparse.vstack([ds.X, ds.X]), np.concatenate([ds.labels, ds.labels]))
    W = np.random.default_rng(6).uniform(-1, 1, size=(20, ds.dim))
    for view in (ds.full_view(), twice.full_view()):
        evaluate(W, view, 0.125)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            with count_path_rows() as rows:
                evaluate(W, view, 0.125)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rows == {"certified": W.shape[0], "csr": 0}
        assert peak <= 2.25 * 8 * W.shape[0] * view.n + (16 << 10)
