from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse

from emtauc.data import Dataset, DatasetView
from emtauc.evaluation import (
    auc_metric,
    decision_values,
    hardness_scores,
    loss_fraction,
    objective,
    objective_batch,
    pairwise_loss_count,
    select_hardest,
)

from conftest import make_gaussian_dataset, random_small_dataset
from _oracles import hardness_naive, pair_loss_broadcast, pair_loss_naive, select_hardest_naive


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
    batch = objective_batch(W, view, 0.125)
    for i in range(W.shape[0]):
        assert batch[i] == objective(W[i], view, 0.125)


def test_objective_batch_chunking_bit_equal(toy_dataset):
    # objective_batch's documented contract: rows are independent, so any
    # split of a batch reproduces the full batch bit for bit
    rng = np.random.default_rng(4)
    view = toy_dataset.full_view()
    W = rng.uniform(-1, 1, size=(23, toy_dataset.dim))
    full = objective_batch(W, view, 0.125)
    for parts in (2, 3, 7):
        chunks = [objective_batch(c, view, 0.125) for c in np.array_split(W, parts)]
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
    view = DatasetView(toy_dataset, np.arange(0, toy_dataset.n, 2))
    w = np.linspace(-1, 1, toy_dataset.dim)
    f_pos, f_neg = decision_values(w, view)
    assert f_pos.shape[0] == view.t_pos
    assert f_neg.shape[0] == view.t_neg


def test_weight_shape_validation(toy_dataset):
    with pytest.raises(ValueError):
        objective(np.zeros(toy_dataset.dim + 1), toy_dataset.full_view(), 0.125)
    with pytest.raises(ValueError):
        objective_batch(np.zeros((3, toy_dataset.dim + 1)), toy_dataset.full_view(), 0.125)
