import numpy as np
import pytest
from scipy import sparse

from emtauc.data import (
    DataError,
    Dataset,
    DatasetView,
    as_rate,
    parse_libsvm,
    parse_libsvm_path,
    scale_features,
    serialize_libsvm,
    stratified_kfold,
    stratified_sample,
)

from conftest import make_gaussian_dataset

SAMPLE = """# a comment line
+1 1:2.0 3:1.0
-1 1:-1.0 2:0.5

2 2:1.5  # trailing comment
0 3:-2.0
"""


def test_parse_basic():
    ds = parse_libsvm(SAMPLE)
    assert ds.n == 4
    assert ds.dim == 3
    assert ds.t_pos == 2 and ds.t_neg == 2
    # labels: anything > 0 is positive, everything else negative
    assert list(ds.labels) == [1, -1, 1, -1]
    row = ds.X[0]
    assert ds.labels[0] == 1
    assert list(zip((row.indices + 1).tolist(), row.data.tolist())) == [(1, 2.0), (3, 1.0)]


def test_parse_accepts_bytes():
    ds = parse_libsvm(SAMPLE.encode("utf-8"))
    assert ds.n == 4


def test_round_trip_canonical():
    ds = parse_libsvm(SAMPLE)
    text = serialize_libsvm(ds)
    again = parse_libsvm(text)
    assert again == ds
    # canonical form is a fixed point
    assert serialize_libsvm(again) == text


def test_parse_error_line_numbers():
    bad = "+1 1:1.0\n-1 2:oops\n"
    with pytest.raises(DataError, match="line 2"):
        parse_libsvm(bad)
    with pytest.raises(DataError, match="line 1"):
        parse_libsvm("+1 0:1.0\n")
    with pytest.raises(DataError, match="line 3"):
        parse_libsvm("+1 1:1\n-1 1:1\n+1 2:1 2:3\n")


def test_parse_rejects_decreasing_indices():
    with pytest.raises(DataError, match="line 1"):
        parse_libsvm("+1 3:1.0 2:1.0\n-1 1:1.0\n")


def test_parse_rejects_nonfinite():
    with pytest.raises(DataError, match="line 2"):
        parse_libsvm("+1 1:1.0\n-1 1:inf\n")
    with pytest.raises(DataError, match="line 1: invalid label 'nan'"):
        parse_libsvm("nan 1:1\n-1 1:2\n+1 1:3\n")
    ds = parse_libsvm("inf 1:1\n-1 1:2\n1e400 1:3\n")
    assert ds.labels.tolist() == [1, -1, 1]


def test_parse_rejects_oversized_index():
    # 2**63 does not fit the int64 dimension of a CSR matrix
    with pytest.raises(DataError, match="line 2: feature index 9223372036854775808 is too large"):
        parse_libsvm("-1 1:1.0\n+1 1:0.5 9223372036854775808:1\n")
    assert parse_libsvm("+1 9223372036854775807:1\n-1 1:1\n").dim == 2**63 - 1


def test_parse_requires_both_classes():
    with pytest.raises(DataError):
        parse_libsvm("+1 1:1.0\n+1 1:2.0\n")


def test_parse_missing_file(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        parse_libsvm_path(str(tmp_path / "nope.txt"))


def test_parse_path_prefixes_errors(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("+1 1:x\n")
    with pytest.raises(DataError, match="bad.txt"):
        parse_libsvm_path(str(p))


def test_scaling_examples():
    X = sparse.csr_matrix(np.array([[0.0, 3.0, -2.0], [5.0, 3.0, 0.0], [10.0, 3.0, 2.0]]))
    ds = Dataset(X, np.array([1, -1, 1]))
    scaled = scale_features(ds)
    dense = np.asarray(scaled.X.todense())
    assert list(dense[:, 0]) == [-1.0, 0.0, 1.0]
    assert list(dense[:, 1]) == [0.0, 0.0, 0.0]  # constant collapses to 0
    assert list(dense[:, 2]) == [-1.0, 0.0, 1.0]


def test_scaling_implicit_zeros_participate():
    # column 1 has values {4 (implicit 0 on row 2), 8}; min is the implicit 0
    ds = parse_libsvm("+1 1:4.0\n-1 2:1.0\n+1 1:8.0\n-1 1:2.0 2:-1.0\n")
    dense = np.asarray(scale_features(ds).X.todense())
    col = dense[:, 0]
    assert col.min() == -1.0 and col.max() == 1.0
    assert col[1] == -1.0  # the implicit zero became the column minimum


def test_scaling_idempotent_bitwise():
    ds = make_gaussian_dataset(3)
    once = scale_features(ds)
    twice = scale_features(once)
    assert (once.X != twice.X).nnz == 0
    assert np.array_equal(
        np.asarray(once.X.todense()), np.asarray(twice.X.todense())
    )


def test_scaling_endpoints_exact():
    rng = np.random.default_rng(5)
    X = sparse.csr_matrix(rng.normal(size=(30, 4)) * 13.7)
    ds = Dataset(X, np.where(rng.random(30) < 0.5, 1, -1))
    dense = np.asarray(scale_features(ds).X.todense())
    for j in range(dense.shape[1]):
        assert dense[:, j].min() == -1.0
        assert dense[:, j].max() == 1.0


def test_scaling_rejects_a_shape_numpy_refuses():
    # 2 x 2**62 float64 values exceed the address space: numpy refuses the
    # shape before allocating anything
    ds = parse_libsvm("+1 1:0.5 4611686018427387904:1\n-1 1:0.1\n")
    with pytest.raises(DataError, match="dense 2 x 4611686018427387904 feature matrix is too large"):
        scale_features(ds)


def test_scaling_rejects_a_shape_past_physical_memory(monkeypatch):
    # a 2 x 4 set needs two 64-byte dense copies; the machine reports 100 bytes
    pages = {"SC_PHYS_PAGES": 25, "SC_PAGE_SIZE": 4}
    monkeypatch.setattr("emtauc.data.os.sysconf", pages.__getitem__)
    ds = parse_libsvm("+1 1:0.5 4:1\n-1 1:0.1\n")
    with pytest.raises(DataError, match=r"^dense 2 x 4 feature matrix is too large to scale$"):
        scale_features(ds)
    pages["SC_PHYS_PAGES"] = 32
    assert scale_features(ds).X.shape == (2, 4)


def test_as_rate_exact():
    assert as_rate(0.1) == as_rate("1/10") == as_rate("0.1")
    assert as_rate(1) == 1
    for bad in (0, -0.5, 1.5, "x", True):
        with pytest.raises((DataError, TypeError)):
            as_rate(bad)


def test_stratified_sample_counts_and_determinism():
    ds = make_gaussian_dataset(7, n_pos=53, n_neg=91)
    view = stratified_sample(ds, "0.1", seed=42)
    assert view.t_pos == 5 and view.t_neg == 9  # floor(0.1 * T)
    again = stratified_sample(ds, "0.1", seed=42)
    assert np.array_equal(view.selected, again.selected)
    other = stratified_sample(ds, "0.1", seed=43)
    assert not np.array_equal(view.selected, other.selected)
    # indices ascending, no duplicates, drawn from the right classes
    sel = view.selected
    assert np.all(np.diff(sel) > 0)


def test_stratified_sample_minimum_one():
    ds = make_gaussian_dataset(2, n_pos=3, n_neg=40)
    view = stratified_sample(ds, "0.1", seed=0)
    assert view.t_pos == 1  # max(1, floor(0.3))
    assert view.t_neg == 4


def test_stratified_sample_full_rate_takes_everything():
    ds = make_gaussian_dataset(9, n_pos=12, n_neg=17)
    view = stratified_sample(ds, 1, seed=5)
    assert view.t_pos == 12 and view.t_neg == 17
    assert np.array_equal(view.selected, np.arange(ds.n))


def test_kfold_structure():
    ds = make_gaussian_dataset(11, n_pos=23, n_neg=34)
    split = stratified_kfold(ds, 5, seed=3)
    seen = np.zeros(ds.n, dtype=int)
    for fold in range(5):
        test = split.test_indices(fold)
        train = split.train_indices(fold)
        assert np.intersect1d(test, train).size == 0
        assert test.size + train.size == ds.n
        seen[test] += 1
        # per-class counts even out to within one instance
        pos_in_fold = np.intersect1d(test, ds.pos_idx).size
        neg_in_fold = np.intersect1d(test, ds.neg_idx).size
        assert pos_in_fold in (23 // 5, 23 // 5 + 1)
        assert neg_in_fold in (34 // 5, 34 // 5 + 1)
    assert np.all(seen == 1)


def test_kfold_errors():
    ds = make_gaussian_dataset(1, n_pos=4, n_neg=40)
    with pytest.raises(DataError):
        stratified_kfold(ds, 5, seed=0)  # positive class too small
    with pytest.raises(DataError):
        stratified_kfold(ds, 1, seed=0)
    split = stratified_kfold(ds, 4, seed=0)
    with pytest.raises(DataError):
        split.test_indices(4)


def test_subset_keeps_dim_and_classes():
    ds = make_gaussian_dataset(4, n_pos=10, n_neg=10, dim=6)
    sub = ds.subset(np.array([0, 3, 11, 15]))
    assert sub.dim == 6
    assert sub.n == 4
    assert sub.t_pos == 2 and sub.t_neg == 2


def test_dataset_equality_is_semantic():
    ds = make_gaussian_dataset(8)
    clone = Dataset(ds.X.copy(), ds.labels.copy())
    assert ds == clone
    flipped = Dataset(ds.X.copy(), -ds.labels)
    assert ds != flipped


def test_view_fingerprint_tracks_selection():
    ds = make_gaussian_dataset(6)
    v1 = DatasetView(ds, np.arange(10))
    v2 = DatasetView(ds, np.arange(10))
    v3 = DatasetView(ds, np.arange(1, 11))
    assert v1.fingerprint() == v2.fingerprint()
    assert v1.fingerprint() != v3.fingerprint()
