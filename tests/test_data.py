import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from emtauc import data
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

from _oracles import scale_features_dense
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


def test_parse_names_the_line_of_invalid_utf8():
    with pytest.raises(DataError, match=r"^line 3: input is not valid UTF-8 \(byte 0xff\)$"):
        parse_libsvm(b"+1 1:1\n-1 1:2\n+1 1:\xff\n")
    # \r\n and a lone \r each end one line
    with pytest.raises(DataError, match=r"^line 4: input is not valid UTF-8 \(byte 0xc3\)$"):
        parse_libsvm(b"+1 1:1\r\n-1 1:2\r\r+1 1:\xc3(\n")


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
    # past the 4300 digits int() reads, and leading zeros that count for nothing
    with pytest.raises(DataError, match=r"^line 1: feature index 10{5000} is too large$"):
        parse_libsvm("+1 1" + "0" * 5000 + ":1\n-1 1:1\n")
    assert parse_libsvm("+1 " + "0" * 5000 + "2:1\n-1 1:1\n").dim == 2


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


@st.composite
def scaling_inputs(draw):
    """A CSR matrix and labels (one row and one class included) whose
    columns are each drawn as mostly implicit zeros, constant, spanning
    exactly [-1, 1] (with points that scale to 0.0) or any finite values."""
    n = draw(st.integers(1, 9))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["zeros", "constant", "unit", "symmetric", "any"]))
        if kind == "constant":
            col = [draw(st.floats(-5, 5))] * n
        else:
            pool = {
                "zeros": st.sampled_from([0.0, 0.0, 0.0, 2.5, -7.0]),
                "unit": st.sampled_from([-1.0, 1.0, 0.0, 0.5, -0.25]),
                "symmetric": st.sampled_from([-3.0, 3.0, 0.0, 1.5, -1.5]),
                "any": st.floats(allow_nan=False, allow_infinity=False),
            }[kind]
            col = [draw(pool) for _ in range(n)]
        columns.append(col)
    labels = np.array(draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n)))
    return sparse.csr_matrix(np.array(columns).T), labels


def scaled_bytes(scale, ds):
    try:
        out = scale(ds)
    except DataError as exc:
        return f"DataError: {exc}"
    X = out.X
    return X.shape, X.indices.dtype, X.indptr.dtype, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes(), out.labels.tobytes()


@settings(max_examples=200, deadline=None)
@given(scaling_inputs(), st.sampled_from([1, 2, 3, None]))
def test_row_blocked_scaling_matches_the_dense_oracle(inputs, rows):
    X, labels = inputs
    # the input as Dataset holds it, without its both-classes check
    ds = SimpleNamespace(X=X, labels=labels)
    block = data._DENSE_BLOCK_BYTES if rows is None else 8 * X.shape[1] * rows
    with mock.patch.object(data, "_DENSE_BLOCK_BYTES", block), np.errstate(over="ignore", invalid="ignore"):
        assert scaled_bytes(scale_features, ds) == scaled_bytes(scale_features_dense, ds)


def test_setup_memory_is_the_arrays_plus_a_few_blocks(tmp_path):
    # a dense 4000 x 50 file in the benchmark's layout, read and scaled in
    # 64 KiB blocks; whole-text parsing peaks near 8x and dense scaling
    # near 4x the arrays' bytes
    rng = np.random.default_rng(0)
    X = rng.normal(size=(4000, 50))
    y = np.where(rng.random(4000) < 0.4, 1, -1)
    row_fmt = "%s " + " ".join(f"{j + 1}:%r" for j in range(50)) + "\n"
    path = tmp_path / "dense.svm"
    path.write_text("".join(row_fmt % ("+1" if label > 0 else "-1", *row) for label, row in zip(y, X.tolist())))
    block = 1 << 16

    def bound(ds):
        arrays = ds.X.data.nbytes + ds.X.indices.nbytes + ds.X.indptr.nbytes + ds.labels.nbytes
        return 2.5 * arrays + 4 * block

    with mock.patch.object(data, "_BLOCK_SIZE", block), mock.patch.object(data, "_DENSE_BLOCK_BYTES", block):
        tracemalloc.start()
        try:
            raw = parse_libsvm_path(path)
            parse_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            scaled = scale_features(raw)
            scale_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    assert raw == Dataset(sparse.csr_matrix(X), y)
    assert parse_peak <= bound(raw)
    assert scale_peak <= bound(scaled)


def test_builders_hand_their_fresh_arrays_to_the_dataset(tmp_path):
    # parsing and scaling hold the result's arrays once, plus its values
    # again while their per-block parts are joined; a subset joins nothing.
    # Copying the result into the Dataset would add all its arrays again.
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3000, 40))
    y = np.where(rng.random(3000) < 0.4, 1, -1)
    row_fmt = "%s " + " ".join(f"{j + 1}:%r" for j in range(40)) + "\n"
    path = tmp_path / "dense.svm"
    path.write_text("".join(row_fmt % ("+1" if label > 0 else "-1", *row) for label, row in zip(y, X.tolist())))
    block = 1 << 16

    def arrays(ds):
        return ds.X.data.nbytes + ds.X.indices.nbytes + ds.X.indptr.nbytes + ds.labels.nbytes

    def traced(build, arg):
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        out = build(arg)
        return out, tracemalloc.get_traced_memory()[1] - held

    with mock.patch.object(data, "_BLOCK_SIZE", block), mock.patch.object(data, "_DENSE_BLOCK_BYTES", block):
        tracemalloc.start()
        try:
            raw, parse_peak = traced(parse_libsvm_path, path)
            scaled, scale_peak = traced(scale_features, raw)
            half, subset_peak = traced(scaled.subset, np.arange(0, scaled.n, 2))
        finally:
            tracemalloc.stop()
    assert parse_peak <= arrays(raw) + raw.X.data.nbytes + 4 * block
    assert scale_peak <= arrays(scaled) + scaled.X.data.nbytes + 4 * block
    assert subset_peak <= 1.5 * arrays(half)
    assert half == Dataset(scaled.X[::2], scaled.labels[::2])
    assert not np.shares_memory(half.X.data, scaled.X.data)
    # the public constructor still copies what it is given
    clone = Dataset(half.X, half.labels)
    assert not np.shares_memory(clone.X.data, half.X.data)
    assert not np.shares_memory(clone.labels, half.labels)


def test_dataset_rejects_labels_that_are_not_exactly_plus_or_minus_one():
    X = np.eye(2)
    for bad in (1.7, np.nan, 1e30):
        with pytest.raises(DataError, match=r"^labels must be \+1 or -1$"):
            Dataset(X, [bad, -1])
    # exact +1 and -1 are valid in any numeric dtype
    for labels in ([1, -1], [1.0, -1.0], np.array([1, -1], dtype=np.int8), np.array([1.0, -1.0], dtype=np.float32)):
        ds = Dataset(X, labels)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, -1]


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


def test_indices_must_be_integers():
    # a float list or a bool mask would otherwise cast to positions silently
    ds = make_gaussian_dataset(4, n_pos=10, n_neg=10, dim=6)
    for bad in ([0.9, 1.7], np.array([True, False])):
        with pytest.raises(DataError, match="^subset indices must be integers"):
            ds.subset(bad)
        with pytest.raises(DataError, match="^view indices must be integers"):
            DatasetView(ds, bad)
    # an empty list reads as float64 and keeps its own message
    with pytest.raises(DataError, match="^subset indices must be nonempty$"):
        ds.subset([])
    assert ds.subset(np.array([ds.neg_idx[0], ds.pos_idx[0]], dtype=np.int32)).n == 2


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
