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
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

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
        self._own(sp.csr_matrix(X, dtype=np.float64, copy=True), np.array(labels))

    @classmethod
    def _adopt(cls, X: sp.csr_matrix, labels: np.ndarray) -> "Dataset":
        """The Dataset of a float64 CSR matrix and int64 labels that nothing
        else holds, taken over without the copy ``Dataset(X, labels)`` makes."""
        ds = cls.__new__(cls)
        ds._own(X, labels)
        return ds

    def _own(self, X: sp.csr_matrix, labels: np.ndarray) -> None:
        """Canonicalise ``X`` in place, check both arrays and keep them.
        Labels are checked before they become int64, so that a value
        such as 1.7, NaN or 1e30 is rejected, not truncated."""
        X.sum_duplicates()
        X.eliminate_zeros()
        X.sort_indices()
        if labels.ndim != 1 or labels.shape[0] != X.shape[0]:
            raise DataError("labels must be one per matrix row")
        if not np.all(np.isin(labels, (-1, 1))):
            raise DataError("labels must be +1 or -1")
        labels = labels.astype(np.int64, copy=False)
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
        return Dataset._adopt(self.X[idx], self.labels[idx])

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
    idx = np.asarray(indices)
    if idx.ndim != 1:
        raise DataError(f"{what} indices must be one-dimensional")
    if idx.size == 0:
        raise DataError(f"{what} indices must be nonempty")
    if idx.dtype.kind not in "iu":
        raise DataError(f"{what} indices must be integers, got dtype {idx.dtype}")
    idx = idx.astype(np.int64, copy=False)
    if idx.min() < 0 or (idx >= n).any():
        raise DataError(f"{what} indices out of range for {n} instances")
    if np.unique(idx).size != idx.size:
        raise DataError(f"{what} indices contain duplicates")
    return idx


# Bytes of one dense row block of ``_dense_blocks``, the walk that
# ``scale_features`` and ``DatasetView.dense_rows`` densify rows by. Besides
# its result, ``dense_rows`` holds one block and the block's absolute values,
# about half a MiB. Blocks of 1 MiB would hold a transient second full copy
# on every view whose dense copy is under 1 MiB, such as 6000 x 20.
_DENSE_BLOCK_BYTES = 1 << 18


def _row_block(X: sp.csr_matrix, start: int, stop: int) -> sp.csr_matrix:
    """Rows ``start:stop`` of ``X`` as a CSR matrix whose data and indices
    are views of ``X``'s. Only its indptr is new; the ``csr_matrix``
    constructor would copy a view of less than half its base."""
    lo, hi = X.indptr[start], X.indptr[stop]
    block = sp.csr_matrix((stop - start, X.shape[1]), dtype=X.dtype)
    block.data, block.indices = X.data[lo:hi], X.indices[lo:hi]
    block.indptr = X.indptr[start:stop + 1] - lo
    return block


def _dense_blocks(X: sp.csr_matrix):
    """``(start, block)`` for consecutive dense row blocks of the CSR matrix
    ``X`` of about ``_DENSE_BLOCK_BYTES`` each: ``block`` holds rows
    ``start:start + len(block)``, densified from a ``_row_block`` that
    shares ``X``'s arrays, so no block copies its CSR rows first."""
    n, dim = X.shape
    step = max(1, _DENSE_BLOCK_BYTES // (8 * max(dim, 1)))
    for start in range(0, n, step):
        yield start, _row_block(X, start, min(start + step, n)).toarray()


class DenseRows(NamedTuple):
    """A view's dense copy and the constants every evaluation on it reuses.

    ``matrix`` is the C-contiguous (dim, n) copy of ``class_matrix``,
    column j holding row j; ``magnitude_sum`` is the sum over the features
    of each one's largest magnitude over the view's rows (inf if it
    overflows); ``t_pos`` is the number of positives, which fill the first
    columns; ``pairs`` is t_pos * t_neg.
    """

    matrix: np.ndarray
    magnitude_sum: float
    t_pos: int
    pairs: int


def _has_cross_class_duplicates(X: sp.csr_matrix, t_pos: int) -> bool:
    """Whether some positive row of the class-ordered CSR matrix ``X`` (its
    first ``t_pos`` rows) equals some negative row.

    Every row is hashed by one CSR product with fixed weights. Equal rows
    hold the same (index, value) entries, since a Dataset's matrix has
    sorted indices and no explicit zeros, so their hashes are the same
    products summed in the same order and are equal. Only the positives
    whose hash a negative shares are then compared entry by entry, until
    one equals a negative. The weights sum to at most 1/2 in magnitude, so
    no hash overflows.
    """
    dim = X.shape[1]
    h = X @ (np.cos(np.arange(1.0, dim + 1)) / (2 * max(dim, 1)))
    neg_h = h[t_pos:]
    ptr, indices, data = X.indptr, X.indices, X.data
    for i in np.flatnonzero(np.isin(h[:t_pos], neg_h)):
        row = slice(ptr[i], ptr[i + 1])
        for j in t_pos + np.flatnonzero(neg_h == h[i]):
            other = slice(ptr[j], ptr[j + 1])
            if np.array_equal(indices[row], indices[other]) and np.array_equal(data[row], data[other]):
                return True
    return False


class DatasetView:
    """An ordered selection of instances from a base Dataset.

    The view owns no data. It caches at most two copies of its rows, each
    built on first use: one CSR matrix in class order (``class_matrix``: the
    positives, then the negatives, each in view order), so repeated
    evaluations stay cheap, and, for views whose dense copy takes no more
    bytes than that matrix's arrays and whose classes share no row, one
    dense copy of it (``dense_rows``).
    """

    __slots__ = ("base", "selected", "pos_selected", "neg_selected", "_matrix", "_dense")

    def __init__(self, base: Dataset, selected) -> None:
        self.base = base
        self.selected = _checked_indices(selected, base.n, "view")
        mask = base.labels[self.selected] == 1
        self.pos_selected = self.selected[mask]
        self.neg_selected = self.selected[~mask]
        self._matrix = None
        # None until ``dense_rows`` first runs, then its DenseRows, or False
        # for a view that stays on CSR
        self._dense = None

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
    def class_matrix(self) -> sp.csr_matrix:
        """The view's rows in class order: ``base.X`` at ``pos_selected``,
        then at ``neg_selected``."""
        if self._matrix is None:
            self._matrix = self.base.X[np.concatenate([self.pos_selected, self.neg_selected])]
        return self._matrix

    @property
    def pos_matrix(self) -> sp.csr_matrix:
        """The first ``t_pos`` rows of ``class_matrix``, sharing its arrays;
        a new block on every access."""
        return _row_block(self.class_matrix, 0, self.t_pos)

    @property
    def neg_matrix(self) -> sp.csr_matrix:
        """The last ``t_neg`` rows of ``class_matrix``, sharing its arrays;
        a new block on every access."""
        return _row_block(self.class_matrix, self.t_pos, self.n)

    def dense_rows(self) -> DenseRows | None:
        """The view's ``DenseRows``: a dense copy of ``class_matrix`` and
        the constants every evaluation on it reuses; or None for a view
        that stays on CSR.

        The (dim, n) layout makes a (k, dim) weight batch's product with
        it a plain ``W @ matrix``, with no transposed operand. A view
        densifies if and only if its dense copy takes no more bytes than
        the three arrays of ``class_matrix``, whatever its size, so sparse
        high-dimensional data never does, and no positive row equals a
        negative row (``_has_cross_class_duplicates``): such a pair ties
        under every weight vector, so no count on the view could ever be
        certified on BLAS values. Both the decision and the copy are made
        on first use and cached. The copy is filled block by block
        (``_dense_blocks``), and the magnitudes are taken from each block
        as it is filled, so no second n x dim array exists even for a
        moment.
        """
        if self._dense is None:
            self._dense = self._dense_copy()
        return self._dense or None

    def _dense_copy(self) -> DenseRows | bool:
        X = self.class_matrix
        dim, t_pos = self.base.dim, self.t_pos
        if 8 * self.n * dim > X.data.nbytes + X.indices.nbytes + X.indptr.nbytes:
            return False
        if _has_cross_class_duplicates(X, t_pos):
            return False
        dense = np.empty((dim, self.n))
        magnitudes = np.zeros(dim)
        for start, block in _dense_blocks(X):
            np.maximum(magnitudes, np.abs(block).max(axis=0), out=magnitudes)
            dense[:, start:start + block.shape[0]] = block.T
        # a sum of Python floats overflows to inf without a warning
        return DenseRows(dense, sum(magnitudes.tolist()), t_pos, t_pos * self.t_neg)

    def fingerprint(self) -> str:
        h = hashlib.blake2b(digest_size=8)
        h.update(np.int64(self.base.n).tobytes())
        h.update(self.selected.tobytes())
        return h.hexdigest()

    def __repr__(self) -> str:
        return f"DatasetView(n={self.n}, t_pos={self.t_pos}, t_neg={self.t_neg})"


# the largest feature index a CSR matrix can hold as its int64 dimension
_MAX_INDEX = np.iinfo(np.int64).max

# The LIBSVM grammar, token by token. A label or value is a decimal (an
# optional sign, ASCII digits with an optional point, an optional exponent)
# or inf, infinity or nan in any case; an index is ASCII digits. Possessive
# quantifiers (Python 3.11) keep no backtracking state per token.
_NUMBER = r"[-+]?+(?:(?:[0-9]++\.?+[0-9]*+|\.[0-9]++)(?:[eE][-+]?+[0-9]++)?+|(?i:inf(?:inity)?+|nan))"
_INDEX = r"[0-9]++"
# any str.isspace() character but the line break separates tokens
_SPACE = r"[^\S\n]"
_LINE = rf"{_SPACE}*+(?:(?:{_NUMBER})(?:{_SPACE}++{_INDEX}:(?:{_NUMBER}))*+{_SPACE}*+)?+"
_LINES = re.compile(rf"{_LINE}(?:\n{_LINE})*+")
_NUMBER_TOKEN = re.compile(_NUMBER)
_INDEX_TOKEN = re.compile(_INDEX)
_COMMENT = re.compile(r"#[^\n]*+")
# Characters or bytes per read. A block is one read cut after its last line
# break, so a file is never held whole and no Python object spans more than
# about one block's tokens.
_BLOCK_SIZE = 1 << 20

# The byte map of the integer pass over a checked block (``_read_block``). A
# separator (ASCII whitespace, a feature's ":", the UTF-8 bytes of non-ASCII
# whitespace) and an exponent marker become spaces, so numpy reads a
# mantissa and its exponent as two integers. The letters of inf, infinity and
# nan become 0s, so such a token still reads as one integer. Decimal points
# are deleted on the way.
_INTEGER_TEXT = bytes(
    32 if c <= 32 or c >= 128 or c in b":eE" else 48 if c in b"aAfFiInNtTyY" else c for c in range(256)
)


def _powers_of_ten(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """10**q for q = lo..hi as double-doubles: the double nearest to it, and
    the double nearest to what that leaves."""
    exact = [Fraction(10) ** q for q in range(lo, hi + 1)]
    high = [float(p) for p in exact]
    return np.array(high), np.array([float(p - Fraction(h)) for p, h in zip(exact, high)])


# The powers of ten 10**q a number m * 10**q is scaled by: the exact path
# takes |q| <= 22, whose powers are exact doubles, and the double-double
# path any q in this range, which keeps every product, split and error term
# far from overflow and from the subnormals.
_SCALE_MIN, _SCALE_MAX = -250, 250
_POW_HI, _POW_LO = _powers_of_ten(_SCALE_MIN, _SCALE_MAX)
_EXACT_POWERS = _POW_HI[-_SCALE_MIN:-_SCALE_MIN + 23]
# Tokens converted at once. The conversion holds some 17 temporaries of 8
# bytes per token, so a block's 50-100 K tokens in one go would lift the
# parse peak above that of the join (``parse_libsvm_path``); 4096 keep them,
# inputs included, at 0.52 MiB (tracemalloc, on a dense 20000 x 50 file),
# at a cost within timing noise.
_CONVERT_TOKENS = 1 << 12


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split of doubles into two halves of at most 26 significant
    bits each, whose products with each other are exact."""
    c = v * 134217729.0  # 2**27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _decimal_floats(mantissa: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The doubles nearest to ``mantissa * 10**scale`` for int64 arrays, and
    where each is certified; uncertified entries hold no promised value.

    A mantissa of at most 2**53 in magnitude is an exact double, and so is
    10**|q| for |q| <= 22, so one product or quotient rounds the exact value
    once (Clinger, "How to read floating point numbers accurately", PLDI
    1990). Other scales in range take ``_double_double``. Saturated
    mantissas (int64's extremes: numpy reads any longer number as its
    maximum), scales out of range and values that miss the certificate are
    left for ``float()``.
    """
    a = np.abs(mantissa)  # int64's minimum stays negative
    exact = (0 <= a) & (a <= 2**53) & (np.abs(scale) <= 22)
    x = a.astype(np.float64)
    power = _EXACT_POWERS[np.minimum(np.abs(scale), 22)]
    x = np.where(scale >= 0, x * power, x / power)
    wide = np.flatnonzero(~exact & (0 <= a) & (a < _MAX_INDEX) & (_SCALE_MIN <= scale) & (scale <= _SCALE_MAX))
    if wide.size:
        x[wide], exact[wide] = _double_double(a[wide], scale[wide])
    return np.copysign(x, mantissa, out=x), exact


def _double_double(a: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For int64 ``a`` in [0, 2**63 - 1) and scales in range, the rounded
    double-double product ``a * 10**scale`` and where it is the nearest
    double.

    Write a = a_hi + a_lo, where a_lo is a's low 10 bits if a > 2**53 and 0
    otherwise, so that both parts are exact doubles, and 10**q = p_hi + p_lo
    + d, where the table's |d| <= u**2 * p_hi, u = 2**-53. Dekker's
    two-product (1971) gives prod + err = a_hi * p_hi exactly, and

        a * 10**q = prod + err + a_lo*p_hi + a_hi*p_lo + a_lo*p_lo + a*d.

    ``tail`` sums err, a_lo*p_hi and a_hi*p_lo in floating point. Each of
    them and each partial sum is at most 2**-42 * a*p_hi (a_lo < 2**10 <
    2**-43 * a), so each of its four roundings is at most 2**-95 * a*p_hi.
    The dropped a_lo*p_lo and a*d are at most 2**-96 and 2**-106 times
    a*p_hi. Knuth's two-sum then gives x + res = prod + tail exactly, with x
    the rounded sum. So the exact value lies within |res| + 2**-92 * a*p_hi
    of x, and as a*p_hi <= 2 * x, within |res| + 2**-91 * x. x is the
    nearest double if that distance is below half the gap to x's neighbour:
    a quarter of ``np.spacing(x)`` at a power of two, where the gap below is
    halved, else half. The test charges 2**-90 * x, twice the bound, which
    covers the rounding of the test's own sum. For scales in range a * 10**q
    lies between 10**-250 and 10**269, so no step overflows, and even the
    error terms, some 2**-106 times smaller, stay normal doubles.
    On random 17-digit decimals about one value in 2**37 misses the test.
    """
    low = np.where(a > 2**53, a & 1023, 0)
    a_hi, a_lo = (a - low).astype(np.float64), low.astype(np.float64)
    p_hi, p_lo = _POW_HI[scale - _SCALE_MIN], _POW_LO[scale - _SCALE_MIN]
    prod = a_hi * p_hi
    (ah, al), (ph, pl) = _split(a_hi), _split(p_hi)
    err = ((ah * ph - prod) + ah * pl + al * ph) + al * pl
    tail = (a_lo * p_hi + a_hi * p_lo) + err
    # Knuth's two-sum: x + res == prod + tail exactly
    x = prod + tail
    back = x - prod
    res = (prod - (x - back)) + (tail - back)
    gap = np.spacing(x) / np.where(np.frexp(x)[0] == 0.5, 4, 2)
    return x, np.abs(res) + np.ldexp(x, -90) < gap


def parse_libsvm(source: str | bytes) -> Dataset:
    """Parse LIBSVM text: ``<label> <index>:<value> ...`` per line.

    Lines end at ``\\n``, ``\\r\\n`` or ``\\r``. ``#`` starts a comment, and
    any other character ``str.isspace()`` accepts separates tokens; blank
    lines are skipped. A label or value is a decimal (optional sign, ASCII
    digits with an optional point, optional ``e``/``E`` exponent) or
    ``inf``, ``infinity`` or ``nan`` in any case. A label parsing as a
    positive number (``inf`` included) maps to +1, any other to -1, and
    ``nan`` is an invalid label. An index is ASCII digits, 1 to 2**63 - 1,
    strictly increasing within a line; values must be finite.

    Anything else raises a ``DataError`` naming the first faulty line:
    a feature before the label, a token other than ``index:value``, a
    number outside this grammar (Python-only forms such as ``1_0``, a sign
    on an index or a non-ASCII digit included), an index below 1, too
    large or out of order, a non-finite value, or no instances at all.
    Bytes must be UTF-8; the first invalid byte is reported, with its
    line, ahead of any grammar fault.

    Each number is read as an integer mantissa scaled by a power of ten,
    exactly or with a certified double-double product, and re-read with
    ``float()`` where neither applies (``_read_block``), so every value is
    Python's correctly rounded ``float()`` of its token.

    The text is read in blocks of whole lines, as ``parse_libsvm_path``
    reads a file: see there for the memory this takes.
    """
    return _parse_chunks(source[i:i + _BLOCK_SIZE] for i in range(0, len(source), _BLOCK_SIZE))


def parse_libsvm_path(path) -> Dataset:
    """``parse_libsvm`` of the file at ``path``, read in blocks.

    Each read of about a mebibyte is cut after its last line break and
    decoded, checked and turned into compact arrays on its own, so the
    file is never held whole. The Dataset takes the joined arrays without
    copying them, so parsing peaks at the bytes of its arrays, plus its
    values once more while their per-block parts are joined, plus a few
    blocks: 19.8 MiB for a 22.5 MB, 20000 x 50 file of 1 M features, whose
    arrays take 11.6 MiB.
    """
    try:
        with open(path, "rb") as fh:
            return _parse_chunks(iter(lambda: fh.read(_BLOCK_SIZE), b""))
    except OSError as exc:
        raise DataError(f"cannot read dataset file {path}: {exc}") from exc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _line_blocks(chunks):
    """The str or bytes ``chunks`` regrouped into blocks of whole lines:
    each chunk is cut after its last line break and the rest carried into
    the next block. A ``\\r`` that ends a chunk is carried too, so that no
    ``\\r\\n`` is split."""
    pending = []
    for chunk in chunks:
        lf, cr = ("\n", "\r") if isinstance(chunk, str) else (b"\n", b"\r")
        cut = max(chunk.rfind(lf), chunk.rfind(cr, 0, len(chunk) - 1)) + 1
        if cut:
            pending.append(chunk[:cut])
            yield chunk[:0].join(pending)
            pending = []
        if cut < len(chunk):
            pending.append(chunk[cut:])
    if pending:
        yield pending[0][:0].join(pending)


def _parse_chunks(chunks) -> Dataset:
    """The Dataset of the text that the str or bytes ``chunks`` make up,
    read one block of whole lines at a time.

    The first block that breaks the grammar goes to ``_diagnose`` with the
    number of lines before it, once every later block has been decoded: an
    invalid UTF-8 byte anywhere is reported first.
    """
    parts, lines, fault = [], 0, None
    for block in _line_blocks(chunks):
        if isinstance(block, bytes):
            try:
                block = block.decode("utf-8")
            except UnicodeDecodeError as exc:
                head = block[:exc.start]
                line_no = lines + 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
                raise DataError(
                    f"line {line_no}: input is not valid UTF-8 (byte 0x{block[exc.start]:02x})"
                ) from exc
        if "\r" in block:
            block = block.replace("\r\n", "\n").replace("\r", "\n")
        part = None if fault else _read_block(block)
        if part is None:
            # from the first faulty block on, blocks are only decoded
            if fault is None:
                fault, parts = (block, lines), None
            lines += block.count("\n")
            continue
        breaks, *arrays = part
        lines += breaks
        if arrays[0].size:
            parts.append(arrays)
    if fault is not None:
        raise _diagnose(*fault)
    if not parts:
        raise DataError("no instances found")
    labels, counts, columns, values = map(list, zip(*parts))
    del parts
    dim = max((int(c.max()) + 1 for c in columns if c.size), default=1)
    return _csr_dataset(labels, counts, columns, values, dim)


def _token_integers(raw: bytes, octets: np.ndarray, ends: np.ndarray, is_feature: np.ndarray):
    """The int64 integers of a checked block's tokens, or None if numpy
    reads another count of them: each feature's index, and each token's
    mantissa m and power of ten q, so that its number is m * 10**q.

    ``octets`` are the block's bytes ``raw``, ``ends`` the position after
    each token and ``is_feature`` tells features from labels. numpy reads
    the integers from a copy of the block whose separators and exponent
    markers are spaces and whose points are gone (``_INTEGER_TEXT``): a
    feature's index, then a token's mantissa, then its exponent if it has
    one. q is the exponent less the digits between the point and the
    mantissa's end. inf, infinity and nan read as 0 and get a q out of
    range, so that ``_decimal_floats`` leaves them to ``float()``.
    """
    width = is_feature + 1
    marks = np.flatnonzero((octets | 32) == ord("e")) if b"e" in raw or b"E" in raw else np.empty(0, np.intp)
    marked = np.searchsorted(ends, marks)
    width[marked] += 1
    mantissa_end = ends.copy()
    mantissa_end[marked] = marks
    points = np.flatnonzero(octets == ord("."))
    pointed = np.searchsorted(ends, points)
    scale = np.zeros(ends.size, dtype=np.int64)
    scale[pointed] = points + 1 - mantissa_end[pointed]
    del mantissa_end, points, pointed  # freed before the integers are read, for the peak
    numbers = np.fromstring(raw.translate(_INTEGER_TEXT, b"."), dtype=np.int64, sep=" ")
    lead = np.cumsum(width) - width
    if numbers.size != lead[-1] + width[-1]:
        return None
    scale[marked] += np.clip(numbers[lead[marked] + width[marked] - 1], -(2**40), 2**40)
    if b"n" in raw or b"N" in raw:
        scale[np.searchsorted(ends, np.flatnonzero((octets | 32) == ord("n")))] = _SCALE_MAX + 1
    return numbers[lead[is_feature]], numbers[lead + is_feature], scale


def _read_block(block: str):
    """The line breaks in whole lines of text, then their signs (+1/-1 as
    int8), features per line, 0-based columns and values, or None if a
    line breaks the grammar.

    A checked block is read in one integer pass. Its tokens (labels and
    ``index:value`` features) and line breaks come from byte positions,
    ``_token_integers`` reads every index, mantissa and power of ten, and
    ``_decimal_floats`` scales each mantissa. A number that scaling cannot
    certify is re-read by ``float()`` from its token's bytes, and an index
    that reads int64's maximum by ``int()``.
    """
    if "#" in block:
        block = _COMMENT.sub("", block)
    if _LINES.fullmatch(block) is None:
        return None
    raw = block.encode()
    octets = np.frombuffer(raw, dtype=np.uint8)
    # A token, a label or an index:value feature, is a run of bytes 33 to
    # 127: in a checked block, every other byte belongs to whitespace.
    in_token = np.zeros(octets.size + 2, dtype=bool)
    np.less(octets - np.uint8(33), 95, out=in_token[1:-1])
    edges = np.flatnonzero(in_token[1:] != in_token[:-1])
    del in_token
    starts, ends = edges[0::2], edges[1::2]
    breaks = np.flatnonzero(octets == 10)
    lengths = np.diff(np.searchsorted(starts, np.append(breaks, octets.size)), prepend=0)
    lengths = lengths[lengths > 0]
    counts = lengths - 1
    if not counts.size:
        return breaks.size, np.empty(0, np.int8), counts, np.empty(0, np.int32), np.empty(0)
    first = np.cumsum(lengths) - lengths
    is_feature = np.ones(starts.size, dtype=bool)
    is_feature[first] = False
    integers = _token_integers(raw, octets, ends, is_feature)
    if integers is None:
        return None
    idx, mantissa, scale = integers
    features = np.flatnonzero(is_feature)
    del is_feature

    def floats(ids):
        # each token's double, re-read by float() where it is not certified
        x = np.empty(ids.size)
        for lo in range(0, ids.size, _CONVERT_TOKENS):
            part = ids[lo:lo + _CONVERT_TOKENS]
            x[lo:lo + part.size], exact = _decimal_floats(mantissa[part], scale[part])
            for k in np.flatnonzero(~exact).tolist():
                x[lo + k] = float(raw[starts[part[k]]:ends[part[k]]].rpartition(b":")[2])
        return x

    labels, values = floats(first), floats(features)
    for k in np.flatnonzero(idx == _MAX_INDEX).tolist():
        # int64's maximum is read for 2**63 - 1 and for any larger index
        try:
            if int(raw[starts[features[k]]:ends[features[k]]].partition(b":")[0]) > _MAX_INDEX:
                return None
        except ValueError:  # past int()'s digit limit
            return None
    if np.isnan(labels).any() or not np.isfinite(values).all():
        return None
    if idx.size:
        row_start = np.zeros(idx.size, dtype=bool)
        row_start[(np.cumsum(counts) - counts)[counts > 0]] = True
        if idx.min() < 1 or not (row_start[1:] | (np.diff(idx) > 0)).all():
            return None
    top = idx.max(initial=0)
    columns = (idx - 1).astype(np.int32 if top <= 2**31 else np.int64)
    return breaks.size, np.where(labels > 0, np.int8(1), np.int8(-1)), counts, columns, values


def _csr_dataset(labels, counts, columns, values, dim: int) -> Dataset:
    """The Dataset of CSR rows given as lists of per-block arrays: labels,
    entries per row, 0-based columns in row order and their values.

    Each final array is one copy of its parts, which are dropped from the
    lists as they are joined, and the Dataset takes the joined arrays as
    they are. Indices take the dtype scipy would choose.
    """
    n = sum(c.size for c in counts)
    nnz = sum(v.size for v in values)
    index_dtype = np.int32 if max(n, dim, nnz) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index_dtype)
    np.concatenate(counts, out=indptr[1:])
    counts.clear()
    np.cumsum(indptr, out=indptr, dtype=index_dtype)
    signs = np.concatenate(labels, dtype=np.int64)
    labels.clear()
    indices = np.concatenate(columns, dtype=index_dtype)
    columns.clear()
    data = np.concatenate(values)
    values.clear()
    return Dataset._adopt(sp.csr_matrix((data, indices, indptr), shape=(n, dim)), signs)


def _diagnose(block: str, lines_before: int) -> DataError:
    """The DataError for the first line of ``block`` that breaks the grammar
    ``parse_libsvm`` describes, numbered after the ``lines_before`` lines
    that precede the block, or for a block with no instances."""
    for line_no, line in enumerate(block.split("\n"), start=lines_before + 1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        label, *features = tokens
        if ":" in label:
            return DataError(f"line {line_no}: missing label before features")
        if _NUMBER_TOKEN.fullmatch(label) is None or np.isnan(float(label)):
            return DataError(f"line {line_no}: invalid label {label!r}")
        prev = 0
        for tok in features:
            part = tok.split(":")
            if len(part) != 2:
                return DataError(f"line {line_no}: malformed feature {tok!r}")
            index, value = part
            if _INDEX_TOKEN.fullmatch(index) is None:
                return DataError(f"line {line_no}: invalid feature index {index!r}")
            if _NUMBER_TOKEN.fullmatch(value) is None:
                return DataError(f"line {line_no}: invalid feature value {value!r}")
            digits = index.lstrip("0")
            if not digits:
                return DataError(f"line {line_no}: feature index 0 is not 1-based")
            # int() refuses strings of more than 4300 digits
            if len(digits) > 19 or int(digits) > _MAX_INDEX:
                return DataError(f"line {line_no}: feature index {digits} is too large")
            idx = int(digits)
            if idx <= prev:
                return DataError(
                    f"line {line_no}: feature indices must be strictly increasing "
                    f"({idx} after {prev})"
                )
            if not np.isfinite(float(value)):
                return DataError(f"line {line_no}: non-finite feature value {value!r}")
            prev = idx
    return DataError("no instances found")


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

    The rows are scaled in the dense blocks of ``_dense_blocks``, one pass
    for the ranges and one for the values, so the dense matrix never exists
    whole: as in ``parse_libsvm_path``, scaling allocates at most the bytes
    of the result's arrays, plus its values once more, plus a few blocks
    (19.6 MiB for a dense 20000 x 50 set, whose arrays take 11.6 MiB).
    """
    n, dim = ds.X.shape
    # the result can be as dense as the whole n x dim matrix: refuse a shape
    # whose two dense copies exceed physical memory, or the run ends in
    # MemoryError or the OOM killer
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else np.iinfo(np.intp).max
    if 2 * n * dim * 8 > memory:
        raise DataError(f"dense {n} x {dim} feature matrix is too large to scale")
    lo = np.full(dim, np.inf)
    hi = np.full(dim, -np.inf)
    for _, block in _dense_blocks(ds.X):
        np.minimum(lo, block.min(axis=0), out=lo)
        np.maximum(hi, block.max(axis=0), out=hi)
    constant = lo == hi
    span = np.where(constant, 1.0, hi - lo)
    untouched = (lo == -1.0) & (hi == 1.0)
    columns = np.arange(dim, dtype=np.int32 if dim <= 2**31 else np.int64)
    counts, indices, values = [], [], []
    for _, block in _dense_blocks(ds.X):
        # 2 * (x - lo) / (hi - lo) - 1, one in-place step at a time in that
        # expression's evaluation order, so each element rounds as it would
        out = np.subtract(block, lo)
        out *= 2.0
        out /= span
        out -= 1.0
        out[:, constant] = 0.0
        np.copyto(out, block, where=untouched)
        kept = out != 0.0
        counts.append(np.count_nonzero(kept, axis=1))
        indices.append(np.broadcast_to(columns, out.shape)[kept])
        values.append(out[kept])
    return _csr_dataset([ds.labels], counts, indices, values, dim)


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
