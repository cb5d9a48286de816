"""Slow reference implementations the fast kernels are checked against.

Everything here is written the dumb way on purpose: literal double loops
and full enumerations, no sorting tricks shared with the code under test.
The one exception is ``certified_loss_counts_reference``, an earlier fast
kernel kept as it was, which its successor must match bit for bit.
"""
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import scipy.sparse as sp

from emtauc.data import DataError, Dataset
from emtauc.environment import TaskId
from emtauc.solvers import _eval_batch, decode_weights


def decision_values(w, view):
    """Inner products of ``w`` with the view's instances, split by class:
    (f_pos, f_neg) in view order, one CSR product per class. Each value is
    one row's sum in index order, as in ``class_matrix @ w``."""
    w = np.asarray(w, dtype=np.float64)
    return view.base.X[view.pos_selected] @ w, view.base.X[view.neg_selected] @ w


def dot_exact(w, x) -> Fraction:
    """The exact dot product of two float vectors, summed as fractions."""
    return sum((Fraction(a) * Fraction(b) for a, b in zip(w, x)), Fraction(0))


def higham_gamma(m: int) -> Fraction:
    """Higham's gamma_m = m*u / (1 - m*u) for float64, u = 2^-53, exactly."""
    mu = Fraction(m, 2**53)
    return mu / (1 - mu)


def pair_loss_naive(f_pos, f_neg) -> int:
    count = 0
    for fp in f_pos:
        for fn in f_neg:
            if fp <= fn:
                count += 1
    return count


def pair_loss_broadcast(f_pos, f_neg) -> int:
    f_pos = np.asarray(f_pos, dtype=np.float64)
    f_neg = np.asarray(f_neg, dtype=np.float64)
    return int((f_pos[:, None] <= f_neg[None, :]).sum())


def certified_loss_counts_reference(g, t_pos, margin):
    """The one-stage certified kernel that ``evaluation._certified_loss_counts``
    replaced, kept verbatim: ``g`` is class-tagged and sorted in place, the
    rank sums come from the flat positions of a bool mask of the tags, and
    every row takes the check that reads the classes of its neighbours. The
    faster kernel must return bit-equal (losses, certified)."""
    k, n = g.shape
    bits = g.view(np.int64)
    bits[:, :t_pos] |= 1
    bits[:, t_pos:] &= ~1
    g.sort(axis=1)
    is_pos = (bits & 1).astype(bool)
    rank_sums = np.flatnonzero(is_pos).reshape(k, t_pos).sum(axis=1) - np.arange(0, k * n, n) * t_pos
    below = rank_sums - t_pos * (t_pos - 1) // 2
    close = np.diff(g, axis=1) <= 2 * margin[:, np.newaxis]
    close &= is_pos[:, 1:] != is_pos[:, :-1]
    return t_pos * (n - t_pos) - below, ~close.any(axis=1)


def hardness_naive(f_pos, f_neg):
    """pos[i] = #{j : f_neg[j] >= f_pos[i]}, neg[j] = #{i : f_pos[i] < f_neg[j]}."""
    pos = np.array([sum(1 for fn in f_neg if fn >= fp) for fp in f_pos], dtype=np.int64)
    neg = np.array([sum(1 for fp in f_pos if fp < fn) for fn in f_neg], dtype=np.int64)
    return pos, neg


def select_hardest_naive(pos_scores, neg_scores, pos_idx, neg_idx, n_pos, n_neg):
    """Top-n per class by score descending, original position ascending on
    ties; returns the union sorted ascending."""
    pos_order = sorted(range(len(pos_scores)), key=lambda i: (-pos_scores[i], i))
    neg_order = sorted(range(len(neg_scores)), key=lambda j: (-neg_scores[j], j))
    chosen = [pos_idx[i] for i in pos_order[:n_pos]]
    chosen += [neg_idx[j] for j in neg_order[:n_neg]]
    return sorted(chosen)


def _midranks(values) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def rank_sum_exact_p(a, b) -> float:
    """Two-sided exact permutation p-value of the rank-sum statistic,
    midranks on ties, enumerated over all C(n_a + n_b, n_a) assignments."""
    a = list(map(float, a))
    b = list(map(float, b))
    pooled = a + b
    ranks = _midranks(pooled)
    n_a = len(a)
    observed = sum(ranks[:n_a])
    total = comb(len(pooled), n_a)
    le = ge = 0
    for subset in combinations(range(len(pooled)), n_a):
        w = sum(ranks[i] for i in subset)
        if w <= observed:
            le += 1
        if w >= observed:
            ge += 1
    return min(1.0, 2.0 * min(le, ge) / total)


# Variation the literal way: each mating policy draws its blocks first, in
# the library's order, then walks the pairs one by one with per-pair
# tournament, SBX and PM calls that read their uniforms from the blocks.


def sbx_crossover_naive(p1, p2, eta: float, u):
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    beta = np.where(
        u <= 0.5,
        (2.0 * u) ** (1.0 / (eta + 1.0)),
        (0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0)),
    )
    mean = 0.5 * (p1 + p2)
    spread = 0.5 * beta * (p1 - p2)
    c1 = np.clip(mean + spread, 0.0, 1.0)
    c2 = np.clip(mean - spread, 0.0, 1.0)
    return c1, c2


def pm_mutation_naive(genome, eta: float, prob: float, mask_u, u):
    """A gene mutates where its ``mask_u`` uniform is below ``prob``."""
    g = np.asarray(genome, dtype=np.float64)
    mask = mask_u < prob
    toward_zero = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0
    toward_one = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
    child = g.copy()
    low = mask & (u <= 0.5)
    high = mask & (u > 0.5)
    child = np.where(low, g + toward_zero * g, child)
    child = np.where(high, g + toward_one * (1.0 - g), child)
    return np.clip(child, 0.0, 1.0)


def evaluate_per_row(env, task_ids, keys):
    """``solvers._evaluate`` as it was before it charged a whole batch at
    once: every row is charged on its own, in index order, until the ledger
    is exhausted, and every charged expensive row is offered to the archive
    on its own."""
    tids = np.broadcast_to(np.asarray(task_ids, dtype=np.int64), keys.shape[:1])
    values = np.empty(keys.shape[0])
    losses = np.empty(keys.shape[0])
    for tid in TaskId:
        rows = np.flatnonzero(tids == tid)
        if rows.size:
            values[rows], losses[rows] = _eval_batch(env.tasks[tid], keys[rows])
    ledger = env.ledger
    kept = 0
    for tid in tids.tolist():
        if ledger.exhausted:
            break
        ledger.charge([tid])
        if tid == TaskId.EXPENSIVE:
            env.record_expensive(decode_weights(keys[kept]), values[kept], losses[kept])
        kept += 1
    values[kept:] = np.inf
    return values, kept


def _tournament_naive(objectives, i: int, j: int) -> int:
    return i if objectives[i] <= objectives[j] else j


def _mutate_pair_naive(a, b, u, config, pm_prob):
    """Both children of parents ``a`` and ``b`` that do not cross."""
    c1 = pm_mutation_naive(a, config.pm_eta, pm_prob, u[1], u[2])
    c2 = pm_mutation_naive(b, config.pm_eta, pm_prob, u[3], u[4])
    return c1, c2


def _cross_pair_naive(a, b, u, config, pm_prob):
    """Both children of parents ``a`` and ``b`` that cross."""
    c1, c2 = sbx_crossover_naive(a, b, config.sbx_eta, u[0])
    return _mutate_pair_naive(c1, c2, u, config, pm_prob)


def ga_offspring_naive(genomes, objectives, config, pm_prob, rng):
    n, dim = genomes.shape
    pairs = (n + 1) // 2
    contestants = rng.integers(n, size=(pairs, 2, 2))
    uniforms = rng.random((pairs, 5, dim))
    children = np.empty_like(genomes)
    for p in range(pairs):
        (i1, j1), (i2, j2) = contestants[p].tolist()
        a = _tournament_naive(objectives, i1, j1)
        b = _tournament_naive(objectives, i2, j2)
        k = 2 * p
        if k + 1 < n:
            children[k], children[k + 1] = _cross_pair_naive(genomes[a], genomes[b], uniforms[p], config, pm_prob)
        else:
            children[k] = pm_mutation_naive(genomes[a], config.pm_eta, pm_prob, uniforms[p, 1], uniforms[p, 2])
    return children


def mfea_offspring_naive(genomes, skills, config, pm_prob, rng):
    n, dim = genomes.shape
    pairs = (n + 1) // 2
    perm = rng.permutation(n)
    coins = rng.random((pairs, 3))
    uniforms = rng.random((pairs, 5, dim))
    child_genomes = np.empty_like(genomes)
    child_skills = np.empty(n, dtype=np.int64)
    for p in range(pairs):
        k = 2 * p
        a = perm[k]
        if k + 1 == n:
            child_genomes[k] = pm_mutation_naive(genomes[a], config.pm_eta, pm_prob, uniforms[p, 1], uniforms[p, 2])
            child_skills[k] = skills[a]
            break
        b = perm[k + 1]
        rmp_coin, skill_coin1, skill_coin2 = coins[p]
        if skills[a] == skills[b] or rmp_coin < config.rmp:
            child_genomes[k], child_genomes[k + 1] = _cross_pair_naive(
                genomes[a], genomes[b], uniforms[p], config, pm_prob
            )
            child_skills[k] = skills[a] if skill_coin1 < 0.5 else skills[b]
            child_skills[k + 1] = skills[a] if skill_coin2 < 0.5 else skills[b]
        else:
            child_genomes[k], child_genomes[k + 1] = _mutate_pair_naive(
                genomes[a], genomes[b], uniforms[p], config, pm_prob
            )
            child_skills[k] = skills[a]
            child_skills[k + 1] = skills[b]
    return child_genomes, child_skills


def parse_libsvm_literal(source: str) -> Dataset:
    """``emtauc.data.parse_libsvm`` token by token with Python's ``int`` and
    ``float``, minus the forms only Python reads: a ``_`` in a number, a
    non-ASCII digit, or a sign on an index."""
    labels: list[int] = []
    rows_idx: list[list[int]] = []
    rows_val: list[list[float]] = []
    max_index = 0

    for line_no, raw in enumerate(re.split(r"\r\n|\r|\n", source), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label_tok = tokens[0]
        if ":" in label_tok:
            raise DataError(f"line {line_no}: missing label before features")
        try:
            if not label_tok.isascii() or "_" in label_tok:
                raise ValueError(label_tok)
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
                if not (part[0].isascii() and part[0].isdigit()):
                    raise ValueError(part[0])
                idx = int(part[0])
            except ValueError as exc:
                raise DataError(f"line {line_no}: invalid feature index {part[0]!r}") from exc
            try:
                if not part[1].isascii() or "_" in part[1]:
                    raise ValueError(part[1])
                val = float(part[1])
            except ValueError as exc:
                raise DataError(f"line {line_no}: invalid feature value {part[1]!r}") from exc
            if idx < 1:
                raise DataError(f"line {line_no}: feature index {idx} is not 1-based")
            if idx > np.iinfo(np.int64).max:
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


def scale_features_dense(ds: Dataset) -> Dataset:
    """``emtauc.data.scale_features`` over the whole dense matrix at once:
    the same arithmetic in the same order, then scipy's dense-to-CSR."""
    dense = np.asarray(ds.X.todense())
    lo = dense.min(axis=0)
    hi = dense.max(axis=0)
    constant = lo == hi
    out = np.subtract(dense, lo)
    out *= 2.0
    out /= np.where(constant, 1.0, hi - lo)
    out -= 1.0
    out[:, constant] = 0.0
    np.copyto(out, dense, where=(lo == -1.0) & (hi == 1.0))
    return Dataset(sp.csr_matrix(out), ds.labels)
