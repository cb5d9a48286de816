"""Slow reference implementations the fast kernels are checked against.

Everything here is written the dumb way on purpose: literal double loops
and full enumerations, no sorting tricks shared with the code under test.
"""
from itertools import combinations
from math import comb

import numpy as np


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


# Variation the literal way: each mating loop interleaves its draws with
# per-pair SBX and PM calls that draw their uniforms from the generator.


def sbx_crossover_naive(p1, p2, eta: float, rng):
    p1 = np.asarray(p1, dtype=np.float64)
    p2 = np.asarray(p2, dtype=np.float64)
    u = rng.random(p1.shape)
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


def pm_mutation_naive(genome, eta: float, prob: float, rng):
    """Draws a mask uniform per gene, then a step uniform per gene."""
    g = np.asarray(genome, dtype=np.float64)
    mask = rng.random(g.shape) < prob
    u = rng.random(g.shape)
    toward_zero = (2.0 * u) ** (1.0 / (eta + 1.0)) - 1.0
    toward_one = 1.0 - (2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
    child = g.copy()
    low = mask & (u <= 0.5)
    high = mask & (u > 0.5)
    child = np.where(low, g + toward_zero * g, child)
    child = np.where(high, g + toward_one * (1.0 - g), child)
    return np.clip(child, 0.0, 1.0)


def _tournament_naive(rng, objectives) -> int:
    i, j = rng.integers(objectives.shape[0], size=2)
    return int(i) if objectives[i] <= objectives[j] else int(j)


def ga_offspring_naive(genomes, objectives, config, pm_prob, rng):
    n = genomes.shape[0]
    children = np.empty_like(genomes)
    k = 0
    while k + 1 < n:
        a = _tournament_naive(rng, objectives)
        b = _tournament_naive(rng, objectives)
        c1, c2 = sbx_crossover_naive(genomes[a], genomes[b], config.sbx_eta, rng)
        children[k] = pm_mutation_naive(c1, config.pm_eta, pm_prob, rng)
        children[k + 1] = pm_mutation_naive(c2, config.pm_eta, pm_prob, rng)
        k += 2
    if k < n:
        a = _tournament_naive(rng, objectives)
        children[k] = pm_mutation_naive(genomes[a], config.pm_eta, pm_prob, rng)
    return children


def mfea_offspring_naive(genomes, skills, config, pm_prob, rng):
    n = genomes.shape[0]
    child_genomes = np.empty_like(genomes)
    child_skills = np.empty(n, dtype=np.int64)
    perm = rng.permutation(n)
    k = 0
    while k + 1 < n:
        a, b = perm[k], perm[k + 1]
        if skills[a] == skills[b] or rng.random() < config.rmp:
            c1, c2 = sbx_crossover_naive(genomes[a], genomes[b], config.sbx_eta, rng)
            child_genomes[k] = pm_mutation_naive(c1, config.pm_eta, pm_prob, rng)
            child_genomes[k + 1] = pm_mutation_naive(c2, config.pm_eta, pm_prob, rng)
            child_skills[k] = skills[a] if rng.random() < 0.5 else skills[b]
            child_skills[k + 1] = skills[a] if rng.random() < 0.5 else skills[b]
        else:
            child_genomes[k] = pm_mutation_naive(genomes[a], config.pm_eta, pm_prob, rng)
            child_genomes[k + 1] = pm_mutation_naive(genomes[b], config.pm_eta, pm_prob, rng)
            child_skills[k] = skills[a]
            child_skills[k + 1] = skills[b]
        k += 2
    if k < n:
        a = perm[k]
        child_genomes[k] = pm_mutation_naive(genomes[a], config.pm_eta, pm_prob, rng)
        child_skills[k] = skills[a]
    return child_genomes, child_skills
