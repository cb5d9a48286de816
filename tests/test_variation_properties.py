"""Property tests: the two-pass variation against the per-pair loops in _oracles.

The oracles draw the same blocks in the same order and then walk the pairs
one by one, with a tournament, SBX and PM call per pair. The library runs
the tournaments, SBX and PM once over the whole block, so the two must
agree bit for bit on the children, on the child skills and on where they
leave the generator. Genomes sometimes come from a coarse grid
with the endpoints 0 and 1, so identical parents and clamping both occur.

``rng.random`` never draws the uniforms on which the kernels' branches
turn (0, 0.5 and its neighbours, the largest double below 1) and rarely a
mask uniform equal to the mutation probability, so the edge tests below
feed those values in directly, through the kernels and through a
generator that draws only them.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtauc.solvers import SolverConfig, _ga_offspring, _mfea_offspring, pm_mutation, sbx_crossover

from _oracles import ga_offspring_naive, mfea_offspring_naive, pm_mutation_naive, sbx_crossover_naive

# uniforms at and next to the branch points of SBX and PM, and the largest
# double that ``rng.random`` can return
EDGE_UNIFORMS = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0**-53])


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@st.composite
def mating_problem(draw):
    """Genomes, objectives and skills for a population of 2-25 in dim 1-25,
    a config with rmp and the distribution indices, pm_prob and a seed."""
    n = draw(st.integers(2, 25))
    dim = draw(st.integers(1, 25))
    data = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    genomes = data.random((n, dim))
    if draw(st.booleans()):
        genomes = np.round(genomes * 4.0) / 4.0
    objectives = data.integers(0, 4, size=n).astype(np.float64)
    skills = data.integers(0, 2, size=n)
    config = SolverConfig(
        kind="mfea",
        rmp=draw(st.sampled_from((0.0, 0.3, 1.0))),
        sbx_eta=draw(st.sampled_from((1.0, 15.0))),
        pm_eta=draw(st.sampled_from((1.0, 15.0))),
    )
    pm_prob = draw(st.sampled_from((0.0, 1.0 / dim, 1.0)))
    return genomes, objectives, skills, config, pm_prob, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(mating_problem())
def test_ga_offspring_matches_oracle(problem):
    genomes, objectives, _, config, pm_prob, seed = problem
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    children = _ga_offspring(genomes, objectives, config, pm_prob, rng)
    want = ga_offspring_naive(genomes, objectives, config, pm_prob, oracle_rng)
    assert children.shape == want.shape
    assert np.array_equal(children, want)
    assert rng.random() == oracle_rng.random()


@settings(max_examples=300, deadline=None)
@given(mating_problem())
def test_mfea_offspring_matches_oracle(problem):
    genomes, _, skills, config, pm_prob, seed = problem
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    children, child_skills = _mfea_offspring(genomes, skills, config, pm_prob, rng)
    want, want_skills = mfea_offspring_naive(genomes, skills, config, pm_prob, oracle_rng)
    assert children.shape == want.shape
    assert np.array_equal(children, want)
    assert np.array_equal(child_skills, want_skills)
    assert rng.random() == oracle_rng.random()


class CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self.inner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


def test_mating_draws_a_fixed_number_of_times_whatever_the_population():
    # One draw per kind per generation: the number of generator calls does
    # not grow with the population.
    config = SolverConfig(kind="mfea", rmp=0.3)
    calls = {"ga": set(), "mfea": set()}
    for n in (2, 7, 20, 101):
        data = np.random.default_rng(n)
        genomes = data.random((n, 4))
        rng = CountingGenerator(n)
        _ga_offspring(genomes, data.integers(0, 4, size=n).astype(np.float64), config, 0.25, rng)
        calls["ga"].add(rng.calls)
        rng = CountingGenerator(n)
        _mfea_offspring(genomes, data.integers(0, 2, size=n), config, 0.25, rng)
        calls["mfea"].add(rng.calls)
    assert calls == {"ga": {2}, "mfea": {3}}


@pytest.mark.parametrize("eta", (1.0, 15.0))
def test_kernels_match_the_oracles_bit_for_bit_on_branch_edges(eta):
    # every edge uniform against every pair of genes from {0, 1/4, 1/2, 1},
    # identical parents among them; each kernel raises one power per gene
    # where its oracle raises one per branch
    genes = np.array([0.0, 0.25, 0.5, 1.0])
    u, p1, p2 = (a.ravel() for a in np.meshgrid(EDGE_UNIFORMS, genes, genes, indexing="ij"))
    for got, want in zip(sbx_crossover(p1, p2, u, eta), sbx_crossover_naive(p1, p2, eta, u)):
        assert same_bits(got, want)
    twins = sbx_crossover(p1, p1, u, eta)
    assert same_bits(twins[0], p1) and same_bits(twins[1], p1)
    # mask uniforms below, at and above each probability: a gene mutates
    # only strictly below it
    for prob in (0.0, 0.5, 1.0):
        mask_u = np.resize([np.nextafter(prob, 0.0), prob, np.nextafter(prob, 1.0)], u.shape)
        assert same_bits(pm_mutation(p1, mask_u, u, eta, prob), pm_mutation_naive(p1, eta, prob, mask_u, u))
        assert same_bits(pm_mutation(p1, np.full(u.shape, prob), u, eta, prob), p1)


class EdgeGenerator:
    """A numpy Generator whose ``random`` draws only ``EDGE_UNIFORMS``;
    every other method is the seeded generator's own."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)

    def random(self, size):
        return EDGE_UNIFORMS[self.inner.integers(EDGE_UNIFORMS.size, size=size)]

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.mark.parametrize(
    "n, skills, rmp",
    [
        (6, [0] * 6, 0.5),  # even n: every GA pair crosses, and every same-skill MFEA pair
        (1, [1], 0.5),  # a lone parent: no pair crosses
        (2, [0, 1], 0.0),  # one cross-skill MFEA pair that rmp 0 keeps from crossing
        (7, [0, 1, 0, 1, 0, 1, 1], 0.5),  # odd n: an unpaired last parent, coins at rmp
        (8, [0, 1] * 4, 0.5),  # crossing and non-crossing MFEA pairs side by side
    ],
    ids=["all-cross", "lone-parent", "no-cross", "odd-n", "mixed"],
)
@pytest.mark.parametrize("genes", ["binary", "identical"])
@pytest.mark.parametrize("pm_prob", (0.5, 1.0))
def test_offspring_match_the_oracles_on_branch_edges(n, skills, rmp, genes, pm_prob):
    # every uniform, mating coin and mask uniform is an edge value, so SBX
    # and PM see u = 0.5 and its neighbours, and mask uniforms equal to
    # pm_prob = 0.5; genes are 0 or 1, or every parent is the same genome
    dim = 3
    data = np.random.default_rng(n)
    if genes == "binary":
        genomes = data.integers(0, 2, size=(n, dim)).astype(np.float64)
    else:
        genomes = np.tile([0.0, 0.5, 1.0], (n, 1))
    objectives = data.integers(0, 3, size=n).astype(np.float64)
    skills = np.array(skills)
    config = SolverConfig(kind="mfea", rmp=rmp, sbx_eta=15.0, pm_eta=1.0)
    rng, oracle_rng = EdgeGenerator(n), EdgeGenerator(n)
    assert same_bits(
        _ga_offspring(genomes, objectives, config, pm_prob, rng),
        ga_offspring_naive(genomes, objectives, config, pm_prob, oracle_rng),
    )
    children, child_skills = _mfea_offspring(genomes, skills, config, pm_prob, rng)
    want, want_skills = mfea_offspring_naive(genomes, skills, config, pm_prob, oracle_rng)
    assert same_bits(children, want)
    assert np.array_equal(child_skills, want_skills)
    assert rng.inner.random() == oracle_rng.inner.random()
