"""Property tests: the two-pass variation against the per-pair loops in _oracles.

The oracles interleave every draw with per-pair SBX and PM calls. The
library takes all draws first and runs SBX and PM once over the block, so
the two must agree bit for bit on the children, on the child skills and on
where they leave the generator. Genomes sometimes come from a coarse grid
with the endpoints 0 and 1, so identical parents and clamping both occur.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from emtauc.solvers import SolverConfig, _ga_offspring, _mfea_offspring

from _oracles import ga_offspring_naive, mfea_offspring_naive


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
