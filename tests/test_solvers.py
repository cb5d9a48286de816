import contextlib
import itertools
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtauc.environment import TaskId, TaskSpec, build_environment
from emtauc.evaluation import auc_metric, objective
from emtauc.solvers import (
    SolverConfig,
    decode_weights,
    dispatch_solver,
    fit_transfer_map,
    pm_mutation,
    sbx_crossover,
    _evaluate,
    _ga_offspring,
    _mfea_offspring,
    _population_stats,
)

from _oracles import evaluate_per_row
from conftest import dense_gate, make_gaussian_dataset, make_separable_dataset


class RecordingTask:
    """Wraps a TaskSpec and logs every objective_batch call's row count."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    @property
    def task_id(self):
        return self.inner.task_id

    @property
    def view(self):
        return self.inner.view

    @property
    def lam(self):
        return self.inner.lam

    def objective_batch(self, W):
        self.calls.append(W.shape[0])
        return self.inner.objective_batch(W)


def test_decode_weights_endpoints():
    got = decode_weights(np.array([0.0, 0.5, 1.0]))
    assert list(got) == [-1.0, 0.0, 1.0]


def test_sbx_identical_parents_bit_exact():
    rng = np.random.default_rng(0)
    p = rng.random(12)
    c1, c2 = sbx_crossover(p, p.copy(), rng.random(12), 15.0)
    assert np.array_equal(c1, p)
    assert np.array_equal(c2, p)


def test_sbx_children_in_bounds():
    rng = np.random.default_rng(1)
    for _ in range(100):
        p1 = rng.random(8)
        p2 = rng.random(8)
        c1, c2 = sbx_crossover(p1, p2, rng.random(8), 15.0)
        for c in (c1, c2):
            assert np.all(c >= 0.0) and np.all(c <= 1.0)


def test_sbx_mean_preserved_without_clipping():
    rng = np.random.default_rng(2)
    p1 = np.full(6, 0.45)
    p2 = np.full(6, 0.55)
    c1, c2 = sbx_crossover(p1, p2, rng.random(6), 15.0)
    # children are symmetric around the parent mean when no clamp triggers
    assert np.allclose((c1 + c2) / 2, 0.5, atol=1e-12)


def test_pm_bounds_and_mask():
    rng = np.random.default_rng(3)
    g = rng.random(20)
    child = pm_mutation(g, rng.random(20), rng.random(20), 15.0, 1.0)
    assert np.all(child >= 0.0) and np.all(child <= 1.0)
    assert np.any(child != g)


def test_pm_draw_count_independent_of_prob():
    # pm_prob 0 keeps every gene, and the draw passes take the same stream
    # at pm_prob 0 and 1 (a mask and a step uniform per gene either way)
    g = np.linspace(0.1, 0.9, 7)
    rng = np.random.default_rng(4)
    unchanged = pm_mutation(g, rng.random(7), rng.random(7), 15.0, 0.0)
    assert np.array_equal(unchanged, g)
    genomes = np.random.default_rng(5).random((7, 4))
    objectives = np.arange(7.0)
    skills = np.array([0, 1, 0, 1, 1, 0, 0])
    config = SolverConfig(kind="mfea", rmp=0.5)
    after = {}
    for pm_prob in (0.0, 1.0):
        rng = np.random.default_rng(4)
        _ga_offspring(genomes, objectives, config, pm_prob, rng)
        _mfea_offspring(genomes, skills, config, pm_prob, rng)
        after[pm_prob] = rng.random()
    assert after[0.0] == after[1.0]


def test_population_stats_ranks_and_skills():
    costs = np.array(
        [
            [0.2, 0.9],
            [0.1, 0.8],
            [0.3, 0.1],
            [np.inf, 0.5],
            [0.2, np.inf],
        ]
    )
    ranks, skills, fitness = _population_stats(costs)
    assert list(ranks[:, 0]) == [2, 1, 4, 5, 3]  # tie at 0.2 keeps index order
    assert list(ranks[:, 1]) == [4, 3, 1, 2, 5]
    assert list(skills) == [0, 0, 1, 1, 0]
    assert fitness[1] == 1.0
    assert fitness[2] == 1.0
    assert fitness[3] == 0.5
    assert fitness[4] == pytest.approx(1 / 3)


def test_population_stats_unevaluated_everywhere():
    costs = np.full((3, 2), np.inf)
    _, skills, fitness = _population_stats(costs)
    assert np.all(fitness == 0.0)
    # argmin over equal masked ranks falls back to task 0
    assert np.all(skills == 0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(kind="nope")
    with pytest.raises(ValueError):
        SolverConfig(kind="mfea", rmp=1.5)
    with pytest.raises(ValueError):
        SolverConfig(kind="mfea", pop_size=1)
    with pytest.raises(ValueError):
        SolverConfig(kind="emea", transfer_count=-1)
    assert SolverConfig(kind="mfea").resolved_pop_size() == 20
    assert SolverConfig(kind="emea").resolved_pop_size() == 10


def test_single_ga_runs_expensive_only():
    ds = make_gaussian_dataset(0)
    env = build_environment(ds, budget=5000, seed=1)
    result = dispatch_solver(env, SolverConfig(kind="single_task_ga", seed=2))
    assert env.ledger.evals[TaskId.CHEAP] == 0
    assert env.ledger.evals[TaskId.EXPENSIVE] > 0
    assert result.best_objective == env.best_expensive_objective


def test_single_ga_improves_on_separable():
    ds = make_separable_dataset(5)
    hits = 0
    for seed in range(10):
        env = build_environment(ds, budget=40000, seed=seed)
        result = dispatch_solver(env, SolverConfig(kind="single_task_ga", seed=seed))
        if auc_metric(result.best_weights, ds.full_view()) == 1.0:
            hits += 1
    assert hits >= 8


def test_trace_costs_strictly_increase():
    ds = make_gaussian_dataset(1)
    # budget 5 runs out during initialisation: the trace is that one point
    for kind, budget in itertools.product(("single_task_ga", "mfea", "emea"), (9000, 5)):
        env = build_environment(ds, budget=budget, delta=5, seed=3)
        result = dispatch_solver(env, SolverConfig(kind=kind, seed=4))
        assert result.kind == kind
        costs = [p.cumulative_cost for p in result.trace]
        assert all(b > a for a, b in zip(costs, costs[1:]))
        gens = [p.generation for p in result.trace]
        assert gens == list(range(len(gens)))
        assert (len(gens) == 1) == (budget == 5)
        assert result.trace[-1].cumulative_cost == env.ledger.spent
        assert result.trace[-1].best_objective_expensive == result.best_objective


@pytest.mark.parametrize("min_nonzeros", [None, 0])
def test_final_best_auc_is_the_measured_auc(min_nonzeros):
    # The archived loss fraction is the one the evaluation counted, so the
    # trace's AUC equals auc_metric bit for bit, on CSR and on certified
    # BLAS counts alike; 1 - (objective - penalty) can be one ulp off.
    gate = dense_gate(min_nonzeros) if min_nonzeros is not None else contextlib.nullcontext()
    with gate:
        for data_seed, kind, seed in itertools.product(range(3), ("single_task_ga", "mfea", "emea"), range(6)):
            ds = make_gaussian_dataset(data_seed)
            env = build_environment(ds, budget=3000, delta=5, seed=seed)
            result = dispatch_solver(env, SolverConfig(kind=kind, seed=seed))
            assert result.trace[-1].best_auc_expensive == auc_metric(result.best_weights, ds.full_view())


def test_budget_overshoot_bounded():
    ds = make_gaussian_dataset(2)
    for kind in ("single_task_ga", "mfea", "emea"):
        env = build_environment(ds, budget=3000, seed=5)
        dispatch_solver(env, SolverConfig(kind=kind, seed=6))
        assert env.ledger.spent <= 3000 + env.ledger.cost_per_eval(TaskId.EXPENSIVE)


def test_evaluate_charges_mixed_rows_like_a_serial_loop():
    ds = make_gaussian_dataset(9)
    C, E = TaskId.CHEAP, TaskId.EXPENSIVE
    tids = [C, E, C, C, E, C, E, E]
    budget = 150  # costs 1 and 100: rows 0-3 spend 103, row 4 crosses to 203
    rng = np.random.default_rng(0)
    keys = rng.random((len(tids), ds.dim))
    ref_env = build_environment(ds, budget=budget, seed=1)
    tasks = [ref_env.tasks[t] for t in tids]
    exact = [objective(decode_weights(k), task.view, task.lam) for task, k in zip(tasks, keys)]
    # Swap the best expensive row into row 6, which the budget leaves uncharged.
    best = min((i for i, t in enumerate(tids) if t == E), key=lambda i: exact[i])
    keys[[6, best]] = keys[[best, 6]]
    exact[6], exact[best] = exact[best], exact[6]

    ref_kept = 0
    for tid in tids:
        if ref_env.ledger.exhausted:
            break
        ref_env.ledger.charge([tid])
        ref_kept += 1

    env = build_environment(ds, budget=budget, seed=1)
    values, kept = _evaluate(env, np.array(tids), keys)
    assert kept == ref_kept == 5
    assert env.ledger.spent == ref_env.ledger.spent == 203
    assert env.ledger.evals == ref_env.ledger.evals == {C: 3, E: 2}
    assert values[:kept].tolist() == exact[:kept]
    assert np.all(np.isinf(values[kept:]))
    charged_expensive = [exact[i] for i in (1, 4)]
    assert env.best_expensive_objective == min(charged_expensive)
    assert env.best_expensive_objective > exact[6]


def test_budget_too_small_for_init():
    ds = make_gaussian_dataset(3)
    # 5 units: the first five cheap evaluations fit, no expensive one does
    env = build_environment(ds, budget=5, seed=7)
    result = dispatch_solver(env, SolverConfig(kind="mfea", seed=8))
    assert result.best_weights is None
    assert result.best_objective is None
    assert len(result.trace) == 1
    assert result.trace[0].best_objective_expensive is None


def test_mfea_offspring_evaluated_on_skill_task_only():
    ds = make_gaussian_dataset(4)
    env = build_environment(ds, budget=4000, delta=None, seed=9)
    rec = {tid: RecordingTask(env.tasks[tid]) for tid in env.tasks}
    env.tasks.update(rec)
    n = 20
    result = dispatch_solver(env, SolverConfig(kind="mfea", seed=10))
    # init evaluates the whole population on both tasks
    assert rec[TaskId.CHEAP].calls[0] == n
    assert rec[TaskId.EXPENSIVE].calls[0] == n
    # afterwards each generation's calls sum to one evaluation per child
    cheap_rest = rec[TaskId.CHEAP].calls[1:]
    exp_rest = rec[TaskId.EXPENSIVE].calls[1:]
    gens = result.trace[-1].generation
    assert sum(cheap_rest) + sum(exp_rest) == gens * n


def test_mfea_adjustment_reevaluates_cheap_cohort():
    ds = make_gaussian_dataset(5)
    env = build_environment(ds, budget=60000, delta=4, seed=11)
    result = dispatch_solver(env, SolverConfig(kind="mfea", seed=12))
    assert len(env.adjustment_log) >= 1
    flagged = [p.generation for p in result.trace if p.adjust_event]
    assert flagged == [e.generation for e in env.adjustment_log]
    assert all(g % 4 == 0 for g in flagged)


def test_mfea_rmp_zero_still_runs():
    ds = make_gaussian_dataset(6)
    env = build_environment(ds, budget=4000, seed=13)
    result = dispatch_solver(env, SolverConfig(kind="mfea", rmp=0.0, seed=14))
    assert result.best_weights is not None


def test_emea_transfer_charges_target_task():
    ds = make_gaussian_dataset(7)
    env = build_environment(ds, budget=30000, delta=None, seed=15)
    rec = {tid: RecordingTask(env.tasks[tid]) for tid in env.tasks}
    env.tasks.update(rec)
    n = 10
    count = 2
    result = dispatch_solver(env, SolverConfig(kind="emea", transfer_interval=3, transfer_count=count, seed=16))
    gens = result.trace[-1].generation
    # per full generation each task sees one n-row offspring call, plus a
    # count-row call per transfer event
    transfer_gens = [t for t in range(1, gens + 1) if t % 3 == 0]
    for tid in (TaskId.CHEAP, TaskId.EXPENSIVE):
        calls = rec[tid].calls
        assert calls[0] == n  # init
        assert calls.count(count) >= len(transfer_gens) - 1


def test_emea_transfer_disabled_never_maps():
    ds = make_gaussian_dataset(8)
    env = build_environment(ds, budget=20000, delta=None, seed=17)
    rec = {tid: RecordingTask(env.tasks[tid]) for tid in env.tasks}
    env.tasks.update(rec)
    dispatch_solver(env, SolverConfig(kind="emea", transfer_count=0, seed=18))
    for tid in rec:
        assert all(c in (10,) for c in rec[tid].calls)  # init + offspring only


def test_transfer_map_identity_on_equal_populations():
    rng = np.random.default_rng(19)
    P = rng.random((5, 9))  # full row rank with probability 1
    mapped = fit_transfer_map(P, P)
    eye = np.eye(5)
    assert np.linalg.norm(mapped.matrix - eye) < 1e-4


def test_transfer_map_beats_random_matrices():
    rng = np.random.default_rng(20)
    for _ in range(10):
        P = rng.random((4, 8))
        Q = rng.random((4, 8))
        fitted = fit_transfer_map(P, Q)
        resid = np.linalg.norm(fitted.matrix @ P - Q)
        best_random = min(
            np.linalg.norm(rng.normal(size=(4, 4)) @ P - Q) for _ in range(100)
        )
        assert resid < best_random


def test_transfer_map_truncates_to_common_columns():
    rng = np.random.default_rng(21)
    P = rng.random((3, 10))
    Q = rng.random((3, 6))
    mapped = fit_transfer_map(P, Q)
    assert mapped.matrix.shape == (3, 3)


def test_transfer_map_apply_clamps():
    m = fit_transfer_map(np.eye(3) * 5, np.eye(3) * 5)
    out = m.apply(np.array([[2.0, -3.0, 0.5]]))
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_dispatch_rejects_unknown_kind():
    ds = make_gaussian_dataset(9)
    env = build_environment(ds, budget=100, seed=22)
    cfg = SolverConfig(kind="mfea", seed=23)
    object.__setattr__(cfg, "kind", "bogus")
    with pytest.raises(ValueError):
        dispatch_solver(env, cfg)


def test_solvers_deterministic_and_jobs_invariant():
    ds = make_gaussian_dataset(10)
    for kind in ("single_task_ga", "mfea", "emea"):
        runs = []
        for jobs in (1, 1, 4):
            env = build_environment(ds, budget=8000, delta=5, seed=24)
            runs.append(dispatch_solver(env, SolverConfig(kind=kind, seed=25), jobs=jobs))
        a, b, c = runs
        assert a.best_objective == b.best_objective == c.best_objective
        ta = [(p.generation, p.cumulative_cost, p.best_objective_expensive) for p in a.trace]
        tb = [(p.generation, p.cumulative_cost, p.best_objective_expensive) for p in b.trace]
        tc = [(p.generation, p.cumulative_cost, p.best_objective_expensive) for p in c.trace]
        assert ta == tb == tc


def _record_worker_threads(monkeypatch, fail_on_call=None):
    """Patch TaskSpec.objective_batch to log every thread other than the
    caller's that runs it or is alive while it runs; optionally raise on the
    given call number (0-based)."""
    caller = threading.current_thread()
    before = set(threading.enumerate())
    workers = set()
    calls = itertools.count()
    original = TaskSpec.objective_batch

    def recording(self, W):
        workers.update(set(threading.enumerate()) - before)
        if threading.current_thread() is not caller:
            workers.add(threading.current_thread())
        if next(calls) == fail_on_call:
            raise RuntimeError("injected evaluation failure")
        return original(self, W)

    monkeypatch.setattr(TaskSpec, "objective_batch", recording)
    return workers


def test_run_pool_joined_when_evaluation_raises(monkeypatch):
    # An evaluation failure propagates out of the run unchanged.
    ds = make_gaussian_dataset(12)
    for kind in ("single_task_ga", "mfea", "emea"):
        workers = _record_worker_threads(monkeypatch, fail_on_call=1)
        env = build_environment(ds, budget=4000, delta=5, seed=28)
        with pytest.raises(RuntimeError, match="injected evaluation failure"):
            dispatch_solver(env, SolverConfig(kind=kind, seed=29), jobs=2)
        assert not workers


def test_run_owns_one_pool_joined_on_return(monkeypatch):
    # At any jobs the run's one evaluation worker is the calling thread: no
    # other thread runs objective_batch, and none is left alive on return.
    ds = make_gaussian_dataset(11)
    for kind in ("single_task_ga", "mfea", "emea"):
        for jobs in (2, 4):
            before = set(threading.enumerate())
            workers = _record_worker_threads(monkeypatch)
            env = build_environment(ds, budget=4000, delta=5, seed=26)
            dispatch_solver(env, SolverConfig(kind=kind, seed=27), jobs=jobs)
            assert not workers, (kind, jobs)
            assert set(threading.enumerate()) <= before, (kind, jobs)


def test_serial_run_starts_no_thread(monkeypatch):
    ds = make_gaussian_dataset(13)
    for kind in ("single_task_ga", "mfea", "emea"):
        workers = _record_worker_threads(monkeypatch)
        env = build_environment(ds, budget=3000, delta=5, seed=30)
        dispatch_solver(env, SolverConfig(kind=kind, seed=31), jobs=1)
        assert not workers, kind


def test_jobs_two_trace_equals_serial_across_adjustments():
    ds = make_gaussian_dataset(14, n_pos=90, n_neg=110)
    for kind in ("mfea", "emea"):
        runs = []
        for jobs in (1, 2):
            env = build_environment(ds, budget=12000, delta=4, seed=32)
            runs.append((dispatch_solver(env, SolverConfig(kind=kind, seed=33), jobs=jobs), env))
        (serial, env1), (pooled, env2) = runs
        assert len(env1.adjustment_log) >= 2
        assert env1.adjustment_log == env2.adjustment_log
        assert serial.trace == pooled.trace
        assert serial.best_objective == pooled.best_objective
        assert np.array_equal(serial.best_weights, pooled.best_weights)


EVAL_DATA = make_gaussian_dataset(21, n_pos=30, n_neg=45, dim=4)


@st.composite
def evaluate_batches(draw):
    """A few batches for one environment. Keys are multiples of 1/8 and a
    row may be a half-scaled twin of an earlier one: its weights are
    exactly half, it ranks every pair the same, so at lam = 0 the two
    objectives tie exactly."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        n = draw(st.integers(0, 8))
        keys = np.array(draw(st.lists(st.lists(st.integers(0, 8), min_size=4, max_size=4), min_size=n, max_size=n)),
                        dtype=np.float64).reshape(n, 4) / 8
        for i in range(1, n):
            if draw(st.booleans()):
                keys[i] = (2 * keys[draw(st.integers(0, i - 1))] - 1) / 4 + 0.5
        if draw(st.booleans()):
            task_ids = draw(st.sampled_from(list(TaskId)))
        else:
            task_ids = np.array(draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)), dtype=np.int64)
        batches.append((task_ids, keys))
    return batches


@settings(max_examples=60, deadline=None)
@given(
    batches=evaluate_batches(),
    budget=st.integers(1, 700),
    s=st.sampled_from(["1/10", "3/10", "1"]),
    lam=st.sampled_from([0.0, 0.125]),
)
def test_evaluate_matches_per_row_oracle(batches, budget, s, lam):
    # Small budgets run out inside a batch or before it starts; each
    # environment sees the same batches, one through the batched path and
    # one through the per-row loop, and every step must agree.
    env = build_environment(EVAL_DATA, s=s, lam=lam, budget=budget, seed=3)
    ref = build_environment(EVAL_DATA, s=s, lam=lam, budget=budget, seed=3)
    for task_ids, keys in batches:
        values, kept = _evaluate(env, task_ids, keys)
        ref_values, ref_kept = evaluate_per_row(ref, task_ids, keys)
        assert kept == ref_kept
        assert np.array_equal(values, ref_values)
        assert env.ledger.spent == ref.ledger.spent
        assert env.ledger.evals == ref.ledger.evals
        assert env.best_expensive_objective == ref.best_expensive_objective
        if ref.best_expensive_weights is None:
            assert env.best_expensive_weights is None
        else:
            assert np.array_equal(env.best_expensive_weights, ref.best_expensive_weights)


def test_evaluate_archives_the_earlier_of_tied_rows():
    # rows 0 and 2 are twins (weights w and w / 2): equal objectives at
    # lam = 0, different weights; the archive keeps row 0, the earlier one
    env = build_environment(EVAL_DATA, lam=0.0, budget=10**6, seed=3)
    keys = np.array([[0.875, 0.25, 0.5, 0.0], [0.5, 0.5, 0.5, 0.5], [0.6875, 0.375, 0.5, 0.25]])
    values, kept = _evaluate(env, TaskId.EXPENSIVE, keys)
    assert kept == 3
    assert values[0] == values[2] < values[1]
    assert np.array_equal(decode_weights(keys[2]), decode_weights(keys[0]) / 2)
    assert np.array_equal(env.best_expensive_weights, decode_weights(keys[0]))
    # a later batch with the same objective does not replace it either
    _evaluate(env, TaskId.EXPENSIVE, keys[2:])
    assert np.array_equal(env.best_expensive_weights, decode_weights(keys[0]))


def test_evaluate_on_an_empty_batch_charges_nothing():
    env = build_environment(EVAL_DATA, budget=50, seed=3)
    for task_ids in (TaskId.CHEAP, np.zeros(0, dtype=np.int64)):
        values, kept = _evaluate(env, task_ids, np.zeros((0, EVAL_DATA.dim)))
        assert values.shape == (0,) and kept == 0
    assert env.ledger.spent == 0 and env.best_expensive_weights is None
