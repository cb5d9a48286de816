import dataclasses
import inspect
import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emtauc import data
from emtauc.analysis import landscape_similarity, run_benchmark
from emtauc.config import BenchmarkConfig, BenchmarkEntry, CostModelConfig, LandscapeConfig, RunConfig
from emtauc.data import DataError, DatasetView, stratified_kfold
from emtauc.environment import (
    DEFAULT_BUDGET,
    DEFAULT_DELTA,
    DEFAULT_LAM,
    DEFAULT_RATE,
    BudgetExhaustedError,
    CostLedger,
    TaskId,
    as_budget,
    build_environment,
)
from emtauc.evaluation import evaluate
from emtauc.solvers import decode_weights

from conftest import dense_gate, make_gaussian_dataset


def test_cost_per_eval():
    ledger = CostLedger(101000, "0.1")
    assert ledger.cost_per_eval(TaskId.CHEAP) == 1
    assert ledger.cost_per_eval(TaskId.EXPENSIVE) == 100
    assert CostLedger(10, "0.5").cost_per_eval(TaskId.EXPENSIVE) == 4
    assert CostLedger(10, 1).cost_per_eval(TaskId.EXPENSIVE) == 1


DECLARED = {"s": DEFAULT_RATE, "lam": DEFAULT_LAM, "delta": DEFAULT_DELTA, "budget": DEFAULT_BUDGET}


def _default(owner, name):
    """The default of parameter or dataclass field ``name`` of ``owner``."""
    if dataclasses.is_dataclass(owner):
        return next(f.default for f in dataclasses.fields(owner) if f.name == name)
    return inspect.signature(owner).parameters[name].default


@pytest.mark.parametrize(
    "owner, names",
    [
        (build_environment, ("s", "lam", "delta", "budget")),
        (run_benchmark, ("s", "lam", "budget")),
        (landscape_similarity, ("lam",)),
        (BenchmarkEntry, ("delta",)),
        (RunConfig, ("s", "lam", "delta", "budget")),
        (BenchmarkConfig, ("s", "lam", "delta", "budget")),
        (LandscapeConfig, ("s", "lam")),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_defaults_name_the_protocol_declaration(owner, names):
    # each default is the declared object itself, not an equal copy of it
    for name in names:
        assert _default(owner, name) is DECLARED[name], name
    assert DECLARED == {"s": Fraction(1, 10), "lam": 0.125, "delta": 30, "budget": 101000}


def test_costmodel_rates_start_at_the_protocol_rate():
    assert _default(CostModelConfig, "rates")[0] is DEFAULT_RATE


def test_every_caller_sets_the_sweep_and_landscape_sizes():
    empty = inspect.Parameter.empty
    params = inspect.signature(run_benchmark).parameters
    assert params["trials"].default is empty and params["folds"].default is empty
    params = inspect.signature(landscape_similarity).parameters
    for name in ("n_points", "n_repeats", "seed"):
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY and params[name].default is empty


def test_ledger_exact_at_default_budget():
    # 1000 cheap + 1000 expensive at s=0.1 spends the whole default budget
    ledger = CostLedger(101000, "0.1")
    for _ in range(1000):
        ledger.charge([TaskId.CHEAP])
    for _ in range(1000):
        ledger.charge([TaskId.EXPENSIVE])
    assert ledger.spent == 101000
    assert ledger.remaining == 0
    assert ledger.exhausted
    assert ledger.evals == {TaskId.CHEAP: 1000, TaskId.EXPENSIVE: 1000}


def test_ledger_interleaving_exact():
    rng = np.random.default_rng(0)
    for s in ("0.1", "0.2", "0.5", "1.0"):
        rate = Fraction(s.replace("1.0", "1"))
        ledger = CostLedger(10**9, s)
        n_cheap = 0
        n_exp = 0
        for _ in range(500):
            if rng.random() < 0.5:
                ledger.charge([TaskId.CHEAP])
                n_cheap += 1
            else:
                ledger.charge([TaskId.EXPENSIVE])
                n_exp += 1
            assert ledger.spent == n_cheap + Fraction(n_exp) / rate**2


def test_ledger_odd_rate_stays_exact():
    # 1/0.3^2 is not a dyadic float; the ledger must not drift
    ledger = CostLedger(1000, "0.3")
    for _ in range(9):
        ledger.charge([TaskId.EXPENSIVE])
    assert ledger.spent == 100  # 9 * 100/9
    for _ in range(7):
        ledger.charge([TaskId.CHEAP])
    assert ledger.spent == 107


def test_charge_after_exhaustion_raises():
    ledger = CostLedger(5, "0.1")
    for _ in range(5):
        ledger.charge([TaskId.CHEAP])
    assert ledger.exhausted
    with pytest.raises(BudgetExhaustedError):
        ledger.charge([TaskId.CHEAP])


def test_crossing_charge_completes():
    ledger = CostLedger(150, "0.1")
    ledger.charge([TaskId.EXPENSIVE])  # 100, not exhausted
    assert not ledger.exhausted
    ledger.charge([TaskId.EXPENSIVE])  # crosses to 200
    assert ledger.exhausted
    assert ledger.spent == 200
    # overshoot never exceeds one expensive evaluation
    assert ledger.spent - ledger.budget <= ledger.cost_per_eval(TaskId.EXPENSIVE)
    with pytest.raises(BudgetExhaustedError):
        ledger.charge([TaskId.CHEAP])


def test_batch_crossing_row_completes_and_later_rows_stay_uncharged():
    C, E = TaskId.CHEAP, TaskId.EXPENSIVE
    ledger = CostLedger(150, "0.1")
    # 100, 101, then row 2 crosses to 201; rows 3 and 4 are not charged
    assert ledger.charge([E, C, E, C, E]) == 3
    assert ledger.spent == 201
    assert ledger.evals == {C: 1, E: 2}
    assert ledger.exhausted


def test_batch_on_exhausted_ledger_raises_and_charges_nothing():
    ledger = CostLedger(5, "0.1")
    assert ledger.charge([TaskId.CHEAP] * 5) == 5
    with pytest.raises(BudgetExhaustedError):
        ledger.charge([TaskId.CHEAP, TaskId.EXPENSIVE])
    assert ledger.spent == 5
    assert ledger.evals == {TaskId.CHEAP: 5, TaskId.EXPENSIVE: 0}


def test_empty_batch_charges_nothing():
    ledger = CostLedger(5, "0.1")
    assert ledger.charge([]) == 0
    assert ledger.spent == 0 and ledger.evals == {TaskId.CHEAP: 0, TaskId.EXPENSIVE: 0}
    ledger.charge([TaskId.CHEAP] * 5)
    assert ledger.charge([]) == 0  # not even on an exhausted ledger
    assert ledger.spent == 5


def test_batch_at_odd_rate_stays_exact():
    ledger = CostLedger(1000, "0.3")
    assert ledger.charge([TaskId.EXPENSIVE] * 9) == 9
    assert ledger.spent == 100  # 9 * 100/9
    assert ledger.charge([TaskId.CHEAP] * 7) == 7
    assert ledger.spent == 107
    assert ledger.charge([TaskId.EXPENSIVE] * 100) == 81  # 107 + 81 * 100/9 = 1007
    assert ledger.spent == 1007


def test_charge_rejects_an_unknown_task_id():
    ledger = CostLedger(5, "0.1")
    with pytest.raises(ValueError):
        ledger.charge([TaskId.CHEAP, 2])
    assert ledger.spent == 0


def test_ledger_rejects_bad_budget():
    with pytest.raises(ValueError):
        CostLedger(0, "0.1")
    with pytest.raises(ValueError):
        CostLedger(-5, "0.1")


@pytest.mark.parametrize(
    "budget, message",
    [
        (0, "budget: must be positive, got 0"),
        (True, "budget: expected a positive number, got True"),
        (float("nan"), "budget: expected a positive number, got nan"),
        ("1/0", "budget: expected a positive number, got '1/0'"),
    ],
)
def test_ledger_budget_messages(budget, message):
    with pytest.raises(DataError) as info:
        CostLedger(budget, "0.1")
    assert str(info.value) == message


def test_as_budget_is_exact():
    assert as_budget(0.1) == Fraction(1, 10)
    assert as_budget("7/3") == Fraction(7, 3)
    assert as_budget(Fraction(5, 2)) == Fraction(5, 2)
    assert CostLedger(2.5, "0.5").budget == Fraction(5, 2)


def test_environment_views():
    ds = make_gaussian_dataset(0, n_pos=60, n_neg=80)
    env = build_environment(ds, s="0.1", lam=0.125, delta=30, budget=1000, seed=7)
    cheap = env.tasks[TaskId.CHEAP].view
    assert cheap.t_pos == 6 and cheap.t_neg == 8
    full = env.tasks[TaskId.EXPENSIVE].view
    assert full.t_pos == 60 and full.t_neg == 80
    assert env.ledger.cost_per_eval(TaskId.CHEAP) == 1
    assert env.ledger.cost_per_eval(TaskId.EXPENSIVE) == 100


def test_environment_cheap_view_deterministic():
    ds = make_gaussian_dataset(0)
    a = build_environment(ds, seed=11).tasks[TaskId.CHEAP].view
    b = build_environment(ds, seed=11).tasks[TaskId.CHEAP].view
    assert np.array_equal(a.selected, b.selected)


def test_environment_rejects_bad_delta():
    ds = make_gaussian_dataset(0)
    for bad in (0, -3, 1.5, True):
        with pytest.raises(ValueError):
            build_environment(ds, delta=bad)
    assert build_environment(ds, delta=None).delta is None


def test_record_expensive_keeps_earlier_on_tie():
    ds = make_gaussian_dataset(0)
    env = build_environment(ds, seed=1)
    w1 = np.full(ds.dim, 0.25)
    w2 = np.full(ds.dim, -0.25)
    env.record_expensive(w1, 0.5, 0.25)
    env.record_expensive(w2, 0.5, 0.125)  # tie: first stays
    assert np.array_equal(env.best_expensive_weights, w1)
    assert env.best_expensive_auc == 0.75
    env.record_expensive(w2, 0.4, 0.125)
    assert np.array_equal(env.best_expensive_weights, w2)
    assert env.best_expensive_objective == 0.4
    assert env.best_expensive_auc == 0.875


def test_adjust_swaps_view_and_logs():
    ds = make_gaussian_dataset(3, n_pos=30, n_neg=40)
    env = build_environment(ds, s="0.1", seed=5)
    before = env.tasks[TaskId.CHEAP].view
    w = np.zeros(ds.dim)  # ties everywhere: selection falls back to index order
    after = env.adjust_cheap_task(w, generation=30)
    assert env.tasks[TaskId.CHEAP].view is after
    assert after.t_pos == before.t_pos and after.t_neg == before.t_neg
    assert list(after.selected) == [0, 1, 2, 30, 31, 32, 33]
    assert len(env.adjustment_log) == 1
    event = env.adjustment_log[0]
    assert event.generation == 30
    assert event.view_fingerprint == after.fingerprint()


def test_adjust_twice_appends_events():
    ds = make_gaussian_dataset(4)
    env = build_environment(ds, seed=2)
    rng = np.random.default_rng(8)
    env.adjust_cheap_task(rng.uniform(-1, 1, ds.dim), generation=30)
    env.adjust_cheap_task(rng.uniform(-1, 1, ds.dim), generation=60)
    gens = [e.generation for e in env.adjustment_log]
    assert gens == [30, 60]


@pytest.mark.parametrize("gate", [data._DENSE_MIN_NONZEROS, 0])
def test_task_batches_equal_checked_evaluate(gate):
    # the solvers' unchecked path gives the bits of the checked entry point
    # on both tasks, before and after the cheap view is rebuilt
    ds = make_gaussian_dataset(6)
    W = decode_weights(np.random.default_rng(9).random((10, ds.dim)))
    with dense_gate(gate):
        env = build_environment(ds, seed=4)
        for _ in range(2):
            for task in env.tasks.values():
                got, want = task.objective_batch(W), evaluate(W, task.view, task.lam)
                assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            env.adjust_cheap_task(W[0], generation=30)


def test_only_the_paper_size_full_view_takes_the_certified_path():
    # at the paper's scale (768 x 8, like diabetes) the full view densifies
    # for the certified BLAS path; the cheap view (76 instances at the
    # default rate, before and after a rebuild) and a 384 x 8 half, like a
    # two-fold split's, hold too few nonzeros and stay on CSR
    ds = make_gaussian_dataset(3, n_pos=268, n_neg=500, dim=8)
    env = build_environment(ds, seed=0)
    half = DatasetView(ds, stratified_kfold(ds, 2, seed=0).test_indices(0))
    full = env.tasks[TaskId.EXPENSIVE].view
    assert (full.class_matrix.nnz, half.class_matrix.nnz) == (768 * 8, 384 * 8)
    assert full.dense_rows() is not None
    assert half.dense_rows() is None
    for _ in range(2):
        cheap = env.tasks[TaskId.CHEAP].view
        assert cheap.n == 76
        assert cheap.dense_rows() is None
        env.adjust_cheap_task(np.ones(ds.dim), generation=30)


def test_archive_starts_empty():
    ds = make_gaussian_dataset(5)
    env = build_environment(ds, seed=3)
    assert env.best_expensive_weights is None
    assert env.best_expensive_objective is None
    assert env.best_expensive_auc is None


RATES = st.one_of(
    st.sampled_from([Fraction(1, 997), Fraction(3, 10), Fraction(1, 3), Fraction(7, 9), Fraction(1)]),
    st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000),
)


@given(
    charges=st.lists(st.sampled_from(list(TaskId)), max_size=40),
    s=RATES,
    budget=st.fractions(min_value=Fraction(1, 1000), max_value=400, max_denominator=1000),
)
def test_ledger_matches_fraction_reference(charges, s, budget):
    # The drawn charges, then cheap ones until the budget is crossed.
    ledger = CostLedger(budget, s)
    spent = Fraction(0)
    for tid in itertools.chain(charges, itertools.repeat(TaskId.CHEAP)):
        if spent >= budget:
            with pytest.raises(BudgetExhaustedError):
                ledger.charge([tid])
            break
        ledger.charge([tid])  # the crossing charge completes
        spent += 1 if tid == TaskId.CHEAP else 1 / s**2
        assert ledger.spent == spent
        assert ledger.remaining == budget - spent
        assert ledger.exhausted == (spent >= budget)
    assert ledger.spent == spent


@given(
    charges=st.lists(st.sampled_from(list(TaskId)), max_size=40),
    s=RATES,
    budget=st.fractions(min_value=Fraction(1, 1000), max_value=400, max_denominator=1000),
    cuts=st.lists(st.integers(0, 40), max_size=4),
)
def test_batches_charge_like_single_rows(charges, s, budget, cuts):
    # The charges cut into batches, against the same charges one by one.
    ledger, ref = CostLedger(budget, s), CostLedger(budget, s)
    bounds = [0, *sorted(min(c, len(charges)) for c in cuts), len(charges)]
    for lo, hi in itertools.pairwise(bounds):
        batch = charges[lo:hi]
        expected = 0
        for tid in batch:
            if ref.exhausted:
                break
            ref.charge([tid])
            expected += 1
        if batch and ledger.exhausted:
            with pytest.raises(BudgetExhaustedError):
                ledger.charge(batch)
        else:
            assert ledger.charge(batch) == expected
        assert ledger.spent == ref.spent
        assert ledger.evals == ref.evals
