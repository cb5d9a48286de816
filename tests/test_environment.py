import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from emtauc.data import DataError
from emtauc.environment import (
    BudgetExhaustedError,
    CostLedger,
    TaskId,
    as_budget,
    build_environment,
)

from conftest import make_gaussian_dataset


def test_cost_per_eval():
    ledger = CostLedger(101000, "0.1")
    assert ledger.cost_per_eval(TaskId.CHEAP) == 1
    assert ledger.cost_per_eval(TaskId.EXPENSIVE) == 100
    assert CostLedger(10, "0.5").cost_per_eval(TaskId.EXPENSIVE) == 4
    assert CostLedger(10, 1).cost_per_eval(TaskId.EXPENSIVE) == 1


def test_ledger_exact_at_default_budget():
    # 1000 cheap + 1000 expensive at s=0.1 spends the whole default budget
    ledger = CostLedger(101000, "0.1")
    for _ in range(1000):
        ledger.charge(TaskId.CHEAP)
    for _ in range(1000):
        ledger.charge(TaskId.EXPENSIVE)
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
                ledger.charge(TaskId.CHEAP)
                n_cheap += 1
            else:
                ledger.charge(TaskId.EXPENSIVE)
                n_exp += 1
            assert ledger.spent == n_cheap + Fraction(n_exp) / rate**2


def test_ledger_odd_rate_stays_exact():
    # 1/0.3^2 is not a dyadic float; the ledger must not drift
    ledger = CostLedger(1000, "0.3")
    for _ in range(9):
        ledger.charge(TaskId.EXPENSIVE)
    assert ledger.spent == 100  # 9 * 100/9
    for _ in range(7):
        ledger.charge(TaskId.CHEAP)
    assert ledger.spent == 107


def test_charge_after_exhaustion_raises():
    ledger = CostLedger(5, "0.1")
    for _ in range(5):
        ledger.charge(TaskId.CHEAP)
    assert ledger.exhausted
    with pytest.raises(BudgetExhaustedError):
        ledger.charge(TaskId.CHEAP)


def test_crossing_charge_completes():
    ledger = CostLedger(150, "0.1")
    ledger.charge(TaskId.EXPENSIVE)  # 100, not exhausted
    assert not ledger.exhausted
    ledger.charge(TaskId.EXPENSIVE)  # crosses to 200
    assert ledger.exhausted
    assert ledger.spent == 200
    # overshoot never exceeds one expensive evaluation
    assert ledger.spent - ledger.budget <= ledger.cost_per_eval(TaskId.EXPENSIVE)
    with pytest.raises(BudgetExhaustedError):
        ledger.charge(TaskId.CHEAP)


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
    env.record_expensive(w1, 0.5)
    env.record_expensive(w2, 0.5)  # tie: first stays
    assert np.array_equal(env.best_expensive_weights, w1)
    env.record_expensive(w2, 0.4)
    assert np.array_equal(env.best_expensive_weights, w2)
    assert env.best_expensive_objective == 0.4


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


def test_archive_starts_empty():
    ds = make_gaussian_dataset(5)
    env = build_environment(ds, seed=3)
    assert env.best_expensive_weights is None
    assert env.best_expensive_objective is None


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
                ledger.charge(tid)
            break
        ledger.charge(tid)  # the crossing charge completes
        spent += 1 if tid == TaskId.CHEAP else 1 / s**2
        assert ledger.spent == spent
        assert ledger.remaining == budget - spent
        assert ledger.exhausted == (spent >= budget)
    assert ledger.spent == spent
