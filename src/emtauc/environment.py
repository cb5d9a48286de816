"""Two-task optimization environment with exact evaluation-cost accounting.

The cheap task scores candidates on a class-stratified subsample at rate s,
the expensive task on the full training data. One cheap evaluation costs 1
budget unit; one expensive evaluation costs ``expensive_cost(s)`` = 1/s^2
units. The ledger tracks spending in integer micro-units of one over that
price's denominator (p^2 for s = p/q in lowest terms), so accounting is
exact for any rational rate.

This module declares the paper's protocol defaults once: every default of
the config, analysis and command-line layers names them.
"""
from __future__ import annotations

import bisect
import itertools
import math
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .data import DataError, Dataset, DatasetView, as_rate, stratified_sample
from .evaluation import _evaluate_rows, hardness_scores, select_hardest


# The paper's protocol: the cheap task samples at rate s, the objective is
# lambda-regularised, the cheap task is rebuilt every delta generations,
# and one budget of cheap-evaluation units caps the run.
DEFAULT_RATE = Fraction(1, 10)
DEFAULT_LAM = 0.125
DEFAULT_DELTA = 30
DEFAULT_BUDGET = Fraction(101000)


def expensive_cost(s) -> Fraction:
    """The price of one full-data evaluation in cheap evaluations at
    sampling rate ``s``: exactly 1/s^2."""
    return 1 / as_rate(s, "sampling rate") ** 2


class TaskId(IntEnum):
    CHEAP = 0
    EXPENSIVE = 1


class BudgetExhaustedError(RuntimeError):
    """Charging was attempted after the ledger reported exhaustion."""


def as_budget(value, what: str = "budget") -> Fraction:
    """Coerce a budget to an exact positive Fraction.

    Floats go through their shortest decimal repr, as in ``as_rate``, so
    0.1 becomes exactly 1/10. Bools are not numbers here.
    """
    if isinstance(value, bool):
        raise DataError(f"{what}: expected a positive number, got {value!r}")
    try:
        budget = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise DataError(f"{what}: expected a positive number, got {value!r}") from None
    if budget <= 0:
        raise DataError(f"{what}: must be positive, got {value!r}")
    return budget


class CostLedger:
    """Exact budget accounting for per-task evaluation charges.

    ``charge`` takes a whole batch of evaluations and charges them in
    order; it may push ``spent`` past the budget once (the crossing
    evaluation completes and is recorded, the ones after it are not
    charged), and any further charge raises.
    """

    __slots__ = ("_budget", "_den", "_units", "_spent_units", "_budget_units", "evals")

    def __init__(self, budget, s) -> None:
        price = expensive_cost(s)
        budget = as_budget(budget)
        self._budget = budget
        self._den = price.denominator
        self._units = {TaskId.CHEAP: price.denominator, TaskId.EXPENSIVE: price.numerator}
        # Spent units are integers, so spent >= budget exactly when the
        # spent units reach the ceiling of the budget in units.
        self._budget_units = math.ceil(budget * self._den)
        self._spent_units = 0
        self.evals = {TaskId.CHEAP: 0, TaskId.EXPENSIVE: 0}

    @property
    def budget(self) -> Fraction:
        return self._budget

    @property
    def spent(self) -> Fraction:
        return Fraction(self._spent_units, self._den)

    @property
    def exhausted(self) -> bool:
        return self._spent_units >= self._budget_units

    def charge(self, task_ids) -> int:
        """Charge a batch of evaluations, one task id per evaluation, in
        order until the ledger is exhausted, and return how many it charged.

        The evaluation that crosses the budget is charged and the ones after
        it are not, so the charged ones are always the leading ones. An
        empty batch charges nothing; a non-empty one on an exhausted ledger
        raises ``BudgetExhaustedError``. The running totals are Python ints,
        so the charge is exact at any rate.
        """
        ids = list(task_ids)
        try:
            totals = list(itertools.accumulate(map(self._units.__getitem__, ids)))
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not a valid TaskId") from None
        if not totals:
            return 0
        if self.exhausted:
            raise BudgetExhaustedError(
                f"budget exhausted: spent {self.spent} of {self._budget}"
            )
        # the first running total that reaches the budget is the crossing one
        count = min(bisect.bisect_left(totals, self._budget_units - self._spent_units) + 1, len(totals))
        self._spent_units += totals[count - 1]
        expensive = ids[:count].count(TaskId.EXPENSIVE)
        self.evals[TaskId.CHEAP] += count - expensive
        self.evals[TaskId.EXPENSIVE] += expensive
        return count


class TaskSpec:
    """One optimization task: a data view and the regularizer. An evaluation
    costs 1 budget unit on the cheap task, ``expensive_cost`` on the expensive one."""

    __slots__ = ("task_id", "view", "lam")

    def __init__(self, task_id: TaskId, view: DatasetView, lam: float) -> None:
        self.task_id = TaskId(task_id)
        self.view = view
        self.lam = float(lam)

    def objective_batch(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` of the rows of the float64 (k, dim) array ``W`` on
        this task, unchecked: the solvers decode ``W`` from keys clipped to
        [0, 1], so it is finite, and ``Environment`` gives every view both
        classes."""
        return _evaluate_rows(W, self.view, self.lam)


class AdjustmentEvent(NamedTuple):
    generation: int
    view_fingerprint: str


class Environment:
    """Shared state for one run: both tasks, the ledger, and the archive of
    the best expensive-task solution seen so far."""

    def __init__(self, dataset: Dataset, s, lam: float, delta, budget, seed) -> None:
        rate = as_rate(s, "sampling rate")
        if delta is not None and (not isinstance(delta, int) or isinstance(delta, bool) or delta < 1):
            raise ValueError(f"delta must be a positive integer or None, got {delta!r}")
        self.dataset = dataset
        self.s = rate
        self.delta = delta
        self.ledger = CostLedger(budget, rate)
        cheap_view = stratified_sample(dataset, rate, seed)
        self.tasks = {
            TaskId.CHEAP: TaskSpec(TaskId.CHEAP, cheap_view, lam),
            TaskId.EXPENSIVE: TaskSpec(TaskId.EXPENSIVE, dataset.full_view(), lam),
        }
        self._best_w: np.ndarray | None = None
        self._best_obj: float = np.inf
        self._best_loss: float = np.inf
        self.adjustment_log: list[AdjustmentEvent] = []

    @property
    def best_expensive_weights(self) -> np.ndarray | None:
        return self._best_w

    @property
    def best_expensive_objective(self) -> float | None:
        return None if self._best_w is None else self._best_obj

    @property
    def best_expensive_auc(self) -> float | None:
        """The archived solution's AUC on the full data, as measured."""
        return None if self._best_w is None else 1.0 - self._best_loss

    def record_expensive(self, w: np.ndarray, obj: float, loss: float) -> None:
        """Archive a charged expensive-task evaluation and the loss fraction
        in its objective; strict improvement wins, so ties keep the earlier
        solution."""
        if obj < self._best_obj:
            self._best_obj = float(obj)
            self._best_loss = float(loss)
            self._best_w = np.array(w, dtype=np.float64, copy=True)

    def adjust_cheap_task(self, w_expensive, generation: int) -> DatasetView:
        """Replace the cheap view with the hardest instances under the given
        weights. View size per class is unchanged."""
        scores = hardness_scores(w_expensive, self.dataset)
        new_view = select_hardest(scores, self.dataset, self.s)
        old = self.tasks[TaskId.CHEAP].view
        assert new_view.t_pos == old.t_pos and new_view.t_neg == old.t_neg
        self.tasks[TaskId.CHEAP].view = new_view
        self.adjustment_log.append(
            AdjustmentEvent(generation=generation, view_fingerprint=new_view.fingerprint())
        )
        return new_view


def build_environment(
    dataset: Dataset,
    s=DEFAULT_RATE,
    lam: float = DEFAULT_LAM,
    delta: int | None = DEFAULT_DELTA,
    budget=DEFAULT_BUDGET,
    seed=None,
) -> Environment:
    """Construct the cheap/expensive task pair over one training dataset.

    ``seed`` drives the initial stratified subsample and accepts anything
    ``numpy.random.default_rng`` does.
    """
    return Environment(dataset, s, lam, delta, budget, seed)
