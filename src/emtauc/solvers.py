"""Evolutionary solvers over a shared [0, 1]^D random-key space.

Three solvers share one variation pipeline (SBX crossover followed by
polynomial mutation) and one decode rule w = 2*keys - 1, and read their
knobs from ``config.SolverConfig`` (re-exported here):

* ``single_task_ga``: (mu+lambda) GA on the expensive task alone.
* ``mfea``: one unified population, implicit transfer through
  assortative mating controlled by a fixed random-mating probability.
* ``emea``: one population per task, explicit transfer every G
  generations through a learned linear map between the tasks' sorted
  populations.

Variation is one draw per kind per generation, then one SBX and PM pass
over the whole block (``_offspring``). ``_ga_offspring`` draws every
tournament contestant in one call and then every pair's uniforms in one;
``_mfea_offspring`` draws the pairing permutation, then every pair's rmp
and skill coins, used or not, then the uniforms. No draw depends on a
child's value, and the two kernels take no generator.

``dispatch_solver`` is the one entry point and the one driver loop. Each
solver is a generator that keeps only its policy (mating, selection,
adjustment, transfer) and yields its best cheap objective and adjust flag
once after initialisation and once per generation. The driver turns every
yield into a ``TracePoint``, so trace point 0 is initialisation and point t
is generation t; it stops after the first point recorded with the budget
exhausted.

``_evaluate`` is the only place that evaluates, charges and archives:
every solver hands it a batch, it charges the batch with one
``CostLedger.charge`` call, in index order, the evaluation that crosses the
budget completes and is recorded, and the run then stops. Rows past that
point are never charged and never enter a population.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import SolverConfig
from .environment import Environment, TaskId, TaskSpec

_BOTH_TASKS = [TaskId.CHEAP, TaskId.EXPENSIVE]


def decode_weights(keys) -> np.ndarray:
    """Map random keys in [0, 1] to weights in [-1, 1]: w = 2*keys - 1."""
    return 2.0 * np.asarray(keys, dtype=np.float64) - 1.0


def sbx_crossover(p1, p2, u, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover gene by gene on the uniforms ``u``, which
    have the parents' shape; children clamped to [0, 1].

    Identical parents produce bit-identical children.
    """
    # one power over both branches' bases: each gene's beta is the same
    # power of the same base as with one power per branch
    beta = np.where(u <= 0.5, 2.0 * u, 0.5 / (1.0 - u)) ** (1.0 / (eta + 1.0))
    mean = 0.5 * (p1 + p2)
    spread = 0.5 * beta * (p1 - p2)
    return (mean + spread).clip(0.0, 1.0), (mean - spread).clip(0.0, 1.0)


def pm_mutation(g, mask_u, u, eta: float, prob: float) -> np.ndarray:
    """Polynomial mutation gene by gene, in [0, 1]: a gene mutates where its
    ``mask_u`` uniform is below ``prob`` and takes its step from ``u``."""
    low = u <= 0.5
    step = np.where(low, 2.0 * u, 2.0 * (1.0 - u)) ** (1.0 / (eta + 1.0))
    child = np.where(low, g + (step - 1.0) * g, g + (1.0 - step) * (1.0 - g))
    return np.where(mask_u < prob, child, g).clip(0.0, 1.0)


# ridge added to the diagonal of P P^T in ``fit_transfer_map``
_RIDGE = 1e-6


@dataclass(frozen=True)
class TransferMap:
    """Linear map between two tasks' key spaces; application clamps."""

    matrix: np.ndarray

    def apply(self, genomes) -> np.ndarray:
        G = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        return np.clip(G @ self.matrix.T, 0.0, 1.0)


def fit_transfer_map(P, Q) -> TransferMap:
    """Ridge-regularized least squares map M minimizing ||M P - Q||_F.

    ``P`` and ``Q`` hold one genome per column, sorted by their own task
    objective (best first). Only the first min(m_P, m_Q) columns are used.
    M = Q P^T (P P^T + ``_RIDGE`` I)^{-1}.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.ndim != 2 or Q.ndim != 2:
        raise ValueError("P and Q must be 2-D (dim x m) matrices")
    m = min(P.shape[1], Q.shape[1])
    if m == 0:
        raise ValueError("P and Q need at least one column")
    P = P[:, :m]
    Q = Q[:, :m]
    A = P @ P.T
    A[np.diag_indices_from(A)] += _RIDGE
    M = np.linalg.solve(A, P @ Q.T).T
    return TransferMap(matrix=M)


@dataclass(frozen=True)
class TracePoint:
    """One convergence sample; costs are exact Fractions."""

    generation: int
    cumulative_cost: Fraction
    best_objective_expensive: float | None
    best_auc_expensive: float | None
    best_objective_cheap: float | None
    adjust_event: bool


@dataclass
class RunResult:
    kind: str
    best_weights: np.ndarray | None
    best_objective: float | None
    trace: list[TracePoint]


def _eval_batch(task: TaskSpec, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decode and evaluate a batch of genomes, a float64 (k, dim) array, on
    one task: each row's objective and the loss fraction in it. The keys
    are decoded as ``decode_weights`` does, without its conversion."""
    return task.objective_batch(2.0 * keys - 1.0)


def _population_stats(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorial ranks, skill factors, and scalar fitness from a cost table.

    ``costs`` is (m, 2) with inf marking unevaluated entries. Ranks are
    1-based per task (unevaluated rank last, ties keep index order); the
    skill factor is the argmin rank among evaluated tasks (lower task id on
    ties) and scalar fitness is 1/rank on the skill task.
    """
    m = costs.shape[0]
    ranks = np.empty((m, 2), dtype=np.int64)
    ranks[np.argsort(costs, axis=0, kind="stable"), [0, 1]] = np.arange(1, m + 1)[:, np.newaxis]
    masked = np.where(costs == np.inf, np.inf, ranks)
    # a row with no evaluated task has best rank inf and fitness 1/inf = 0
    return ranks, masked.argmin(axis=1), 1.0 / masked.min(axis=1)


def _evaluate(env: Environment, task_ids, keys: np.ndarray) -> tuple[np.ndarray, int]:
    """Evaluate, charge and archive a batch of genomes.

    ``task_ids`` is one TaskId for the whole batch or one per row. Each
    task's rows are evaluated together, cheap rows first, on the task as
    ``env`` holds it now. The batch is then charged in one
    ``CostLedger.charge`` call, in index order until the ledger is
    exhausted; the row that crosses the budget completes. The first
    minimum among the charged expensive rows is archived with its loss
    fraction, which is what archiving them one by one would keep. Returns
    the values and the number of charged rows, which are the leading ones;
    rows left uncharged read inf, as if never evaluated.
    """
    single = isinstance(task_ids, (int, np.integer))
    if single:
        # one task: the batch is evaluated as it is, with no per-row ids
        if not keys.shape[0]:
            return np.empty(0), 0
        values, losses = _eval_batch(env.tasks[task_ids], keys)
        charged = [task_ids] * keys.shape[0]
    else:
        tids = np.asarray(task_ids, dtype=np.int64)
        values = np.empty(keys.shape[0])
        losses = np.empty(keys.shape[0])
        for tid in (0, 1):
            rows = (tids == tid).nonzero()[0]
            if rows.size:
                # a batch of one task is evaluated as it is, without a gather
                values[rows], losses[rows] = _eval_batch(env.tasks[tid], keys if rows.size == tids.size else keys[rows])
        charged = tids.tolist()
    ledger = env.ledger
    kept = 0 if ledger.exhausted else ledger.charge(charged)
    values[kept:] = np.inf
    best = None
    if not single:
        expensive = tids[:kept].nonzero()[0]
        if expensive.size:
            best = expensive[np.argmin(values[expensive])]
    elif kept and task_ids == TaskId.EXPENSIVE:
        # every charged row is expensive, and they are the leading ones
        best = np.argmin(values[:kept])
    if best is not None:
        env.record_expensive(decode_weights(keys[best]), values[best], losses[best])
    return values, kept


def _finite_min(values: np.ndarray) -> float | None:
    finite = values[np.isfinite(values)]
    return float(finite.min()) if finite.size else None


def _archive_trace_point(
    env: Environment, generation: int, best_cheap: float | None, adjust_event: bool
) -> TracePoint:
    return TracePoint(
        generation=generation,
        cumulative_cost=env.ledger.spent,
        best_objective_expensive=env.best_expensive_objective,
        best_auc_expensive=env.best_expensive_auc,
        best_objective_cheap=best_cheap,
        adjust_event=adjust_event,
    )


def _offspring(genomes, parents, cross, u, config: SolverConfig, pm_prob: float) -> np.ndarray:
    """Children of parent pairs: SBX on the crossing pairs, then PM on every
    child, each in one pass over the whole block.

    ``parents`` holds (pairs, 2) indices into ``genomes`` and ``cross`` one
    flag per pair. ``u`` is (pairs, 5, dim) and holds each pair's uniforms in
    draw order: row 0 for SBX, rows 1 and 2 for child 1's mutation mask and
    step, rows 3 and 4 for child 2's. Every pair draws all five rows, so an
    unpaired last parent draws a full row block too. A pair that does not
    cross leaves row 0 unused and its children are its parents, mutated; an
    unpaired last parent is the first of a pair that does not cross, and
    only its first child is kept. Children 2i and 2i + 1 come from pair i,
    and the first len(genomes) are returned.
    """
    block = genomes[parents]
    # SBX runs on every pair, and a pair that does not cross keeps its
    # parents: u < 1, so its unused children are finite
    first, second = sbx_crossover(block[:, 0], block[:, 1], u[:, 0], config.sbx_eta)
    crossing = cross[:, np.newaxis]
    block[:, 0] = np.where(crossing, first, block[:, 0])
    block[:, 1] = np.where(crossing, second, block[:, 1])
    children = pm_mutation(block, u[:, 1::2], u[:, 2::2], config.pm_eta, pm_prob)
    return children.reshape(-1, genomes.shape[1])[: genomes.shape[0]]


def _ga_offspring(genomes: np.ndarray, objectives: np.ndarray, config: SolverConfig, pm_prob: float, rng) -> np.ndarray:
    """Binary-tournament parents and their SBX+PM children. One draw takes
    the two contestants of each pair's two tournaments, ties going to the
    first; a second takes every pair's uniforms."""
    n, dim = genomes.shape
    pairs = (n + 1) // 2
    contestants = rng.integers(n, size=(pairs, 2, 2))
    first, second = contestants[..., 0], contestants[..., 1]
    parents = np.where(objectives[first] <= objectives[second], first, second)
    u = rng.random((pairs, 5, dim))
    return _offspring(genomes, parents, np.arange(pairs) < n // 2, u, config, pm_prob)


def _ga_generation(
    env: Environment, genomes: np.ndarray, objectives: np.ndarray, tid: TaskId,
    config: SolverConfig, pm_prob: float, rng,
) -> tuple[np.ndarray, np.ndarray]:
    """One (mu+lambda) generation on task ``tid``: binary-tournament parents,
    SBX+PM children, then the len(genomes) best of parents and charged
    children by objective survive; ties keep parents, then index order."""
    children = _ga_offspring(genomes, objectives, config, pm_prob, rng)
    values, kept = _evaluate(env, tid, children)
    merged_g = np.vstack([genomes, children[:kept]])
    merged_o = np.concatenate([objectives, values[:kept]])
    order = np.argsort(merged_o, kind="stable")[: genomes.shape[0]]
    return merged_g[order], merged_o[order]


def _single_task_ga(env: Environment, config: SolverConfig, rng, n: int, pm_prob: float):
    """(mu+lambda) GA on the expensive task alone."""
    genomes = rng.random((n, env.dataset.dim))
    objectives, _ = _evaluate(env, TaskId.EXPENSIVE, genomes)
    while True:
        yield None, False
        genomes, objectives = _ga_generation(env, genomes, objectives, TaskId.EXPENSIVE, config, pm_prob, rng)


def _mfea_offspring(
    genomes: np.ndarray, skills: np.ndarray, config: SolverConfig, pm_prob: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Assortative mating with selective imitation.

    Parents are paired by a random permutation. Same-skill pairs always
    cross; cross-skill pairs cross with probability rmp, otherwise each
    parent mutates alone and passes its skill on. Crossover children
    inherit either parent's skill with equal probability.
    """
    n, dim = genomes.shape
    pairs = (n + 1) // 2
    parents = np.resize(rng.permutation(n), (pairs, 2))
    # per pair: the rmp coin, then each child's skill coin, drawn whether
    # or not the pair uses them
    coins = rng.random((pairs, 3))
    u = rng.random((pairs, 5, dim))
    own = skills[parents]
    cross = ((own[:, 0] == own[:, 1]) | (coins[:, 0] < config.rmp)) & (np.arange(pairs) < n // 2)
    inherited = np.where(coins[:, 1:] < 0.5, own[:, :1], own[:, 1:])
    child_skills = np.where(cross[:, np.newaxis], inherited, own).reshape(-1)[:n]
    return _offspring(genomes, parents, cross, u, config, pm_prob), child_skills


def _maybe_adjust(env: Environment, generation: int) -> bool:
    """Rebuild the cheap view from the archived best expensive weights if
    ``generation`` is a multiple of ``env.delta``; returns whether it did."""
    if env.delta is None or generation % env.delta or env.best_expensive_weights is None:
        return False
    env.adjust_cheap_task(env.best_expensive_weights, generation=generation)
    return True


def _mfea(env: Environment, config: SolverConfig, rng, n: int, pm_prob: float):
    """Multifactorial EA over both tasks with a fixed random-mating
    probability and periodic cheap-task adjustment.

    The initial population is evaluated on both tasks (charged); offspring
    are evaluated only on their skill task. Every ``env.delta`` generations
    the cheap view is rebuilt from the archived best expensive weights, all
    cheap objectives are invalidated, and the CHEAP-skilled cohort is
    re-evaluated at one cheap unit each.
    """
    cheap = TaskId.CHEAP.value
    genomes = rng.random((n, env.dataset.dim))
    values, _ = _evaluate(env, np.repeat(_BOTH_TASKS, n), np.vstack([genomes, genomes]))
    costs = values.reshape(2, n).T
    _, skills, _ = _population_stats(costs)
    adjust_event = False
    for t in itertools.count(1):
        yield _finite_min(costs[:, cheap]), adjust_event
        adjust_event = _maybe_adjust(env, t)
        if adjust_event:
            costs[:, cheap] = np.inf
            refresh = np.flatnonzero(skills == cheap)
            costs[refresh, cheap], _ = _evaluate(env, TaskId.CHEAP, genomes[refresh])
            _, skills, _ = _population_stats(costs)

        if not env.ledger.exhausted:
            child_genomes, child_skills = _mfea_offspring(genomes, skills, config, pm_prob, rng)
            values, kept = _evaluate(env, child_skills, child_genomes)
            child_costs = np.full((n, 2), np.inf)
            child_costs[np.arange(n), child_skills] = values
            merged_genomes = np.vstack([genomes, child_genomes[:kept]])
            merged_costs = np.vstack([costs, child_costs[:kept]])
            _, _, merged_fitness = _population_stats(merged_costs)
            order = np.argsort(-merged_fitness, kind="stable")[:n]
            genomes = merged_genomes[order]
            costs = merged_costs[order]
            _, skills, _ = _population_stats(costs)


def _emea(env: Environment, config: SolverConfig, rng, n: int, pm_prob: float):
    """Two per-task GA populations with explicit transfer.

    Every ``transfer_interval`` generations a linear map is fit between the
    objective-sorted populations in both directions; each task's top
    ``transfer_count`` individuals are mapped into the other task, evaluated
    there (charged), and overwrite that population's current worst members.
    Cheap-task adjustment refreshes the whole cheap population.
    """
    ledger = env.ledger
    dim = env.dataset.dim
    # Row i of ``genomes`` and ``objectives`` is the population of TaskId(i).
    genomes = rng.random((2, n, dim))
    values, _ = _evaluate(env, np.repeat(_BOTH_TASKS, n), genomes.reshape(2 * n, dim))
    objectives = values.reshape(2, n)
    adjust_event = False
    for t in itertools.count(1):
        yield _finite_min(objectives[0]), adjust_event
        adjust_event = _maybe_adjust(env, t)
        if adjust_event:
            objectives[0], _ = _evaluate(env, TaskId.CHEAP, genomes[0])

        for tid in TaskId:
            if ledger.exhausted:
                break
            genomes[tid], objectives[tid] = _ga_generation(
                env, genomes[tid], objectives[tid], tid, config, pm_prob, rng
            )

        if not ledger.exhausted and config.transfer_count > 0 and t % config.transfer_interval == 0:
            count = min(config.transfer_count, n)
            sorted_pops = [genomes[i][np.argsort(objectives[i], kind="stable")].T for i in (0, 1)]
            top_genomes = [pop[:, :count].T.copy() for pop in sorted_pops]
            for target in TaskId:
                if ledger.exhausted:
                    break
                source = 1 - target
                mapping = fit_transfer_map(sorted_pops[source], sorted_pops[target])
                candidates = mapping.apply(top_genomes[source])
                values, kept = _evaluate(env, target, candidates)
                slots = np.argsort(objectives[target], kind="stable")[::-1][:kept]
                genomes[target][slots] = candidates[:kept]
                objectives[target][slots] = values[:kept]


_SOLVERS = {"single_task_ga": _single_task_ga, "mfea": _mfea, "emea": _emea}


def dispatch_solver(env: Environment, config: SolverConfig, jobs: int = 1) -> RunResult:
    """Run the configured solver against an environment and trace it.

    The single-task baseline optimizes the expensive task directly at the
    same budget so comparisons are cost-fair. Every evaluation runs on the
    calling thread; ``jobs`` is accepted and has no effect.
    """
    solver = _SOLVERS.get(config.kind)
    if solver is None:
        raise ValueError(f"unknown solver kind {config.kind!r}")
    rng = np.random.default_rng(config.seed)
    pm_prob = config.pm_prob if config.pm_prob is not None else 1.0 / env.dataset.dim
    trace = []
    generations = solver(env, config, rng, config.resolved_pop_size(), pm_prob)
    for generation, (best_cheap, adjust_event) in enumerate(generations):
        trace.append(_archive_trace_point(env, generation, best_cheap, adjust_event))
        if env.ledger.exhausted:
            break
    return RunResult(config.kind, env.best_expensive_weights, env.best_expensive_objective, trace)
