"""Evolutionary solvers over a shared [0, 1]^D random-key space.

Three solvers share one variation pipeline (SBX crossover followed by
polynomial mutation) and one decode rule w = 2*keys - 1:

* ``run_single_task_ga``: (mu+lambda) GA on the expensive task alone.
* ``run_mfea``: one unified population, implicit transfer through
  assortative mating controlled by a fixed random-mating probability.
* ``run_emea``: one population per task, explicit transfer every G
  generations through a learned linear map between the tasks' sorted
  populations.

All random draws happen in the serial orchestration path; objective
batches are pure and may be evaluated concurrently without changing any
result. ``_evaluate`` is the only place that evaluates, charges and
archives: every solver hands it a batch, it charges the rows serially in
index order, the evaluation that crosses the budget completes and is
recorded, and the run then stops. Rows past that point are never charged
and never enter a population.

A run with jobs > 1 owns one thread pool for its whole length: each
``run_*`` opens it on entry and joins its workers on exit, also when an
evaluation raises. With jobs <= 1 no pool or thread is created.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .environment import Environment, TaskId, TaskSpec

SOLVER_KINDS = ("single_task_ga", "mfea", "emea")
_DEFAULT_POP = {"single_task_ga": 10, "mfea": 20, "emea": 10}
_BOTH_TASKS = [TaskId.CHEAP, TaskId.EXPENSIVE]


@dataclass(frozen=True)
class SolverConfig:
    """Algorithmic knobs shared by all solvers.

    ``pop_size`` of None picks the solver's default (20 for mfea, else 10).
    ``pm_prob`` of None resolves to 1/dim at run time. ``seed`` accepts
    anything ``numpy.random.default_rng`` does.
    """

    kind: str
    pop_size: int | None = None
    rmp: float = 0.3
    transfer_interval: int = 5
    transfer_count: int = 2
    sbx_eta: float = 15.0
    pm_eta: float = 15.0
    pm_prob: float | None = None
    seed: object = None

    def __post_init__(self) -> None:
        if self.kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {self.kind!r}; expected one of {SOLVER_KINDS}")
        if self.pop_size is not None and (
            not isinstance(self.pop_size, int) or isinstance(self.pop_size, bool) or self.pop_size < 2
        ):
            raise ValueError(f"pop_size must be an integer >= 2, got {self.pop_size!r}")
        if not 0.0 <= self.rmp <= 1.0:
            raise ValueError(f"rmp must lie in [0, 1], got {self.rmp!r}")
        if not isinstance(self.transfer_interval, int) or isinstance(self.transfer_interval, bool) or self.transfer_interval < 1:
            raise ValueError(f"transfer_interval must be an integer >= 1, got {self.transfer_interval!r}")
        if not isinstance(self.transfer_count, int) or isinstance(self.transfer_count, bool) or self.transfer_count < 0:
            raise ValueError(f"transfer_count must be an integer >= 0, got {self.transfer_count!r}")
        if not self.sbx_eta > 0 or not self.pm_eta > 0:
            raise ValueError("distribution indices must be positive")
        if self.pm_prob is not None and not 0.0 <= self.pm_prob <= 1.0:
            raise ValueError(f"pm_prob must lie in [0, 1], got {self.pm_prob!r}")

    def resolved_pop_size(self) -> int:
        return self.pop_size if self.pop_size is not None else _DEFAULT_POP[self.kind]


def decode_weights(keys) -> np.ndarray:
    """Map random keys in [0, 1] to weights in [-1, 1]: w = 2*keys - 1."""
    return 2.0 * np.asarray(keys, dtype=np.float64) - 1.0


def sbx_crossover(p1, p2, eta: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover, children clamped to [0, 1].

    Identical parents produce bit-identical children.
    """
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


def pm_mutation(genome, eta: float, prob: float, rng) -> np.ndarray:
    """Polynomial mutation per gene with probability ``prob``, in [0, 1].

    Draws two uniforms per gene regardless of the mask so the stream
    advance is independent of outcomes.
    """
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


@dataclass(frozen=True)
class TransferMap:
    """Linear map between two tasks' key spaces; application clamps."""

    matrix: np.ndarray

    def apply(self, genomes) -> np.ndarray:
        G = np.atleast_2d(np.asarray(genomes, dtype=np.float64))
        return np.clip(G @ self.matrix.T, 0.0, 1.0)


def fit_transfer_map(P, Q, epsilon: float = 1e-6) -> TransferMap:
    """Ridge-regularized least squares map M minimizing ||M P - Q||_F.

    ``P`` and ``Q`` hold one genome per column, sorted by their own task
    objective (best first). Only the first min(m_P, m_Q) columns are used.
    M = Q P^T (P P^T + epsilon I)^{-1}.
    """
    P = np.asarray(P, dtype=np.float64)
    Q = np.asarray(Q, dtype=np.float64)
    if P.ndim != 2 or Q.ndim != 2:
        raise ValueError("P and Q must be 2-D (dim x m) matrices")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = min(P.shape[1], Q.shape[1])
    if m == 0:
        raise ValueError("P and Q need at least one column")
    P = P[:, :m]
    Q = Q[:, :m]
    A = P @ P.T
    A[np.diag_indices_from(A)] += epsilon
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


def _eval_pool(jobs: int):
    """Context manager for a run's evaluation pool: ``jobs`` threads, or
    ``None`` (no threads) when jobs <= 1. Leaving it joins the workers."""
    if jobs <= 1:
        return nullcontext()
    return ThreadPoolExecutor(max_workers=jobs, thread_name_prefix="emtauc-eval")


def _eval_batch(
    task: TaskSpec, keys: np.ndarray, jobs: int, pool: ThreadPoolExecutor | None
) -> np.ndarray:
    """Decode and evaluate a batch of genomes on one task.

    With a pool the batch is split into up to ``jobs`` parts evaluated on
    the run's threads; results are bit-identical to the serial path
    because the kernel treats every row independently.
    """
    W = decode_weights(np.atleast_2d(keys))
    if pool is None or W.shape[0] < 2:
        return task.objective_batch(W)
    parts = np.array_split(np.arange(W.shape[0]), min(jobs, W.shape[0]))
    futures = [pool.submit(task.objective_batch, W[p]) for p in parts]
    return np.concatenate([f.result() for f in futures])


def _population_stats(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factorial ranks, skill factors, and scalar fitness from a cost table.

    ``costs`` is (m, 2) with inf marking unevaluated entries. Ranks are
    1-based per task (unevaluated rank last, ties keep index order); the
    skill factor is the argmin rank among evaluated tasks (lower task id on
    ties) and scalar fitness is 1/rank on the skill task.
    """
    m = costs.shape[0]
    ranks = np.empty((m, 2), dtype=np.int64)
    for tid in (0, 1):
        order = np.argsort(costs[:, tid], kind="stable")
        ranks[order, tid] = np.arange(1, m + 1)
    masked = ranks.astype(np.float64)
    masked[~np.isfinite(costs)] = np.inf
    skills = np.argmin(masked, axis=1).astype(np.int64)
    best_rank = masked[np.arange(m), skills]
    fitness = np.where(np.isfinite(best_rank), 1.0 / best_rank, 0.0)
    return ranks, skills, fitness


def _evaluate(
    env: Environment, task_ids, keys: np.ndarray, jobs: int, pool: ThreadPoolExecutor | None
) -> tuple[np.ndarray, int]:
    """Evaluate, charge and archive a batch of genomes.

    ``task_ids`` is one TaskId for the whole batch or one per row. Each
    task's rows are evaluated together, cheap rows first, on the task as
    ``env`` holds it now. The rows are then charged in index order until the
    ledger is exhausted; the row that crosses the budget completes. Charged
    expensive rows are archived. Returns the values and the number of
    charged rows, which are the leading ones; rows left uncharged read inf,
    as if never evaluated.
    """
    tids = np.broadcast_to(np.asarray(task_ids, dtype=np.int64), keys.shape[:1])
    values = np.empty(keys.shape[0])
    for tid in TaskId:
        rows = np.flatnonzero(tids == tid)
        if rows.size:
            values[rows] = _eval_batch(env.tasks[tid], keys[rows], jobs, pool)
    ledger = env.ledger
    kept = 0
    for tid in tids.tolist():
        if ledger.exhausted:
            break
        ledger.charge(tid)
        if tid == TaskId.EXPENSIVE:
            env.record_expensive(decode_weights(keys[kept]), values[kept])
        kept += 1
    values[kept:] = np.inf
    return values, kept


def _truncate(
    genomes: np.ndarray, objectives: np.ndarray, children: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(mu+lambda) survival: the len(genomes) best of parents and children
    by objective; ties keep parents, then index order."""
    pool_g = np.vstack([genomes, children])
    pool_o = np.concatenate([objectives, values])
    order = np.argsort(pool_o, kind="stable")[: genomes.shape[0]]
    return pool_g[order], pool_o[order]


def _finite_min(values: np.ndarray) -> float | None:
    finite = values[np.isfinite(values)]
    return float(finite.min()) if finite.size else None


def _archive_trace_point(
    env: Environment, generation: int, best_cheap: float | None, adjust_event: bool = False
) -> TracePoint:
    obj = env.best_expensive_objective
    if obj is None:
        best_obj, best_auc = None, None
    else:
        w = env.best_expensive_weights
        best_obj = obj
        best_auc = 1.0 - (obj - 0.5 * env.lam * float(w @ w))
    return TracePoint(
        generation=generation,
        cumulative_cost=env.ledger.spent,
        best_objective_expensive=best_obj,
        best_auc_expensive=best_auc,
        best_objective_cheap=best_cheap,
        adjust_event=adjust_event,
    )


def _tournament(rng, objectives: np.ndarray) -> int:
    i, j = rng.integers(objectives.shape[0], size=2)
    return int(i) if objectives[i] <= objectives[j] else int(j)


def _ga_offspring(genomes: np.ndarray, objectives: np.ndarray, config: SolverConfig, pm_prob: float, rng) -> np.ndarray:
    n = genomes.shape[0]
    children = np.empty_like(genomes)
    k = 0
    while k + 1 < n:
        a = _tournament(rng, objectives)
        b = _tournament(rng, objectives)
        c1, c2 = sbx_crossover(genomes[a], genomes[b], config.sbx_eta, rng)
        children[k] = pm_mutation(c1, config.pm_eta, pm_prob, rng)
        children[k + 1] = pm_mutation(c2, config.pm_eta, pm_prob, rng)
        k += 2
    if k < n:
        a = _tournament(rng, objectives)
        children[k] = pm_mutation(genomes[a], config.pm_eta, pm_prob, rng)
    return children


def run_single_task_ga(env: Environment, config: SolverConfig, jobs: int = 1) -> RunResult:
    """(mu+lambda) GA on the expensive task alone: binary-tournament parents,
    SBX+PM children, elitist truncation by objective.
    """
    with _eval_pool(jobs) as pool:
        rng = np.random.default_rng(config.seed)
        n = config.resolved_pop_size()
        dim = env.dataset.dim
        pm_prob = config.pm_prob if config.pm_prob is not None else 1.0 / dim

        genomes = rng.random((n, dim))
        objectives, _ = _evaluate(env, TaskId.EXPENSIVE, genomes, jobs, pool)
        trace = [_archive_trace_point(env, 0, None)]

        t = 1
        while not env.ledger.exhausted:
            children = _ga_offspring(genomes, objectives, config, pm_prob, rng)
            values, kept = _evaluate(env, TaskId.EXPENSIVE, children, jobs, pool)
            genomes, objectives = _truncate(genomes, objectives, children[:kept], values[:kept])
            trace.append(_archive_trace_point(env, t, None))
            t += 1

        return RunResult("single_task_ga", env.best_expensive_weights, env.best_expensive_objective, trace)


def _mfea_offspring(
    genomes: np.ndarray, skills: np.ndarray, config: SolverConfig, pm_prob: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Assortative mating with selective imitation.

    Parents are paired by a random permutation. Same-skill pairs always
    cross; cross-skill pairs cross with probability rmp, otherwise each
    parent mutates alone and passes its skill on. Crossover children
    inherit either parent's skill with equal probability.
    """
    n = genomes.shape[0]
    child_genomes = np.empty_like(genomes)
    child_skills = np.empty(n, dtype=np.int64)
    perm = rng.permutation(n)
    k = 0
    while k + 1 < n:
        a, b = perm[k], perm[k + 1]
        if skills[a] == skills[b] or rng.random() < config.rmp:
            c1, c2 = sbx_crossover(genomes[a], genomes[b], config.sbx_eta, rng)
            child_genomes[k] = pm_mutation(c1, config.pm_eta, pm_prob, rng)
            child_genomes[k + 1] = pm_mutation(c2, config.pm_eta, pm_prob, rng)
            child_skills[k] = skills[a] if rng.random() < 0.5 else skills[b]
            child_skills[k + 1] = skills[a] if rng.random() < 0.5 else skills[b]
        else:
            child_genomes[k] = pm_mutation(genomes[a], config.pm_eta, pm_prob, rng)
            child_genomes[k + 1] = pm_mutation(genomes[b], config.pm_eta, pm_prob, rng)
            child_skills[k] = skills[a]
            child_skills[k + 1] = skills[b]
        k += 2
    if k < n:
        a = perm[k]
        child_genomes[k] = pm_mutation(genomes[a], config.pm_eta, pm_prob, rng)
        child_skills[k] = skills[a]
    return child_genomes, child_skills


def _maybe_adjust(env: Environment, generation: int) -> bool:
    """Rebuild the cheap view from the archived best expensive weights if
    ``generation`` is a multiple of ``env.delta``; returns whether it did."""
    if env.delta is None or generation % env.delta or env.best_expensive_weights is None:
        return False
    env.adjust_cheap_task(env.best_expensive_weights, generation=generation)
    return True


def run_mfea(env: Environment, config: SolverConfig, jobs: int = 1) -> RunResult:
    """Multifactorial EA over both tasks with a fixed random-mating
    probability and periodic cheap-task adjustment.

    The initial population is evaluated on both tasks (charged); offspring
    are evaluated only on their skill task. Every ``env.delta`` generations
    the cheap view is rebuilt from the archived best expensive weights, all
    cheap objectives are invalidated, and the CHEAP-skilled cohort is
    re-evaluated at one cheap unit each.
    """
    with _eval_pool(jobs) as pool:
        rng = np.random.default_rng(config.seed)
        n = config.resolved_pop_size()
        dim = env.dataset.dim
        pm_prob = config.pm_prob if config.pm_prob is not None else 1.0 / dim
        cheap = TaskId.CHEAP.value

        genomes = rng.random((n, dim))
        values, _ = _evaluate(env, np.repeat(_BOTH_TASKS, n), np.vstack([genomes, genomes]), jobs, pool)
        costs = values.reshape(2, n).T
        _, skills, _ = _population_stats(costs)
        trace = [_archive_trace_point(env, 0, _finite_min(costs[:, cheap]))]

        t = 1
        while not env.ledger.exhausted:
            adjust_event = _maybe_adjust(env, t)
            if adjust_event:
                costs[:, cheap] = np.inf
                refresh = np.flatnonzero(skills == cheap)
                costs[refresh, cheap], _ = _evaluate(env, TaskId.CHEAP, genomes[refresh], jobs, pool)
                _, skills, _ = _population_stats(costs)

            if not env.ledger.exhausted:
                child_genomes, child_skills = _mfea_offspring(genomes, skills, config, pm_prob, rng)
                values, kept = _evaluate(env, child_skills, child_genomes, jobs, pool)
                child_costs = np.full((n, 2), np.inf)
                child_costs[np.arange(n), child_skills] = values
                pool_genomes = np.vstack([genomes, child_genomes[:kept]])
                pool_costs = np.vstack([costs, child_costs[:kept]])
                _, _, pool_fitness = _population_stats(pool_costs)
                order = np.argsort(-pool_fitness, kind="stable")[:n]
                genomes = pool_genomes[order]
                costs = pool_costs[order]
                _, skills, _ = _population_stats(costs)

            trace.append(_archive_trace_point(env, t, _finite_min(costs[:, cheap]), adjust_event))
            t += 1

        return RunResult("mfea", env.best_expensive_weights, env.best_expensive_objective, trace)


def run_emea(env: Environment, config: SolverConfig, jobs: int = 1) -> RunResult:
    """Two per-task GA populations with explicit transfer.

    Every ``transfer_interval`` generations a linear map is fit between the
    objective-sorted populations in both directions; each task's top
    ``transfer_count`` individuals are mapped into the other task, evaluated
    there (charged), and overwrite that population's current worst members.
    Cheap-task adjustment refreshes the whole cheap population.
    """
    with _eval_pool(jobs) as pool:
        rng = np.random.default_rng(config.seed)
        n = config.resolved_pop_size()
        dim = env.dataset.dim
        pm_prob = config.pm_prob if config.pm_prob is not None else 1.0 / dim
        ledger = env.ledger

        # Row i of ``genomes`` and ``objectives`` is the population of TaskId(i).
        genomes = rng.random((2, n, dim))
        values, _ = _evaluate(env, np.repeat(_BOTH_TASKS, n), genomes.reshape(2 * n, dim), jobs, pool)
        objectives = values.reshape(2, n)
        trace = [_archive_trace_point(env, 0, _finite_min(objectives[0]))]

        t = 1
        while not ledger.exhausted:
            adjust_event = _maybe_adjust(env, t)
            if adjust_event:
                objectives[0], _ = _evaluate(env, TaskId.CHEAP, genomes[0], jobs, pool)

            for tid in TaskId:
                if ledger.exhausted:
                    break
                children = _ga_offspring(genomes[tid], objectives[tid], config, pm_prob, rng)
                values, kept = _evaluate(env, tid, children, jobs, pool)
                genomes[tid], objectives[tid] = _truncate(
                    genomes[tid], objectives[tid], children[:kept], values[:kept]
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
                    values, kept = _evaluate(env, target, candidates, jobs, pool)
                    slots = np.argsort(objectives[target], kind="stable")[::-1][:kept]
                    genomes[target][slots] = candidates[:kept]
                    objectives[target][slots] = values[:kept]

            trace.append(_archive_trace_point(env, t, _finite_min(objectives[0]), adjust_event))
            t += 1

        return RunResult("emea", env.best_expensive_weights, env.best_expensive_objective, trace)


def dispatch_solver(env: Environment, config: SolverConfig, jobs: int = 1) -> RunResult:
    """Run the configured solver against an environment.

    The single-task baseline optimizes the expensive task directly at the
    same budget so comparisons are cost-fair.
    """
    if config.kind == "single_task_ga":
        return run_single_task_ga(env, config, jobs=jobs)
    if config.kind == "mfea":
        return run_mfea(env, config, jobs=jobs)
    if config.kind == "emea":
        return run_emea(env, config, jobs=jobs)
    raise ValueError(f"unknown solver kind {config.kind!r}")
