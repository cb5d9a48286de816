"""In-memory span tracing around the library's layer boundaries.

Spans are recorded by wrappers that the benchmark installs from outside
the package: each wrapper is rebound at the module or class attribute its
caller looks up, so the library itself is unchanged. Every span records
its name, start, end, parent span id, run id and thread id; appends are
guarded by a lock because ``_eval_batch`` runs ``objective_batch`` in pool
threads. A pool thread has no open span of its own, so its spans take the
innermost open span of the tracing thread (the blocked ``_eval_batch``)
as parent.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import emtauc.analysis
import emtauc.environment
import emtauc.solvers
from emtauc.data import Dataset
from emtauc.environment import CostLedger, Environment, TaskSpec


@dataclasses.dataclass(slots=True)
class Span:
    id: int
    parent: int | None
    run: str
    thread: int
    name: str
    start: float
    end: float
    attrs: dict | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = ""
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else None
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _close(self, span_id, parent, stack, name, start, end, attrs) -> None:
        stack.pop()
        span = Span(span_id, parent, self.run, threading.get_ident(), name, start, end, attrs)
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        """Span around a block; the block may add to ``attrs``."""
        attrs = {} if attrs is None else attrs
        span_id, parent, stack = self._open()
        start = perf_counter()
        try:
            yield attrs
        finally:
            self._close(span_id, parent, stack, name, start, perf_counter(), attrs)

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call; ``describe(args, result)``
        adds attributes after the clock has stopped."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                attrs = describe(args, result) if describe is not None and result is not None else None
                self._close(span_id, parent, stack, name, start, end, attrs)

        return traced

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({f: getattr(s, f) for f in Span.__slots__}) + "\n")


def _describe_objective_batch(args, result) -> dict:
    task, W = args[0], args[1]
    view = task.view
    pos, neg = view.pos_matrix, view.neg_matrix
    csr_bytes = sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in (pos, neg))
    rows = int(W.shape[0])
    return {
        "task": int(task.task_id),
        "rows": rows,
        "instances": view.n,
        "nnz": int(pos.nnz + neg.nnz),
        "bytes": int(csr_bytes + W.nbytes + 8 * rows * view.n),
    }


# (owner, attribute, span name); the owner is the namespace the caller
# reads the attribute from at call time.
_TARGETS = (
    (emtauc.solvers, "pm_mutation", "solvers.pm_mutation"),
    (emtauc.solvers, "sbx_crossover", "solvers.sbx_crossover"),
    (emtauc.solvers, "_population_stats", "solvers._population_stats"),
    (emtauc.solvers, "fit_transfer_map", "solvers.fit_transfer_map"),
    (emtauc.solvers, "_eval_batch", "solvers._eval_batch"),
    (emtauc.environment, "hardness_scores", "evaluation.hardness_scores"),
    (TaskSpec, "objective_batch", "evaluation.objective_batch"),
    (CostLedger, "charge", "environment.CostLedger.charge"),
    (Environment, "adjust_cheap_task", "environment.Environment.adjust_cheap_task"),
    (Dataset, "subset", "data.subset"),
    (emtauc.analysis, "build_environment", "environment.build_environment"),
    # Only effective for a serial run_benchmark: worker processes receive
    # the function by pickling, which bypasses this rebinding.
    (emtauc.analysis, "_execute_cell", "analysis._execute_cell"),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Rebind every target to a tracing wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, name in _TARGETS:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            describe = _describe_objective_batch if name == "evaluation.objective_batch" else None
            setattr(owner, attr, tracer.wrap(name, original, describe))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _union_length(children.get(s.id, []), s.start, s.end)
        for s in spans
    }
