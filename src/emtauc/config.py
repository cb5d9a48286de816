"""Typed run configuration parsed from JSON dicts.

Each field of a config dataclass is one JSON key. Its metadata holds the
parser of the raw value and the JSON key where that differs from the field
name (``lam`` is ``"lambda"``); a field without a default is required.
``from_dict`` walks this table strictly (unknown and missing keys are
errors, and every ConfigError names the key path) and ``echo`` walks it to
write the manifest's ``config`` block.

``SolverConfig`` is in the same table, and its ``__post_init__`` runs each
key's parser, so JSON and Python construction reject the same values; its
``seed`` is not a key. This module imports only the data and environment
layers, and the solver and analysis layers take their config types from it.
"""
from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from itertools import product
from pathlib import Path

from .data import DataError, as_rate
from .environment import DEFAULT_BUDGET, DEFAULT_DELTA, DEFAULT_LAM, DEFAULT_RATE, as_budget

SOLVER_KINDS = ("single_task_ga", "mfea", "emea")
_DEFAULT_POP = {"single_task_ga": 10, "mfea": 20, "emea": 10}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _int(minimum: int):
    def parse(value, where: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{where}: must be >= {minimum}, got {value}")
        return value

    return parse


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(
            f"{where}: expected a finite number, got an integer too large for a float"
        ) from None
    if not math.isfinite(number):
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def _in_unit_interval(value, where: str) -> float:
    number = _as_number(value, where)
    if not 0.0 <= number <= 1.0:
        raise ConfigError(f"{where}: must lie in [0, 1], got {value}")
    return number


def _positive(value, where: str) -> float:
    number = _as_number(value, where)
    if number <= 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return number


def _as_str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _optional(parse):
    return lambda value, where: None if value is None else parse(value, where)


def _from_data(coerce):
    """A parser for a data-layer coercion that raises DataError."""

    def parse(value, where: str):
        try:
            return coerce(value, where)
        except DataError as exc:
            raise ConfigError(str(exc)) from None

    return parse


_parse_rate = _from_data(as_rate)
_parse_budget = _from_data(as_budget)
_delta = _optional(_int(1))


def _list_of(parse_item):
    def parse(value, where: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: expected a non-empty list")
        return tuple(parse_item(v, f"{where}[{i}]") for i, v in enumerate(value))

    return parse


def _key(parse, default=MISSING, key: str | None = None):
    """A config field; without a default it is a required key."""
    return field(default=default, metadata={"parse": parse, "key": key})


def _key_fields(cls) -> list:
    """The fields of ``cls`` (a class or an instance) that are JSON keys."""
    return [f for f in fields(cls) if "parse" in f.metadata]


def _json_key(f) -> str:
    return f.metadata["key"] or f.name


def _parse_fields(cls, d, where: str):
    """Parse ``d`` into ``cls``. Fields are parsed in declaration order,
    which decides the error reported for a config with several."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    table = {_json_key(f): f for f in _key_fields(cls)}
    unknown = sorted(set(d) - set(table))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    values = {}
    for key, f in table.items():
        if key in d:
            values[f.name] = f.metadata["parse"](d[key], f"{where}.{key}")
        elif f.default is MISSING:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return cls(**values)


def echo(cfg) -> dict:
    """The manifest's ``config`` block, in a form ``from_dict`` reads back;
    solver blocks carry the resolved ``pop_size``."""
    return {_json_key(f): _echo_value(getattr(cfg, f.name)) for f in _key_fields(cfg)}


def _echo_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    if isinstance(value, SolverConfig):
        return dict(echo(value), pop_size=value.resolved_pop_size())
    if isinstance(value, BenchmarkEntry):
        return dict(_echo_value(value.config), label=value.label, delta=value.delta)
    return value


def _solver_kind(value, where: str) -> str:
    kind = _as_str(value, where)
    if kind not in SOLVER_KINDS:
        raise ConfigError(f"{where}: expected one of {', '.join(SOLVER_KINDS)}, got {kind!r}")
    return kind


@dataclass(frozen=True)
class SolverConfig:
    """Algorithmic knobs shared by all solvers.

    ``pop_size`` of None picks the solver's default (20 for mfea, else 10);
    JSON may leave the key out but not write null. ``pm_prob`` of None
    resolves to 1/dim at run time. ``seed`` is not a JSON key and accepts
    anything ``numpy.random.default_rng`` does.
    """

    kind: str = _key(_solver_kind)
    pop_size: int | None = _key(_int(2), None)
    rmp: float = _key(_in_unit_interval, 0.3)
    transfer_interval: int = _key(_int(1), 5)
    transfer_count: int = _key(_int(0), 2)
    sbx_eta: float = _key(_positive, 15.0)
    pm_eta: float = _key(_positive, 15.0)
    pm_prob: float | None = _key(_optional(_in_unit_interval), None)
    seed: object = None

    def __post_init__(self) -> None:
        # a key left at its default is valid, even a None that JSON may not write
        for f in _key_fields(self):
            value = getattr(self, f.name)
            if value is not f.default:
                f.metadata["parse"](value, f"SolverConfig.{f.name}")

    def resolved_pop_size(self) -> int:
        return self.pop_size if self.pop_size is not None else _DEFAULT_POP[self.kind]


_parse_solver = partial(_parse_fields, SolverConfig)


@dataclass(frozen=True)
class BenchmarkEntry:
    """One solver column in a sweep; ``delta`` is this entry's adjustment
    period (None disables adjustment)."""

    label: str
    config: SolverConfig
    delta: int | None = DEFAULT_DELTA


@dataclass(frozen=True)
class RunConfig:
    dataset: str = _key(_as_str)
    solver: SolverConfig = _key(_parse_solver)
    # no wall-clock fallback: a run must name its seed (file or --seed)
    seed: int = _key(_int(0))
    s: Fraction = _key(_parse_rate, DEFAULT_RATE)
    lam: float = _key(_as_number, DEFAULT_LAM, key="lambda")
    delta: int | None = _key(_delta, DEFAULT_DELTA)
    budget: Fraction = _key(_parse_budget, DEFAULT_BUDGET)
    output_dir: str | None = _key(_as_str, None)
    trace_stride: int = _key(_int(1), 1)
    jobs: int = _key(_int(1), 1)

    @classmethod
    def from_dict(cls, d) -> "RunConfig":
        return _parse_fields(cls, d, "run config")


def _safe_name(name: str) -> str:
    """``name`` as a file name: each run of other characters than letters,
    digits, ``.``, ``_`` and ``-`` becomes one ``_``."""
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)


def _check_safe_names(keys, what: str, where: str, name=str) -> None:
    """Distinct ``keys`` must keep distinct file names ``_safe_name(name(key))``:
    a benchmark names its cell directories after dataset names and solver
    labels."""
    seen = {}
    for key in keys:
        safe = _safe_name(name(key))
        other = seen.setdefault(safe, key)
        if other != key:
            raise ConfigError(f"{where}: {what} {other!r} and {key!r} share the directory name {safe!r}")


def _parse_benchmark_solver(d, where: str) -> BenchmarkEntry:
    """``label``, ``delta`` (else the top-level one) and the solver keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    inner = dict(d)
    label = _as_str(inner.pop("label"), f"{where}.label") if "label" in inner else None
    delta = _delta(inner.pop("delta"), f"{where}.delta") if "delta" in inner else None
    config = _parse_solver(inner, where)
    return BenchmarkEntry(label=label or config.kind, config=config, delta=delta)


def _parse_benchmark_solvers(value, where: str) -> tuple[BenchmarkEntry, ...]:
    solvers = _list_of(_parse_benchmark_solver)(value, where)
    if len({spec.label for spec in solvers}) != len(solvers):
        raise ConfigError(f"{where}: duplicate labels; set a distinct 'label' per entry")
    _check_safe_names([spec.label for spec in solvers], "labels", where)
    return solvers


def _parse_datasets(value, where: str) -> tuple[str, ...]:
    """Distinct paths with distinct file stems: a stem names the dataset
    in ``summary.csv`` and, made safe, in the cell directories."""
    datasets = _list_of(_as_str)(value, where)
    if len(set(datasets)) != len(datasets):
        raise ConfigError(f"{where}: duplicate entries")
    stems = [Path(path).stem for path in datasets]
    for i, stem in enumerate(stems):
        if stem in stems[:i]:
            raise ConfigError(f"{where}: duplicate dataset name {stem!r}")
    _check_safe_names(stems, "dataset names", where)
    return datasets


# kw_only lets the required ``solvers`` follow ``delta`` in parse order
@dataclass(frozen=True, kw_only=True)
class BenchmarkConfig:
    datasets: tuple[str, ...] = _key(_parse_datasets)
    seed: int = _key(_int(0))
    delta: int | None = _key(_delta, DEFAULT_DELTA)
    solvers: tuple[BenchmarkEntry, ...] = _key(_parse_benchmark_solvers)
    trials: int = _key(_int(1), 5)
    folds: int = _key(_int(2), 5)
    baseline: str | None = _key(_as_str, None)
    s: Fraction = _key(_parse_rate, DEFAULT_RATE)
    lam: float = _key(_as_number, DEFAULT_LAM, key="lambda")
    budget: Fraction = _key(_parse_budget, DEFAULT_BUDGET)
    output_dir: str | None = _key(_as_str, None)
    jobs: int = _key(_int(1), 1)

    @classmethod
    def from_dict(cls, d) -> "BenchmarkConfig":
        cfg = _parse_fields(cls, d, "benchmark config")
        labels = [spec.label for spec in cfg.solvers]
        if cfg.baseline is not None and cfg.baseline not in labels:
            raise ConfigError(
                f"benchmark config.baseline: {cfg.baseline!r} does not match any solver label"
            )
        # cells/{stem}__{label}__t{trial}_f{fold}: the suffix reads back from the end
        pairs = product([Path(path).stem for path in cfg.datasets], labels)
        _check_safe_names(pairs, "(dataset, label) pairs", "benchmark config", name="__".join)
        solvers = tuple(
            spec if "delta" in raw else replace(spec, delta=cfg.delta)
            for spec, raw in zip(cfg.solvers, d["solvers"])
        )
        return replace(cfg, solvers=solvers)


@dataclass(frozen=True)
class LandscapeConfig:
    dataset: str = _key(_as_str)
    s: Fraction = _key(_parse_rate, DEFAULT_RATE)
    lam: float = _key(_as_number, DEFAULT_LAM, key="lambda")
    n_points: int = _key(_int(2), 2000)
    repeats: int = _key(_int(1), 10)
    seed: int = _key(_int(0), 0)
    output_dir: str | None = _key(_as_str, None)

    @classmethod
    def from_dict(cls, d) -> "LandscapeConfig":
        return _parse_fields(cls, d, "landscape config")


@dataclass(frozen=True)
class CostModelConfig:
    dataset: str = _key(_as_str)
    rates: tuple[Fraction, ...] = _key(
        _list_of(_parse_rate), (DEFAULT_RATE, Fraction(1, 5), Fraction(1, 2), Fraction(1))
    )
    repetitions: int = _key(_int(1), 50)
    seed: int = _key(_int(0), 0)
    output_dir: str | None = _key(_as_str, None)

    @classmethod
    def from_dict(cls, d) -> "CostModelConfig":
        return _parse_fields(cls, d, "costmodel config")
