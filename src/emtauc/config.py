"""Typed run configuration parsed from JSON dicts.

Each field of a config dataclass is one JSON key. Its metadata holds the
parser of the raw value and the JSON key where that differs from the field
name (``lam`` is ``"lambda"``); a field without a default is required.
``from_dict`` walks this table strictly (unknown and missing keys are
errors, and every ConfigError names the key path) and ``echo`` walks it to
write the manifest's ``config`` block.
"""
from __future__ import annotations

import math
import re
from dataclasses import MISSING, dataclass, field, fields, replace
from fractions import Fraction
from pathlib import Path

from .analysis import BenchmarkEntry
from .data import DataError, as_rate
from .environment import as_budget
from .solvers import SOLVER_KINDS, SolverConfig


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


def _parse_keys(d, parsers: dict, required, where: str) -> dict:
    """Check ``d`` against a JSON key -> parser table; parse in table order."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    unknown = sorted(set(d) - set(parsers))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {', '.join(map(repr, unknown))}")
    values = {}
    for key, parse in parsers.items():
        if key in d:
            values[key] = parse(d[key], f"{where}.{key}")
        elif key in required:
            raise ConfigError(f"{where}: missing required key {key!r}")
    return values


def _solver_kind(value, where: str) -> str:
    kind = _as_str(value, where)
    if kind not in SOLVER_KINDS:
        raise ConfigError(f"{where}: expected one of {', '.join(SOLVER_KINDS)}, got {kind!r}")
    return kind


_SOLVER_KEYS = {
    "kind": _solver_kind,
    "pop_size": _int(2),
    "rmp": _as_number,
    "transfer_interval": _int(1),
    "transfer_count": _int(0),
    "sbx_eta": _as_number,
    "pm_eta": _as_number,
    "pm_prob": _optional(_as_number),
}


def parse_solver(d, where: str = "solver") -> SolverConfig:
    kwargs = _parse_keys(d, _SOLVER_KEYS, {"kind"}, where)
    try:
        return SolverConfig(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _key(parse, default=MISSING, key: str | None = None):
    """A config field; without a default it is a required key."""
    return field(default=default, metadata={"parse": parse, "key": key})


def _json_key(f) -> str:
    return f.metadata["key"] or f.name


def _parse_fields(cls, d, where: str):
    """Parse ``d`` into ``cls``. Fields are parsed in declaration order,
    which decides the error reported for a config with several."""
    table = {_json_key(f): f for f in fields(cls)}
    values = _parse_keys(
        d,
        {key: f.metadata["parse"] for key, f in table.items()},
        {key for key, f in table.items() if f.default is MISSING},
        where,
    )
    return cls(**{table[key].name: value for key, value in values.items()})


def echo(cfg) -> dict:
    """The manifest's ``config`` block, in a form ``from_dict`` reads back;
    solver blocks carry the resolved ``pop_size``."""
    return {_json_key(f): _echo_value(getattr(cfg, f.name)) for f in fields(cfg)}


def _echo_value(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    if isinstance(value, SolverConfig):
        return dict({key: getattr(value, key) for key in _SOLVER_KEYS}, pop_size=value.resolved_pop_size())
    if isinstance(value, BenchmarkEntry):
        return dict(_echo_value(value.config), label=value.label, delta=value.delta)
    return value


@dataclass(frozen=True)
class RunConfig:
    dataset: str = _key(_as_str)
    solver: SolverConfig = _key(parse_solver)
    # no wall-clock fallback: a run must name its seed (file or --seed)
    seed: int = _key(_int(0))
    s: Fraction = _key(_parse_rate, Fraction(1, 10))
    lam: float = _key(_as_number, 0.125, key="lambda")
    delta: int | None = _key(_delta, 30)
    budget: Fraction = _key(_parse_budget, Fraction(101000))
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


def _check_safe_names(names, what: str, where: str) -> None:
    """Distinct ``names`` must stay distinct as file names: a benchmark
    names its cell directories after dataset names and solver labels."""
    seen = {}
    for name in names:
        other = seen.setdefault(_safe_name(name), name)
        if other != name:
            raise ConfigError(
                f"{where}: {what} {other!r} and {name!r} share the directory name {_safe_name(name)!r}"
            )


def _parse_benchmark_solver(d, where: str) -> BenchmarkEntry:
    """``label``, ``delta`` (else the top-level one) and the solver keys."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    inner = dict(d)
    label = _as_str(inner.pop("label"), f"{where}.label") if "label" in inner else None
    delta = _delta(inner.pop("delta"), f"{where}.delta") if "delta" in inner else None
    config = parse_solver(inner, where)
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
    names = set()
    for path in datasets:
        name = Path(path).stem
        if name in names:
            raise ConfigError(f"{where}: duplicate dataset name {name!r}")
        names.add(name)
    _check_safe_names([Path(path).stem for path in datasets], "dataset names", where)
    return datasets


# kw_only lets the required ``solvers`` follow ``delta`` in parse order
@dataclass(frozen=True, kw_only=True)
class BenchmarkConfig:
    datasets: tuple[str, ...] = _key(_parse_datasets)
    seed: int = _key(_int(0))
    delta: int | None = _key(_delta, 30)
    solvers: tuple[BenchmarkEntry, ...] = _key(_parse_benchmark_solvers)
    trials: int = _key(_int(1), 5)
    folds: int = _key(_int(2), 5)
    baseline: str | None = _key(_as_str, None)
    s: Fraction = _key(_parse_rate, Fraction(1, 10))
    lam: float = _key(_as_number, 0.125, key="lambda")
    budget: Fraction = _key(_parse_budget, Fraction(101000))
    output_dir: str | None = _key(_as_str, None)
    jobs: int = _key(_int(1), 1)

    @classmethod
    def from_dict(cls, d) -> "BenchmarkConfig":
        cfg = _parse_fields(cls, d, "benchmark config")
        if cfg.baseline is not None and cfg.baseline not in {spec.label for spec in cfg.solvers}:
            raise ConfigError(
                f"benchmark config.baseline: {cfg.baseline!r} does not match any solver label"
            )
        solvers = tuple(
            spec if "delta" in raw else replace(spec, delta=cfg.delta)
            for spec, raw in zip(cfg.solvers, d["solvers"])
        )
        return replace(cfg, solvers=solvers)


@dataclass(frozen=True)
class LandscapeConfig:
    dataset: str = _key(_as_str)
    s: Fraction = _key(_parse_rate, Fraction(1, 10))
    lam: float = _key(_as_number, 0.125, key="lambda")
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
    rates: tuple[Fraction, ...] = _key(_list_of(_parse_rate), tuple(map(Fraction, ("1/10", "1/5", "1/2", "1"))))
    repetitions: int = _key(_int(1), 50)
    seed: int = _key(_int(0), 0)
    output_dir: str | None = _key(_as_str, None)

    @classmethod
    def from_dict(cls, d) -> "CostModelConfig":
        return _parse_fields(cls, d, "costmodel config")
