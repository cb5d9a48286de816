import copy
import json

import pytest

from emtauc.cli import main
from emtauc.config import (
    BenchmarkConfig,
    ConfigError,
    CostModelConfig,
    LandscapeConfig,
    RunConfig,
    echo,
)
from emtauc.data import serialize_libsvm

from conftest import make_gaussian_dataset

PARSERS = {
    "run": RunConfig.from_dict,
    "benchmark": BenchmarkConfig.from_dict,
    "landscape": LandscapeConfig.from_dict,
    "costmodel": CostModelConfig.from_dict,
}

# Valid, quick configs over a dataset file named toy.libsvm; every error case
# below is one of them with a few keys changed. scripts/cli_digest.py runs
# the same table through the command line.
BASE_CONFIGS = {
    "run": {"dataset": "toy.libsvm", "solver": {"kind": "mfea"}, "seed": 1, "budget": 2000, "delta": 5},
    "benchmark": {
        "datasets": ["toy.libsvm"],
        "solvers": [{"kind": "single_task_ga", "label": "ga"}, {"kind": "mfea"}],
        "seed": 1,
        "trials": 1,
        "folds": 2,
        "budget": 1000,
    },
    "landscape": {"dataset": "toy.libsvm", "n_points": 20, "repeats": 2},
    "costmodel": {"dataset": "toy.libsvm", "repetitions": 2},
}

DROP = object()


def config(kind, changes):
    """BASE_CONFIGS[kind] with ``changes`` applied; DROP removes a key."""
    d = copy.deepcopy(BASE_CONFIGS[kind])
    for key, value in changes.items():
        if value is DROP:
            del d[key]
        else:
            d[key] = value
    return d


def solver(kind, **keys):
    """A run config whose solver block is ``{"kind": kind, **keys}``."""
    block = {"kind": kind, **keys} if kind is not None else keys
    return config("run", {"solver": block})


NAN = float("nan")
INF = float("inf")
KINDS = ", ".join(("single_task_ga", "mfea", "emea"))
TOO_LARGE = "expected a finite number, got an integer too large for a float"

# (kind, raw config, exact ConfigError message)
ERROR_CASES = [
    # run: shape, unknown and missing keys
    ("run", [], "run config: expected an object, got []"),
    ("run", config("run", {"zeta": 1, "alpha": 2}), "run config: unknown key(s) 'alpha', 'zeta'"),
    ("run", config("run", {"dataset": DROP}), "run config: missing required key 'dataset'"),
    ("run", config("run", {"solver": DROP}), "run config: missing required key 'solver'"),
    ("run", config("run", {"seed": DROP}), "run config: missing required key 'seed'"),
    # run: wrong types and ranges
    ("run", config("run", {"dataset": ""}), "run config.dataset: expected a non-empty string, got ''"),
    ("run", config("run", {"dataset": 3}), "run config.dataset: expected a non-empty string, got 3"),
    ("run", config("run", {"seed": -1}), "run config.seed: must be >= 0, got -1"),
    ("run", config("run", {"seed": 1.5}), "run config.seed: expected an integer, got 1.5"),
    ("run", config("run", {"seed": True}), "run config.seed: expected an integer, got True"),
    ("run", config("run", {"s": "abc"}), "run config.s is not a valid number: 'abc'"),
    ("run", config("run", {"s": 0}), "run config.s must lie in (0, 1], got 0"),
    ("run", config("run", {"s": 1.5}), "run config.s must lie in (0, 1], got 3/2"),
    ("run", config("run", {"s": "1/0"}), "run config.s is not a valid number: '1/0'"),
    ("run", config("run", {"s": True}), "run config.s must be a number, got bool"),
    ("run", config("run", {"s": [0.1]}), "run config.s must be a number, got list"),
    ("run", config("run", {"lambda": "x"}), "run config.lambda: expected a number, got 'x'"),
    ("run", config("run", {"lambda": False}), "run config.lambda: expected a number, got False"),
    ("run", config("run", {"delta": 0}), "run config.delta: must be >= 1, got 0"),
    ("run", config("run", {"delta": "5"}), "run config.delta: expected an integer, got '5'"),
    ("run", config("run", {"budget": 0}), "run config.budget: must be positive, got 0"),
    ("run", config("run", {"budget": -1.5}), "run config.budget: must be positive, got -1.5"),
    ("run", config("run", {"budget": "abc"}), "run config.budget: expected a positive number, got 'abc'"),
    ("run", config("run", {"budget": [1]}), "run config.budget: expected a positive number, got [1]"),
    ("run", config("run", {"budget": None}), "run config.budget: expected a positive number, got None"),
    ("run", config("run", {"output_dir": ""}), "run config.output_dir: expected a non-empty string, got ''"),
    ("run", config("run", {"output_dir": None}), "run config.output_dir: expected a non-empty string, got None"),
    ("run", config("run", {"trace_stride": 0}), "run config.trace_stride: must be >= 1, got 0"),
    ("run", config("run", {"jobs": 0}), "run config.jobs: must be >= 1, got 0"),
    ("run", config("run", {"jobs": 2.0}), "run config.jobs: expected an integer, got 2.0"),
    # the solver block
    ("run", config("run", {"solver": "mfea"}), "run config.solver: expected an object, got 'mfea'"),
    ("run", solver("mfea", bogus=1), "run config.solver: unknown key(s) 'bogus'"),
    ("run", solver(None, rmp=0.5), "run config.solver: missing required key 'kind'"),
    ("run", solver("nsga"), f"run config.solver.kind: expected one of {KINDS}, got 'nsga'"),
    ("run", solver(3), "run config.solver.kind: expected a non-empty string, got 3"),
    ("run", solver("mfea", pop_size=1), "run config.solver.pop_size: must be >= 2, got 1"),
    ("run", solver("mfea", pop_size=4.0), "run config.solver.pop_size: expected an integer, got 4.0"),
    ("run", solver("mfea", rmp="a"), "run config.solver.rmp: expected a number, got 'a'"),
    ("run", solver("mfea", rmp=1.5), "run config.solver: rmp must lie in [0, 1], got 1.5"),
    ("run", solver("emea", transfer_interval=0), "run config.solver.transfer_interval: must be >= 1, got 0"),
    ("run", solver("emea", transfer_count=-1), "run config.solver.transfer_count: must be >= 0, got -1"),
    ("run", solver("mfea", sbx_eta=0), "run config.solver: distribution indices must be positive"),
    ("run", solver("mfea", pm_eta=-1), "run config.solver: distribution indices must be positive"),
    ("run", solver("mfea", pm_eta=None), "run config.solver.pm_eta: expected a number, got None"),
    ("run", solver("mfea", pm_prob=2), "run config.solver: pm_prob must lie in [0, 1], got 2.0"),
    ("run", solver("mfea", pm_prob="x"), "run config.solver.pm_prob: expected a number, got 'x'"),
    # booleans and non-finite numbers
    ("run", config("run", {"budget": True}), "run config.budget: expected a positive number, got True"),
    ("run", config("run", {"budget": INF}), "run config.budget: expected a positive number, got inf"),
    ("run", config("run", {"budget": NAN}), "run config.budget: expected a positive number, got nan"),
    ("run", config("run", {"lambda": NAN}), "run config.lambda: expected a finite number, got nan"),
    ("run", config("run", {"lambda": -INF}), "run config.lambda: expected a finite number, got -inf"),
    ("run", config("run", {"s": NAN}), "run config.s is not a valid number: nan"),
    ("run", solver("mfea", rmp=NAN), "run config.solver.rmp: expected a finite number, got nan"),
    ("run", solver("mfea", sbx_eta=INF), "run config.solver.sbx_eta: expected a finite number, got inf"),
    ("run", solver("mfea", pm_eta=INF), "run config.solver.pm_eta: expected a finite number, got inf"),
    ("run", solver("mfea", pm_prob=NAN), "run config.solver.pm_prob: expected a finite number, got nan"),
    # benchmark
    ("benchmark", "x", "benchmark config: expected an object, got 'x'"),
    ("benchmark", config("benchmark", {"dataset": "a"}), "benchmark config: unknown key(s) 'dataset'"),
    ("benchmark", config("benchmark", {"datasets": DROP}), "benchmark config: missing required key 'datasets'"),
    ("benchmark", config("benchmark", {"solvers": DROP}), "benchmark config: missing required key 'solvers'"),
    ("benchmark", config("benchmark", {"seed": DROP}), "benchmark config: missing required key 'seed'"),
    ("benchmark", config("benchmark", {"datasets": "toy.libsvm"}), "benchmark config.datasets: expected a non-empty list"),
    ("benchmark", config("benchmark", {"datasets": []}), "benchmark config.datasets: expected a non-empty list"),
    ("benchmark", config("benchmark", {"datasets": ["a", ""]}), "benchmark config.datasets[1]: expected a non-empty string, got ''"),
    ("benchmark", config("benchmark", {"datasets": ["a", "b", "a"]}), "benchmark config.datasets: duplicate entries"),
    ("benchmark", config("benchmark", {"solvers": {"kind": "mfea"}}), "benchmark config.solvers: expected a non-empty list"),
    ("benchmark", config("benchmark", {"solvers": []}), "benchmark config.solvers: expected a non-empty list"),
    ("benchmark", config("benchmark", {"solvers": ["mfea"]}), "benchmark config.solvers[0]: expected an object, got 'mfea'"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "mfea", "label": ""}]}), "benchmark config.solvers[0].label: expected a non-empty string, got ''"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "mfea", "delta": 0}]}), "benchmark config.solvers[0].delta: must be >= 1, got 0"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "mfea"}, {"label": "x"}]}), "benchmark config.solvers[1]: missing required key 'kind'"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "mfea", "seed": 3}]}), "benchmark config.solvers[0]: unknown key(s) 'seed'"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "emea", "rmp": -0.1}]}), "benchmark config.solvers[0]: rmp must lie in [0, 1], got -0.1"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "mfea"}, {"kind": "mfea"}]}), "benchmark config.solvers: duplicate labels; set a distinct 'label' per entry"),
    ("benchmark", config("benchmark", {"solvers": [{"kind": "mfea", "label": "single_task_ga"}, {"kind": "single_task_ga"}]}), "benchmark config.solvers: duplicate labels; set a distinct 'label' per entry"),
    ("benchmark", config("benchmark", {"baseline": "emea"}), "benchmark config.baseline: 'emea' does not match any solver label"),
    ("benchmark", config("benchmark", {"baseline": ""}), "benchmark config.baseline: expected a non-empty string, got ''"),
    ("benchmark", config("benchmark", {"trials": 0}), "benchmark config.trials: must be >= 1, got 0"),
    ("benchmark", config("benchmark", {"folds": 1}), "benchmark config.folds: must be >= 2, got 1"),
    ("benchmark", config("benchmark", {"seed": "1"}), "benchmark config.seed: expected an integer, got '1'"),
    ("benchmark", config("benchmark", {"s": "x"}), "benchmark config.s is not a valid number: 'x'"),
    ("benchmark", config("benchmark", {"lambda": None}), "benchmark config.lambda: expected a number, got None"),
    ("benchmark", config("benchmark", {"lambda": INF}), "benchmark config.lambda: expected a finite number, got inf"),
    ("benchmark", config("benchmark", {"delta": -2}), "benchmark config.delta: must be >= 1, got -2"),
    ("benchmark", config("benchmark", {"budget": "-3"}), "benchmark config.budget: must be positive, got '-3'"),
    ("benchmark", config("benchmark", {"budget": False}), "benchmark config.budget: expected a positive number, got False"),
    ("benchmark", config("benchmark", {"output_dir": 5}), "benchmark config.output_dir: expected a non-empty string, got 5"),
    ("benchmark", config("benchmark", {"jobs": 0}), "benchmark config.jobs: must be >= 1, got 0"),
    # landscape
    ("landscape", 5, "landscape config: expected an object, got 5"),
    ("landscape", config("landscape", {"points": 5}), "landscape config: unknown key(s) 'points'"),
    ("landscape", config("landscape", {"dataset": DROP}), "landscape config: missing required key 'dataset'"),
    ("landscape", config("landscape", {"dataset": ["a"]}), "landscape config.dataset: expected a non-empty string, got ['a']"),
    ("landscape", config("landscape", {"s": 2}), "landscape config.s must lie in (0, 1], got 2"),
    ("landscape", config("landscape", {"lambda": "0.1"}), "landscape config.lambda: expected a number, got '0.1'"),
    ("landscape", config("landscape", {"lambda": NAN}), "landscape config.lambda: expected a finite number, got nan"),
    ("landscape", config("landscape", {"n_points": 1}), "landscape config.n_points: must be >= 2, got 1"),
    ("landscape", config("landscape", {"repeats": 0}), "landscape config.repeats: must be >= 1, got 0"),
    ("landscape", config("landscape", {"seed": -3}), "landscape config.seed: must be >= 0, got -3"),
    ("landscape", config("landscape", {"output_dir": ""}), "landscape config.output_dir: expected a non-empty string, got ''"),
    # costmodel
    ("costmodel", None, "costmodel config: expected an object, got None"),
    ("costmodel", config("costmodel", {"rate": 0.1}), "costmodel config: unknown key(s) 'rate'"),
    ("costmodel", config("costmodel", {"dataset": DROP}), "costmodel config: missing required key 'dataset'"),
    ("costmodel", config("costmodel", {"rates": 0.1}), "costmodel config.rates: expected a non-empty list"),
    ("costmodel", config("costmodel", {"rates": []}), "costmodel config.rates: expected a non-empty list"),
    ("costmodel", config("costmodel", {"rates": ["1/10", "abc"]}), "costmodel config.rates[1] is not a valid number: 'abc'"),
    ("costmodel", config("costmodel", {"rates": [0.1, 2]}), "costmodel config.rates[1] must lie in (0, 1], got 2"),
    ("costmodel", config("costmodel", {"rates": [None]}), "costmodel config.rates[0] must be a number, got NoneType"),
    ("costmodel", config("costmodel", {"rates": [0.5, NAN]}), "costmodel config.rates[1] is not a valid number: nan"),
    ("costmodel", config("costmodel", {"repetitions": 0}), "costmodel config.repetitions: must be >= 1, got 0"),
    ("costmodel", config("costmodel", {"seed": 0.5}), "costmodel config.seed: expected an integer, got 0.5"),
    ("costmodel", config("costmodel", {"output_dir": True}), "costmodel config.output_dir: expected a non-empty string, got True"),
    # appended last, so that scripts/cli_digest.py keeps the case numbers above:
    # integers too large for a float, and dataset paths that share a stem
    ("run", config("run", {"lambda": 10**400}), f"run config.lambda: {TOO_LARGE}"),
    ("run", solver("mfea", rmp=10**400), f"run config.solver.rmp: {TOO_LARGE}"),
    ("benchmark", config("benchmark", {"datasets": ["toy.libsvm", "./toy.libsvm"]}), "benchmark config.datasets: duplicate dataset name 'toy'"),
]


@pytest.mark.parametrize("kind, raw, message", ERROR_CASES)
def test_config_error_messages(kind, raw, message):
    with pytest.raises(ConfigError) as info:
        PARSERS[kind](raw)
    assert str(info.value) == message


@pytest.mark.parametrize("kind", sorted(BASE_CONFIGS))
def test_base_configs_are_valid(kind):
    PARSERS[kind](BASE_CONFIGS[kind])


def test_benchmark_solver_delta_inherits_top_level():
    raw = config(
        "benchmark",
        {"delta": 7, "solvers": [{"kind": "mfea", "label": "a"}, {"kind": "mfea", "label": "b", "delta": None}]},
    )
    cfg = BenchmarkConfig.from_dict(raw)
    assert [spec.delta for spec in cfg.solvers] == [7, None]
    assert cfg.solvers[0].label == "a"
    assert BenchmarkConfig.from_dict(BASE_CONFIGS["benchmark"]).solvers[1].label == "mfea"


# Non-default values for every key of every kind. The echo writes the
# resolved pop_size, and None for an unset output_dir or baseline (which
# from_dict rejects), so those are set everywhere.
NON_DEFAULT = {
    "run": {
        "dataset": "data/x",
        "solver": {
            "kind": "emea", "pop_size": 6, "rmp": 0.7, "transfer_interval": 3,
            "transfer_count": 1, "sbx_eta": 9.5, "pm_eta": 4.0, "pm_prob": 0.25,
        },
        "s": "2/7",
        "lambda": 0.5,
        "delta": None,
        "budget": "1234/3",
        "seed": 9,
        "output_dir": "o",
        "trace_stride": 4,
        "jobs": 2,
    },
    "benchmark": {
        "datasets": ["a", "b"],
        "solvers": [
            {"kind": "single_task_ga", "label": "ga", "pop_size": 4, "delta": 3},
            {"kind": "mfea", "pop_size": 12, "rmp": 0.1, "pm_prob": 0.5, "delta": None},
        ],
        "trials": 2,
        "folds": 3,
        "baseline": "mfea",
        "s": 0.25,
        "lambda": 1,
        "delta": 11,
        "budget": 2.5,
        "seed": 4,
        "output_dir": "o",
        "jobs": 3,
    },
    "landscape": {
        "dataset": "d", "s": "1/3", "lambda": 0.0, "n_points": 7,
        "repeats": 2, "seed": 8, "output_dir": "o",
    },
    "costmodel": {
        "dataset": "d", "rates": ["1/7", 0.5, 1], "repetitions": 3, "seed": 2, "output_dir": "o",
    },
}


@pytest.mark.parametrize("kind", sorted(NON_DEFAULT))
def test_echo_round_trips(kind):
    cfg = PARSERS[kind](NON_DEFAULT[kind])
    echoed = echo(cfg)
    assert set(echoed) == set(NON_DEFAULT[kind])
    # the echo is plain JSON and parses back to the same config
    assert PARSERS[kind](json.loads(json.dumps(echoed, allow_nan=False))) == cfg


def test_echo_resolves_pop_size_and_writes_exact_fractions():
    cfg = RunConfig.from_dict(config("run", {"budget": 0.1, "solver": {"kind": "mfea"}}))
    echoed = echo(cfg)
    assert echoed["solver"]["pop_size"] == 20
    assert echoed["budget"] == "1/10"
    assert echoed["s"] == "1/10"
    assert echoed["lambda"] == 0.125
    cost = echo(CostModelConfig.from_dict(BASE_CONFIGS["costmodel"]))
    assert cost["rates"] == ["1/10", "1/5", "1/2", "1"]


@pytest.fixture
def toy_dir(tmp_path, monkeypatch):
    ds = make_gaussian_dataset(0, n_pos=30, n_neg=40, dim=4)
    (tmp_path / "toy.libsvm").write_text(serialize_libsvm(ds))
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"budget": True}, "run config.budget: expected a positive number, got True"),
        ({"lambda": NAN}, "run config.lambda: expected a finite number, got nan"),
        ({"solver": {"kind": "mfea", "sbx_eta": INF}}, "run config.solver.sbx_eta: expected a finite number, got inf"),
        ({"s": NAN}, "run config.s is not a valid number: nan"),
        ({"lambda": 10**400}, f"run config.lambda: {TOO_LARGE}"),
    ],
)
def test_cli_rejects_bool_budget_and_non_finite_numbers(toy_dir, capsys, changes, message):
    # json writes NaN and Infinity, and Python's json reads them back
    (toy_dir / "c.json").write_text(json.dumps(config("run", changes)))
    assert main(["run", "--config", "c.json", "--output-dir", "out"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (toy_dir / "out" / "manifest.json").exists()
