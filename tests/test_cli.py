import argparse
import json
import tempfile
from dataclasses import fields
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emtauc import cli
from emtauc.cli import build_parser, main
from emtauc.config import BenchmarkConfig, CostModelConfig, LandscapeConfig, RunConfig
from emtauc.data import serialize_libsvm
from emtauc.environment import CostLedger, TaskId, expensive_cost

from conftest import make_gaussian_dataset


with resources.files("emtauc.schemas").joinpath("manifest.schema.json").open() as fh:
    MANIFEST_SCHEMA = json.load(fh)


def validate_manifest(path):
    payload = json.loads(path.read_text())
    jsonschema.validate(payload, MANIFEST_SCHEMA)
    return payload


@pytest.fixture
def dataset_file(tmp_path):
    ds = make_gaussian_dataset(0, n_pos=30, n_neg=40, dim=4)
    path = tmp_path / "toy.libsvm"
    path.write_text(serialize_libsvm(ds))
    return path


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_config(dataset_file, **extra):
    payload = {
        "dataset": str(dataset_file),
        "solver": {"kind": "mfea"},
        "budget": 3000,
        "delta": 5,
        "seed": 7,
    }
    payload.update(extra)
    return payload


def test_run_writes_trace_and_valid_manifest(tmp_path, dataset_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, run_config(dataset_file, output_dir=str(out)))
    assert main(["run", "--config", str(cfg)]) == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == (
        "generation,cumulative_cost,best_objective_expensive,"
        "best_auc_expensive,best_objective_cheap,adjust_event"
    )
    assert len(trace) > 2
    costs = [float(line.split(",")[1]) for line in trace[1:]]
    assert all(b > a for a, b in zip(costs, costs[1:]))
    payload = validate_manifest(out / "manifest.json")
    assert payload["command"] == "run"
    assert payload["seed"] == 7
    assert payload["results"]["final_test_auc"] is None
    assert payload["results"]["evaluations"]["expensive"] > 0


def test_run_byte_identical_across_reruns_and_jobs(tmp_path, dataset_file):
    outs = []
    for i, jobs in enumerate((1, 1, 4)):
        out = tmp_path / f"out{i}"
        cfg = write_config(
            tmp_path,
            run_config(dataset_file, output_dir=str(out), jobs=jobs),
            name=f"c{i}.json",
        )
        assert main(["run", "--config", str(cfg)]) == 0
        outs.append((out / "trace.csv").read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_run_trace_stride_keeps_first_and_last(tmp_path, dataset_file):
    out_full = tmp_path / "full"
    out_thin = tmp_path / "thin"
    cfg_full = write_config(
        tmp_path, run_config(dataset_file, output_dir=str(out_full)), name="full.json"
    )
    cfg_thin = write_config(
        tmp_path,
        run_config(dataset_file, output_dir=str(out_thin), trace_stride=4),
        name="thin.json",
    )
    assert main(["run", "--config", str(cfg_full)]) == 0
    assert main(["run", "--config", str(cfg_thin)]) == 0
    full = (out_full / "trace.csv").read_text().splitlines()[1:]
    thin = (out_thin / "trace.csv").read_text().splitlines()[1:]
    gens = [int(line.split(",")[0]) for line in thin]
    last_gen = int(full[-1].split(",")[0])
    assert gens[0] == 0
    assert gens[-1] == last_gen
    assert all(g % 4 == 0 or g == last_gen for g in gens)
    assert set(thin) <= set(full)


def test_run_flag_overrides_config(tmp_path, dataset_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, run_config(dataset_file, budget=3000))
    assert (
        main(
            [
                "run",
                "--config",
                str(cfg),
                "--output-dir",
                str(out),
                "--budget",
                "800",
            ]
        )
        == 0
    )
    payload = validate_manifest(out / "manifest.json")
    assert payload["config"]["budget"] == "800"
    assert float(payload["results"]["total_cost_spent"]) <= 800 + 100


def test_run_missing_seed_rejected_and_flag_satisfies(tmp_path, dataset_file):
    payload = run_config(dataset_file, output_dir=str(tmp_path / "o"))
    del payload["seed"]
    cfg = write_config(tmp_path, payload)
    assert main(["run", "--config", str(cfg)]) == 2
    assert main(["run", "--config", str(cfg), "--seed", "11"]) == 0
    manifest = validate_manifest(tmp_path / "o" / "manifest.json")
    assert manifest["seed"] == 11


def test_exit_codes(tmp_path, dataset_file):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    assert main(["run", "--config", str(bad_json)]) == 2

    unknown_key = write_config(
        tmp_path, run_config(dataset_file, typo_field=3), name="unk.json"
    )
    assert main(["run", "--config", str(unknown_key)]) == 2

    missing_data = write_config(
        tmp_path,
        run_config(tmp_path / "absent.libsvm", output_dir=str(tmp_path / "x")),
        name="missing.json",
    )
    assert main(["run", "--config", str(missing_data)]) == 3

    malformed = tmp_path / "mangled.libsvm"
    malformed.write_text("+1 1:0.5 oops\n-1 1:0.1\n")
    bad_data = write_config(
        tmp_path,
        run_config(malformed, output_dir=str(tmp_path / "y")),
        name="baddata.json",
    )
    assert main(["run", "--config", str(bad_data)]) == 3

    # feature indices too large to parse, and a shape too large to scale
    for index in ("9223372036854775808", "4611686018427387904"):
        huge = tmp_path / f"huge{index}.libsvm"
        huge.write_text(f"+1 1:0.5 {index}:1\n-1 1:0.1\n")
        huge_config = write_config(
            tmp_path, run_config(huge, output_dir=str(tmp_path / "z")), name="huge.json"
        )
        assert main(["run", "--config", str(huge_config)]) == 3


def test_validate_config_subcommand(tmp_path, dataset_file):
    good = write_config(tmp_path, run_config(dataset_file))
    assert main(["validate-config", "--config", str(good)]) == 0
    bad = write_config(
        tmp_path, {"dataset": str(dataset_file)}, name="incomplete.json"
    )
    assert main(["validate-config", "--config", str(bad)]) == 2
    bench = write_config(
        tmp_path,
        {
            "datasets": [str(dataset_file)],
            "solvers": [{"label": "ga", "kind": "single_task_ga"}],
            "seed": 1,
        },
        name="bench.json",
    )
    assert main(["validate-config", "--config", str(bench), "--kind", "benchmark"]) == 0
    assert main(["validate-config", "--config", str(bench)]) == 2


def test_output_dir_env_fallback(tmp_path, dataset_file, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("EMTAUC_OUTPUT_DIR", str(target))
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path, run_config(dataset_file))
    assert main(["run", "--config", str(cfg)]) == 0
    assert (target / "trace.csv").exists()


def test_manifest_config_echo_reproduces_run(tmp_path, dataset_file):
    out1 = tmp_path / "a"
    cfg = write_config(tmp_path, run_config(dataset_file, output_dir=str(out1)))
    assert main(["run", "--config", str(cfg)]) == 0
    manifest = validate_manifest(out1 / "manifest.json")
    echo = dict(manifest["config"])
    echo["output_dir"] = str(tmp_path / "b")
    echo["lambda"] = echo.pop("lambda")
    cfg2 = write_config(tmp_path, echo, name="echo.json")
    assert main(["run", "--config", str(cfg2)]) == 0
    again = validate_manifest(tmp_path / "b" / "manifest.json")
    assert (
        again["results"]["final_best_objective"]
        == manifest["results"]["final_best_objective"]
    )
    assert (
        (tmp_path / "b" / "trace.csv").read_bytes()
        == (out1 / "trace.csv").read_bytes()
    )


def test_benchmark_layout_and_manifests(tmp_path, dataset_file):
    out = tmp_path / "bench"
    cfg = write_config(
        tmp_path,
        {
            "datasets": [str(dataset_file)],
            "solvers": [
                {"label": "ga", "kind": "single_task_ga"},
                {"label": "mfea", "kind": "mfea"},
            ],
            "trials": 1,
            "folds": 2,
            "budget": 2000,
            "seed": 3,
            "output_dir": str(out),
        },
        name="bench.json",
    )
    assert main(["benchmark", "--config", str(cfg)]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "dataset,solver,mean_auc,std_auc,n,verdict"
    assert len(summary) == 3
    assert all(line.startswith("toy,") for line in summary[1:])
    cell_dirs = sorted(p for p in (out / "cells").iterdir() if p.is_dir())
    assert len(cell_dirs) == 4
    for cell_dir in cell_dirs:
        payload = validate_manifest(cell_dir / "manifest.json")
        assert payload["command"] == "benchmark-cell"
        assert payload["results"]["error"] is None
    top = validate_manifest(out / "manifest.json")
    assert top["command"] == "benchmark"
    assert top["results"]["failed_cells"] == 0
    assert len(top["results"]["rows"]) == 2


def test_benchmark_rejects_names_that_share_a_cell_directory(tmp_path, dataset_file, capsys):
    # "ga/1" and "ga_1" both become cells/toy__ga_1__t0_f0; "a b" and "a_b" likewise
    out = tmp_path / "bench"
    base = {
        "datasets": [str(dataset_file)],
        "solvers": [{"label": "ga/1", "kind": "single_task_ga"}, {"label": "ga_1", "kind": "mfea"}],
        "trials": 1,
        "folds": 2,
        "budget": 1000,
        "seed": 3,
        "output_dir": str(out),
    }
    spaced = dict(base, datasets=[str(tmp_path / "a b.libsvm"), str(tmp_path / "a_b.libsvm")])
    spaced["solvers"] = [{"kind": "mfea"}]
    for payload, message in ((base, "labels 'ga/1' and 'ga_1'"), (spaced, "dataset names 'a b' and 'a_b'")):
        cfg = write_config(tmp_path, payload, name="bench.json")
        assert main(["benchmark", "--config", str(cfg)]) == 2
        assert main(["validate-config", "--config", str(cfg), "--kind", "benchmark"]) == 2
        assert capsys.readouterr().err.count(message) == 2
    assert not out.exists()


def test_benchmark_rejects_dataset_label_pairs_that_share_a_cell_directory(tmp_path, dataset_file, capsys):
    # dataset "a" with label "b__c" and dataset "a__b" with label "c" would
    # both write cells/a__b__c__t0_f0
    for stem in ("a", "a__b"):
        (tmp_path / f"{stem}.libsvm").write_text(dataset_file.read_text())
    out = tmp_path / "bench"
    cfg = write_config(
        tmp_path,
        {
            "datasets": [str(tmp_path / "a.libsvm"), str(tmp_path / "a__b.libsvm")],
            "solvers": [{"label": "b__c", "kind": "single_task_ga"}, {"label": "c", "kind": "mfea"}],
            "trials": 1,
            "folds": 2,
            "budget": 1000,
            "seed": 3,
            "output_dir": str(out),
        },
        name="bench.json",
    )
    assert main(["benchmark", "--config", str(cfg)]) == 2
    assert main(["validate-config", "--config", str(cfg), "--kind", "benchmark"]) == 2
    assert capsys.readouterr().err.count("('a', 'b__c') and ('a__b', 'c') share the directory name 'a__b__c'") == 2
    assert not (out / "cells").exists()


def test_scaling_past_physical_memory_exits_3(tmp_path, dataset_file, monkeypatch, capsys):
    # a machine of 4 pages of 1 KiB: the toy set's two 70 x 4 dense copies exceed it
    pages = {"SC_PHYS_PAGES": 4, "SC_PAGE_SIZE": 1024}
    monkeypatch.setattr("emtauc.data.os.sysconf", pages.__getitem__)
    cfg = write_config(tmp_path, run_config(dataset_file, output_dir=str(tmp_path / "o")))
    assert main(["run", "--config", str(cfg)]) == 3
    assert "dense 70 x 4 feature matrix is too large to scale" in capsys.readouterr().err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_benchmark_byte_identical_with_jobs(tmp_path, dataset_file):
    payload = {
        "datasets": [str(dataset_file)],
        "solvers": [
            {"label": "ga", "kind": "single_task_ga"},
            {"label": "mfea", "kind": "mfea"},
        ],
        "trials": 1,
        "folds": 2,
        "budget": 1500,
        "seed": 4,
    }
    texts = []
    for i, jobs in enumerate((1, 2)):
        out = tmp_path / f"bench{i}"
        cfg = write_config(
            tmp_path, dict(payload, output_dir=str(out), jobs=jobs), name=f"b{i}.json"
        )
        assert main(["benchmark", "--config", str(cfg)]) == 0
        texts.append((out / "summary.csv").read_bytes())
    assert texts[0] == texts[1]


def test_landscape_csv_and_full_rate(tmp_path, dataset_file):
    out = tmp_path / "land"
    cfg = write_config(
        tmp_path,
        {
            "dataset": str(dataset_file),
            "s": "1",
            "n_points": 50,
            "repeats": 4,
            "seed": 5,
            "output_dir": str(out),
        },
        name="land.json",
    )
    assert main(["landscape", "--config", str(cfg)]) == 0
    lines = (out / "landscape.csv").read_text().splitlines()
    assert lines[0] == "repeat,rho"
    assert len(lines) == 1 + 4 + 1
    for line in lines[1:-1]:
        _, rho = line.split(",")
        assert float(rho) == 1.0
    assert lines[-1].split(",")[0] == "mean"
    payload = validate_manifest(out / "manifest.json")
    assert payload["results"]["mean_rho"] == 1.0


def test_landscape_constant_objective_is_a_data_error(tmp_path, capsys):
    # every feature constant and no regularizer: every weight scores loss 1
    data = tmp_path / "const.libsvm"
    data.write_text("".join(f"{label} 1:0.5 2:1\n" for label in ("+1",) * 3 + ("-1",) * 3))
    payload = {
        "dataset": str(data), "s": "1", "lambda": 0, "n_points": 20, "repeats": 2, "seed": 1,
        "output_dir": str(tmp_path / "land"),
    }
    assert main(["landscape", "--config", str(write_config(tmp_path, payload))]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and "objective is constant over the sampled weights" in err


# name: (LIBSVM text or None for the 70-instance toy set, budget, solver keys)
EDGE_CASES = {
    "one-per-class": ("+1 1:0.3 2:0.7\n-1 1:0.1 2:0.2\n", 3000, {}),
    "dim-1": (serialize_libsvm(make_gaussian_dataset(3, n_pos=20, n_neg=25, dim=1)), 3000, {}),
    "constant-features": ("".join(f"{y} 1:0.5 2:1\n" for y in ("+1",) * 6 + ("-1",) * 9), 3000, {}),
    "budget-below-one-expensive": (None, "1/3", {}),
    "pop-over-n": (serialize_libsvm(make_gaussian_dataset(4, n_pos=8, n_neg=12, dim=3)), 3000, {"pop_size": 40}),
}


@pytest.mark.parametrize("kind", ["single_task_ga", "mfea", "emea"])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_run_degenerate_input_gives_a_clean_result(tmp_path, dataset_file, case, kind):
    text, budget, solver = EDGE_CASES[case]
    data = dataset_file
    if text is not None:
        data = tmp_path / "edge.libsvm"
        data.write_text(text)
    out = tmp_path / "out"
    payload = run_config(data, solver={"kind": kind, **solver}, budget=budget, output_dir=str(out))
    assert main(["run", "--config", str(write_config(tmp_path, payload))]) == 0
    manifest = (out / "manifest.json").read_text()
    assert "NaN" not in manifest and "Infinity" not in manifest
    results = validate_manifest(out / "manifest.json")["results"]
    if case == "budget-below-one-expensive":
        # The first evaluation crosses the budget and completes; only the GA's
        # first evaluation is expensive, so only the GA has a best objective.
        assert sum(results["evaluations"].values()) == 1
        assert (results["final_best_objective"] is None) == (kind != "single_task_ga")
    else:
        assert results["final_best_objective"] is not None
    assert "nan" not in (out / "trace.csv").read_text().lower()


def test_costmodel_theoretical_column_exact(tmp_path, dataset_file):
    out = tmp_path / "cost"
    cfg = write_config(
        tmp_path,
        {
            "dataset": str(dataset_file),
            "repetitions": 3,
            "seed": 6,
            "output_dir": str(out),
        },
        name="cost.json",
    )
    assert main(["costmodel", "--config", str(cfg)]) == 0
    lines = (out / "costmodel.csv").read_text().splitlines()
    assert lines[0] == "rate,theoretical_ratio,measured_mean_seconds,measured_ratio"
    ratios = [Fraction(line.split(",")[1]) for line in lines[1:]]
    assert ratios == [Fraction(1), Fraction(4), Fraction(25), Fraction(100)]
    base_measured = float(lines[1].split(",")[3])
    assert base_measured == 1.0


def test_costmodel_times_only_evaluations_on_built_row_copies(tmp_path, dataset_file, monkeypatch):
    # The first evaluation on a view builds its cached row copies (the CSR
    # class copy and the dense copy of the certified path), a one-off cost
    # that would skew the timing. Every timed call must find both built.
    events = []
    real_objective = cli.objective

    def spy_objective(w, view, lam):
        events.append(("call", view._matrix is not None and view._dense is not None))
        return real_objective(w, view, lam)

    def spy_clock():
        events.append(("clock", None))
        return 0.0

    monkeypatch.setattr(cli, "objective", spy_objective)
    monkeypatch.setattr(cli, "time", argparse.Namespace(process_time=spy_clock))
    out = tmp_path / "cost"
    cfg = write_config(tmp_path, {"dataset": str(dataset_file), "repetitions": 3, "seed": 6, "output_dir": str(out)})
    assert main(["costmodel", "--config", str(cfg)]) == 0
    # per rate: the untimed call, then each of three calls between two
    # readings of the CPU clock
    assert events == [("call", False), *[("clock", None), ("call", True), ("clock", None)] * 3] * 4


TOY_TEXT = serialize_libsvm(make_gaussian_dataset(0, n_pos=30, n_neg=40, dim=4))


@settings(max_examples=25, deadline=None)
@given(rates=st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1, max_denominator=1000), min_size=1, max_size=3))
def test_ledger_and_costmodel_share_one_price(rates):
    # a full evaluation costs 1/s^2 cheap ones in the ledger, and costmodel's
    # theoretical ratio is the same price relative to the base rate: 1/10 if
    # it is listed, else the first rate
    for rate in rates:
        assert expensive_cost(rate) == 1 / rate**2
        ledger = CostLedger(2 / rate**2, rate)
        ledger.charge([TaskId.CHEAP])
        assert ledger.spent == 1
        ledger.charge([TaskId.EXPENSIVE])
        assert ledger.spent == 1 + expensive_cost(rate)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "cost"
        (Path(tmp) / "toy.libsvm").write_text(TOY_TEXT)
        cfg = write_config(
            Path(tmp),
            {"dataset": str(Path(tmp) / "toy.libsvm"), "rates": [str(r) for r in rates],
             "repetitions": 1, "output_dir": str(out)},
        )
        assert main(["costmodel", "--config", str(cfg)]) == 0
        rows = [line.split(",") for line in (out / "costmodel.csv").read_text().splitlines()[1:]]
    base = Fraction(1, 10) if Fraction(1, 10) in rates else rates[0]
    assert [Fraction(row[1]) for row in rows] == [(r / base) ** 2 for r in rates]
    # the measured ratio is relative to the same rate's timing
    assert rows[rates.index(base)][3] in ("1.0", "nan")


def test_costmodel_without_the_protocol_rate_prices_both_ratios_against_the_first(tmp_path, dataset_file, monkeypatch):
    # one call per rate, timed at 2 s at 1/4 and 8 s at 1/2: with 1/10 not
    # listed, both ratio columns divide by the first rate's row
    readings = iter([0.0, 2.0, 0.0, 8.0])
    monkeypatch.setattr(cli, "time", argparse.Namespace(process_time=lambda: next(readings)))
    out = tmp_path / "cost"
    cfg = write_config(
        tmp_path, {"dataset": str(dataset_file), "rates": ["1/4", "1/2"], "repetitions": 1, "output_dir": str(out)}
    )
    assert main(["costmodel", "--config", str(cfg)]) == 0
    assert (out / "costmodel.csv").read_text().splitlines()[1:] == ["1/4,1,2.0,1.0", "1/2,4,8.0,4.0"]


def test_failed_manifest_leaves_no_partial_or_temporary_file(tmp_path, dataset_file, monkeypatch):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, run_config(dataset_file, output_dir=str(out)))

    def fail_after_trace():
        # the config echo is serialised after trace.csv is written and
        # after the manifest's first keys are streamed to its temporary file
        with monkeypatch.context() as m:
            m.setattr(cli, "echo", lambda cfg: {"unserialisable": object()})
            assert main(["run", "--config", str(cfg)]) == 4

    fail_after_trace()
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]
    assert (out / "trace.csv").read_text().startswith("generation,")

    # a rerun that fails removes the earlier manifest, which would
    # otherwise describe a run other than the one that wrote trace.csv
    assert main(["run", "--config", str(cfg)]) == 0
    fail_after_trace()
    assert sorted(p.name for p in out.iterdir()) == ["trace.csv"]


@pytest.mark.parametrize("command", ["run", "benchmark", "landscape", "costmodel"])
def test_failed_command_leaves_no_stale_manifest(tmp_path, dataset_file, monkeypatch, command):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text('{"from": "an earlier run"}\n')
    payload = {
        "run": run_config(dataset_file),
        "benchmark": {"datasets": [str(dataset_file)], "solvers": [{"kind": "single_task_ga"}],
                      "trials": 1, "folds": 2, "budget": 1000, "seed": 3},
        "landscape": {"dataset": str(dataset_file), "n_points": 10, "repeats": 2, "seed": 5},
        "costmodel": {"dataset": str(dataset_file), "repetitions": 1, "seed": 6},
    }[command]

    def crash(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_manifest", crash)
    cfg = write_config(tmp_path, dict(payload, output_dir=str(out)))
    assert main([command, "--config", str(cfg)]) == 4
    assert not (out / "manifest.json").exists()


CONFIG_CLASSES = {
    "run": [RunConfig],
    "benchmark": [BenchmarkConfig],
    "landscape": [LandscapeConfig],
    "costmodel": [CostModelConfig],
    "validate-config": [RunConfig, BenchmarkConfig, LandscapeConfig, CostModelConfig],
}


def test_every_override_flag_is_a_config_key():
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(CONFIG_CLASSES)
    for command, sub in subparsers.choices.items():
        flags = {action.dest for action in sub._actions} - {"help", "config", "kind"}
        assert "seed" in flags
        for cls in CONFIG_CLASSES[command]:
            keys = {f.metadata["key"] or f.name for f in fields(cls)}
            assert flags <= keys, (command, cls.__name__, flags - keys)


SHARED_RUN_RESULTS = {
    "final_best_objective",
    "final_train_auc",
    "final_test_auc",
    "total_cost_spent",
    "total_cost_spent_exact",
    "budget",
    "evaluations",
    "adjustments",
}


def test_run_and_benchmark_cell_manifests_share_results_keys(tmp_path, dataset_file):
    run_out = tmp_path / "run"
    cfg = write_config(tmp_path, run_config(dataset_file, output_dir=str(run_out), delta=2))
    assert main(["run", "--config", str(cfg)]) == 0
    bench_out = tmp_path / "bench"
    bench = write_config(
        tmp_path,
        {
            "datasets": [str(dataset_file)],
            "solvers": [{"kind": "mfea"}],
            "trials": 1,
            "folds": 2,
            "budget": 3000,
            "delta": 2,
            "seed": 7,
            "output_dir": str(bench_out),
        },
        name="bench.json",
    )
    assert main(["benchmark", "--config", str(bench)]) == 0
    run_results = validate_manifest(run_out / "manifest.json")["results"]
    cell_dir = next((bench_out / "cells").iterdir())
    cell_results = validate_manifest(cell_dir / "manifest.json")["results"]
    assert set(run_results) == SHARED_RUN_RESULTS | {"solver_kind", "generations"}
    assert set(cell_results) == SHARED_RUN_RESULTS | {"error"}
    assert run_results["adjustments"] and cell_results["adjustments"]
    for results in (run_results, cell_results):
        assert set(results["adjustments"][0]) == {"generation", "view_fingerprint"}
        assert results["budget"] == "3000"
        assert results["total_cost_spent_exact"] is not None


def test_manifest_schema_rejects_unknown_results_key(tmp_path, dataset_file):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, run_config(dataset_file, output_dir=str(out)))
    assert main(["run", "--config", str(cfg)]) == 0
    payload = validate_manifest(out / "manifest.json")
    payload["results"]["final_tset_auc"] = None
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(payload, MANIFEST_SCHEMA)
