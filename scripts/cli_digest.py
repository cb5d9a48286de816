"""Print one line per command-line case: exit code, stderr and artifact digests.

Each case runs ``emtauc.cli.main`` in a fresh directory that holds two small
LIBSVM files (``toy.libsvm``, ``other.libsvm``) and the case's config. The
line gives the exit code, the stderr text, a digest of stdout and the sha256
(first 16 hex digits) of every file the case wrote. Wall-clock values are
dropped before hashing: ``started_at`` and ``finished_at`` in manifests,
and the measured columns of ``costmodel.csv`` and its manifest rows.

The cases are every config error in ``tests/test_config.py`` run through
the subcommand of its kind, then valid runs of all four subcommands with
and without flag overrides (``costmodel`` also at a rate with no exact
decimal form), ``validate-config``, unreadable config files,
bad dataset files (malformed, or with a feature index too large to
parse or to scale), and dataset files at the edges of the LIBSVM grammar
(comments with CRLF or a form feed, Python-only number forms, a non-ASCII
digit, malformed numbers and tokens), and two files longer than one read
block (a CRLF file with a ``\r\n`` split across two reads, and a fault in
the last block). The first line names the numpy and scipy versions.
``tests/golden/cli_digest.txt`` holds the committed output, which
``tests/test_golden.py`` regenerates in full; a diff against it is the
gate for changes to config parsing, to the LIBSVM parser and to the CLI:

    diff <(PYTHONPATH=src python scripts/cli_digest.py) tests/golden/cli_digest.txt

It takes no flags and runs in a few seconds.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from conftest import make_gaussian_dataset  # noqa: E402
from test_config import BASE_CONFIGS, DROP, ERROR_CASES, config  # noqa: E402

from emtauc import cli, serialize_libsvm  # noqa: E402

DATASETS = {
    "toy.libsvm": serialize_libsvm(make_gaussian_dataset(0, n_pos=30, n_neg=40, dim=4)),
    "other.libsvm": serialize_libsvm(make_gaussian_dataset(1, n_pos=25, n_neg=20, dim=3)),
}
WALL_CLOCK = {"started_at", "finished_at", "measured_mean_seconds", "measured_ratio"}

RUN, BENCH, LAND, COST = (BASE_CONFIGS[k] for k in ("run", "benchmark", "landscape", "costmodel"))
# name -> (argv after the config path, config; a str is written verbatim, None writes no file)
VALID_CASES = {
    "run-default-dir": (["run"], RUN),
    "run-all-flags": (
        ["run", "--seed", "5", "--output-dir", "o", "--dataset", "other.libsvm",
         "--budget", "1500", "--jobs", "2", "--trace-stride", "3"],
        RUN,
    ),
    "run-seed-flag-only": (["run", "--seed", "0"], config("run", {"seed": DROP})),
    "run-ga": (["run"], config("run", {"solver": {"kind": "single_task_ga", "pop_size": 6}})),
    "run-emea": (
        ["run"],
        config("run", {"solver": {"kind": "emea", "transfer_interval": 2, "transfer_count": 3,
                                  "sbx_eta": 5, "pm_eta": 7.5, "pm_prob": 0.3}}),
    ),
    "run-mfea-keys": (
        ["run"],
        config("run", {"solver": {"kind": "mfea", "rmp": 0, "pop_size": 8, "pm_prob": None},
                       "s": "1/4", "lambda": 0, "delta": None, "budget": "4001/2",
                       "trace_stride": 2, "output_dir": "o"}),
    ),
    "run-float-budget": (["run", "--output-dir", "o"], config("run", {"budget": 1234.5, "s": 0.2})),
    "run-budget-flag-fraction": (["run", "--budget", "3001/2"], RUN),
    "run-budget-flag-bad": (["run", "--budget", "many"], RUN),
    "run-tiny-budget": (["run"], config("run", {"budget": 5})),
    "run-env-dir": (["run"], RUN),
    "bench-default": (["benchmark"], BENCH),
    "bench-flags": (["benchmark", "--seed", "9", "--jobs", "2", "--output-dir", "b"], BENCH),
    "bench-full": (
        ["benchmark"],
        config("benchmark", {"datasets": ["toy.libsvm", "other.libsvm"], "baseline": "mfea",
                             "solvers": [{"kind": "single_task_ga", "label": "g a", "delta": None},
                                         {"kind": "mfea", "rmp": 0.5},
                                         {"kind": "emea", "label": "e", "delta": 2, "pop_size": 4}],
                             "s": "1/5", "lambda": 0.25, "delta": 4, "budget": "1500",
                             "output_dir": "b"}),
    ),
    "bench-tiny-budget": (["benchmark"], config("benchmark", {"budget": 3})),
    "bench-same-stem": (["benchmark"], config("benchmark", {"datasets": ["toy.libsvm", "./toy.libsvm"]})),
    "land-default": (["landscape"], LAND),
    "land-flags": (["landscape", "--seed", "4", "--output-dir", "l"], config("landscape", {"s": "1", "lambda": 0.5})),
    "cost-default": (["costmodel"], COST),
    "cost-flags": (["costmodel", "--seed", "3", "--output-dir", "c"], config("costmodel", {"rates": ["1/4", 0.5]})),
    # 3/7 has no exact decimal form: its theoretical ratio (3/7 / 1/10)^2 = 900/49 is exact only as a Fraction
    "cost-fraction-rate": (["costmodel"], config("costmodel", {"rates": ["3/7", "1/10"]})),
    "validate-run": (["validate-config"], RUN),
    "validate-run-seed-flag": (["validate-config", "--seed", "2"], config("run", {"seed": DROP})),
    "validate-bench": (["validate-config", "--kind", "benchmark"], BENCH),
    "validate-land": (["validate-config", "--kind", "landscape"], LAND),
    "validate-cost": (["validate-config", "--kind", "costmodel"], COST),
    "validate-wrong-kind": (["validate-config", "--kind", "landscape"], RUN),
    "config-missing": (["run"], None),
    "config-not-json": (["run"], "{nope"),
    "config-not-object": (["validate-config"], "[1, 2]"),
    "data-missing": (["run"], config("run", {"dataset": "absent.libsvm"})),
    "data-malformed": (["run"], config("run", {"dataset": "bad.libsvm"})),
    "data-missing-bench": (["benchmark"], config("benchmark", {"datasets": ["toy.libsvm", "absent.libsvm"]})),
    "data-index-too-large": (["run"], config("run", {"dataset": "huge-index.libsvm"})),
    "data-too-large-to-scale": (["run"], config("run", {"dataset": "huge-dim.libsvm"})),
    "data-crlf-comments": (["run"], config("run", {"dataset": "crlf-comments.libsvm"})),
    "data-python-numbers": (["run"], config("run", {"dataset": "python-numbers.libsvm"})),
    "data-hex-value": (["run"], config("run", {"dataset": "hex-value.libsvm"})),
    "data-two-colons": (["run"], config("run", {"dataset": "two-colons.libsvm"})),
    "data-comment-form-feed": (["run"], config("run", {"dataset": "comment-form-feed.libsvm"})),
    "data-unicode-digit-index": (["run"], config("run", {"dataset": "unicode-digit-index.libsvm"})),
    "data-crlf-across-reads": (["run"], config("run", {"dataset": "crlf-across-reads.libsvm"})),
    "data-fault-in-last-block": (["run"], config("run", {"dataset": "fault-in-last-block.libsvm"})),
}
BAD_DATASETS = {
    "bad.libsvm": "+1 1:0.5 oops\n-1 1:0.1\n",
    "huge-index.libsvm": "+1 1:0.5 9223372036854775808:1\n-1 1:0.1\n",
    "huge-dim.libsvm": "+1 1:0.5 4611686018427387904:1\n-1 1:0.1\n",
}
# files at the edges of the grammar: comments, line ends other than \n,
# whitespace other than spaces, and numbers Python reads but LIBSVM does not
_CRLF_ROWS = serialize_libsvm(make_gaussian_dataset(2, n_pos=20, n_neg=25, dim=3)).splitlines()
_NUMBER_ROWS = serialize_libsvm(make_gaussian_dataset(3, n_pos=20, n_neg=25, dim=3)).splitlines()
GRAMMAR_EDGE_DATASETS = {
    "crlf-comments.libsvm": "# generated\r\n" + "".join(f"{row} # row {i}\r\n" for i, row in enumerate(_CRLF_ROWS)),
    "python-numbers.libsvm": "".join(
        row.replace("+1 ", "1_0 ", 1).replace(" 3:", " +3:") + "\n" for row in _NUMBER_ROWS
    ),
    "hex-value.libsvm": "+1 1:0x1p3\n-1 1:0.1\n",
    "two-colons.libsvm": "+1 1:2:3\n-1 1:0.1\n",
    # \f, which str.splitlines() takes for a line break, inside a comment
    "comment-form-feed.libsvm": "# generated\fby hand\n" + "".join(row + "\n" for row in _CRLF_ROWS),
    "unicode-digit-index.libsvm": "+1 1:0.5 \u0662:1\n-1 1:0.1\n",
}

# files longer than one 1 MiB read, each written only for the case that reads it
_READ = 1 << 20
_FIRST_ROW = _CRLF_ROWS[0] + "\r\n"
MULTI_BLOCK_DATASETS = {
    # a comment sized so that the first row's \r ends the first read and its \n starts the second
    "crlf-across-reads.libsvm": "# " + "=" * (_READ - 3 - len(_FIRST_ROW)) + "\r\n" + _FIRST_ROW
    + "".join(f"{row}\r\n" for row in _CRLF_ROWS[1:]),
    # 18000 valid lines ended by \n, \r\n and \r in turn, then a bad value on line 18001
    "fault-in-last-block.libsvm": "".join(row + ("\n", "\r\n", "\r")[i % 3] for i, row in enumerate(_CRLF_ROWS * 400))
    + "+1 1:0.5 2:x\n",
}


def _drop_wall_clock(obj):
    if isinstance(obj, dict):
        return {k: _drop_wall_clock(v) for k, v in obj.items() if k not in WALL_CLOCK}
    if isinstance(obj, list):
        return [_drop_wall_clock(v) for v in obj]
    return obj


def _artifact_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.suffix == ".json":
        return json.dumps(_drop_wall_clock(json.loads(data)), sort_keys=True).encode()
    if path.name == "costmodel.csv":
        return "\n".join(",".join(line.split(",")[:2]) for line in data.decode().splitlines()).encode()
    return data


def run_case(workdir: Path, argv: list[str], raw) -> str:
    workdir.mkdir()
    inputs = dict(DATASETS, **BAD_DATASETS, **GRAMMAR_EDGE_DATASETS)
    inputs.update((name, text) for name, text in MULTI_BLOCK_DATASETS.items() if name in json.dumps(raw))
    if raw is not None:
        inputs["config.json"] = raw if isinstance(raw, str) else json.dumps(raw)
    for name, text in inputs.items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    os.chdir(workdir)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([argv[0], "--config", "config.json", *argv[1:]])
        except SystemExit as exc:
            code = exc.code
    artifacts = sorted(
        p for p in workdir.rglob("*") if p.is_file() and p.relative_to(workdir).as_posix() not in inputs
    )
    digests = " ".join(
        f"{p.relative_to(workdir).as_posix()}={hashlib.sha256(_artifact_bytes(p)).hexdigest()[:16]}"
        for p in artifacts
    )
    stdout = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return f"exit={code} stderr={err.getvalue()!r} stdout={stdout} {digests}".rstrip()


def digest_lines():
    """Yield the line of every case, in order. Clears ``EMTAUC_OUTPUT_DIR``
    and restores the working directory when done."""
    os.environ.pop("EMTAUC_OUTPUT_DIR", None)
    home = os.getcwd()
    cases = [(f"error{i:03d}-{kind}", [kind], json.dumps(raw)) for i, (kind, raw, _) in enumerate(ERROR_CASES)]
    cases += [(name, argv, raw) for name, (argv, raw) in VALID_CASES.items()]
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for name, argv, raw in cases:
                if name == "run-env-dir":
                    os.environ["EMTAUC_OUTPUT_DIR"] = "from-env"
                line = run_case(Path(tmp) / name, argv, raw)
                os.environ.pop("EMTAUC_OUTPUT_DIR", None)
                yield f"{name} {line}"
        finally:
            os.chdir(home)


def main() -> int:
    print(f"# numpy {numpy.__version__} scipy {scipy.__version__}", flush=True)
    for line in digest_lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
