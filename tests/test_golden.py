"""The committed outputs of ``scripts/trace_digest.py`` and ``scripts/cli_digest.py``.

``tests/golden/`` holds both scripts' full output, headed by the numpy and
scipy versions it was made with: the RNG stream and the CSR summation order
come from those two packages, so a failure on another stack is told apart
from a code change. These tests regenerate both files in full and fail on a
changed, missing or extra key; they are the byte-compare gate for the
solvers, the parser and the command line.

The trace grid's certified sets (the 6000 x 20 pair and the 768 x 8 set of
the paper's size) run a second time, in a subprocess at another OpenBLAS
thread count (1 or 2), against the same golden lines: they are the only
runs whose full views reach the certified BLAS path, which must give the
same bytes whatever the threads. The 768 x 8 set's golden lines were made
while its view still took the CSR path, so they also pin the certified
counts to CSR bytes. The small sets' views hold 700-1024 nonzeros, below
that path's gate, as do every set's cheap views.

A deliberate artifact change regenerates the golden file in the same
change, and its diff lists the keys that changed.
"""
import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@functools.cache
def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_matches_golden(name: str, lines, datasets=None) -> None:
    """Compare each ``key rest`` line with the golden line of its key, in
    order, and fail on the first key that differs or that the golden file
    lacks; then fail if a golden key was not regenerated, or came twice.
    ``datasets``, if given, limits the golden keys to those whose first
    ``/`` segment it names."""
    header, *golden = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    want = dict(line.split(" ", 1) for line in golden)
    if datasets is not None:
        want = {key: rest for key, rest in want.items() if key.split("/", 1)[0] in datasets}
    seen = []
    for line in lines:
        key, got = line.split(" ", 1)
        assert key in want, f"key not in golden {name}: {key}"
        assert got == want[key], (
            f"first differing key in {name}: {key}\n  golden: {want[key]}\n  now:    {got}\n"
            f"golden made with {header.lstrip('# ')}; this run numpy {np.__version__} scipy {scipy.__version__}"
        )
        seen.append(key)
    missing = sorted(want.keys() - set(seen))
    assert not missing, f"{len(missing)} golden keys of {name} not regenerated, first: {missing[0]}"
    assert len(seen) == len(want), f"a key of {name} came more than once"


def test_trace_digest_matches_golden():
    _assert_matches_golden("trace_digest.txt", _script("trace_digest").digest_lines())


# prints the digest lines of the trace grid's certified sets; argv[1] is the script
_PRINT_CERTIFIED_VIEWS = """
import runpy, sys
digest = runpy.run_path(sys.argv[1])
for line in digest["digest_lines"](digest["GRIDS"][1:]):
    print(line)
"""


def test_trace_digest_large_views_are_blas_thread_independent():
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", _PRINT_CERTIFIED_VIEWS, str(ROOT / "scripts" / "trace_digest.py")],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    certified_sets = _script("trace_digest").GRIDS[1][0]
    _assert_matches_golden("trace_digest.txt", run.stdout.splitlines(), datasets=certified_sets)


def test_cli_digest_matches_golden(monkeypatch, tmp_path):
    monkeypatch.delenv("EMTAUC_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    _assert_matches_golden("cli_digest.txt", _script("cli_digest").digest_lines())
