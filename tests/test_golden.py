"""The committed outputs of ``scripts/trace_digest.py`` and ``scripts/cli_digest.py``.

``tests/golden/`` holds both scripts' full output, headed by the numpy and
scipy versions it was made with: the RNG stream and the CSR summation order
come from those two packages, so a failure on another stack is told apart
from a code change. These tests regenerate all of the CLI cases and a slice
of the trace grid; the full trace gate is

    diff <(PYTHONPATH=src python scripts/trace_digest.py) tests/golden/trace_digest.txt

The slice runs twice, in this process and in a subprocess at another
OpenBLAS thread count (1 or 2), against the same golden lines: the
certified BLAS path must give the same bytes whatever the threads.

A deliberate artifact change regenerates the golden file in the same
change, and its diff lists the keys that changed.
"""
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


def _script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_matches_golden(name: str, lines) -> set[str]:
    """Compare each ``key rest`` line with the golden line of its key, in
    order, and fail on the first key that differs. Returns the keys seen."""
    header, *golden = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    want = dict(line.split(" ", 1) for line in golden)
    seen = set()
    for line in lines:
        key, got = line.split(" ", 1)
        assert got == want.get(key), (
            f"first differing key in {name}: {key}\n  golden: {want.get(key)}\n  now:    {got}\n"
            f"golden made with {header.lstrip('# ')}; this run numpy {np.__version__} scipy {scipy.__version__}"
        )
        seen.add(key)
    return seen


def seed0_slice(digest):
    """Seed 0 at jobs 1 of every grid: all of the large-view grid's axes but
    its second seed, and the small grid's datasets, budgets, deltas and
    variants; the full grid adds seeds 1-2 and jobs 2."""
    return [(datasets, kinds, (0,), (1,), *rest) for datasets, kinds, _, _, *rest in digest.GRIDS]


def test_trace_digest_slice_matches_golden():
    digest = _script("trace_digest")
    assert len(_assert_matches_golden("trace_digest.txt", digest.digest_lines(seed0_slice(digest)))) == 324


# prints the slice's digest lines, run with the tests directory as argv[1]
_PRINT_SLICE = """
import sys
sys.path.insert(0, sys.argv[1])
import test_golden
digest = test_golden._script("trace_digest")
for line in digest.digest_lines(test_golden.seed0_slice(digest)):
    print(line)
"""


def test_trace_digest_slice_is_blas_thread_independent():
    threads = "2" if os.environ.get("OPENBLAS_NUM_THREADS") == "1" else "1"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    run = subprocess.run(
        [sys.executable, "-c", _PRINT_SLICE, str(ROOT / "tests")],
        env=env, capture_output=True, text=True, timeout=300, check=False,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(_assert_matches_golden("trace_digest.txt", lines)) == len(lines) == 324


def test_cli_digest_matches_golden(monkeypatch, tmp_path):
    monkeypatch.delenv("EMTAUC_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    seen = _assert_matches_golden("cli_digest.txt", _script("cli_digest").digest_lines())
    assert len(seen) == 160
