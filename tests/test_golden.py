"""The committed outputs of ``scripts/trace_digest.py`` and ``scripts/cli_digest.py``.

``tests/golden/`` holds both scripts' full output, headed by the numpy and
scipy versions it was made with: the RNG stream and the CSR summation order
come from those two packages, so a failure on another stack is told apart
from a code change. These tests regenerate all of the CLI cases and a slice
of the trace grid; the full trace gate is

    diff <(PYTHONPATH=src python scripts/trace_digest.py) tests/golden/trace_digest.txt

A deliberate artifact change regenerates the golden file in the same
change, and its diff lists the keys that changed.
"""
import importlib.util
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


def test_trace_digest_slice_matches_golden():
    # seed 0 at jobs 1 of every grid: all of the large-view grid's axes but
    # its second seed, and the small grid's datasets, budgets, deltas and
    # variants; the full grid adds seeds 1-2 and jobs 2
    digest = _script("trace_digest")
    grids = [(datasets, kinds, (0,), (1,), *rest) for datasets, kinds, _, _, *rest in digest.GRIDS]
    assert len(_assert_matches_golden("trace_digest.txt", digest.digest_lines(grids))) == 324


def test_cli_digest_matches_golden(monkeypatch, tmp_path):
    monkeypatch.delenv("EMTAUC_OUTPUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    seen = _assert_matches_golden("cli_digest.txt", _script("cli_digest").digest_lines())
    assert len(seen) == 160
