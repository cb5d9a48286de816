"""The package's module layering, read from each source file's imports."""
import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "emtauc"


def _package_imports(path: Path) -> set[str]:
    """The emtauc modules that ``path`` imports, relatively or by name."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                modules.add(node.module.split(".")[0])
            elif node.level == 1:
                modules.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("emtauc."):
                modules.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            modules.update(
                alias.name.split(".")[1] for alias in node.names if alias.name.startswith("emtauc.")
            )
    return modules


GRAPH = {path.stem: _package_imports(path) for path in sorted(PACKAGE.glob("*.py"))}


def test_import_graph_reads_every_module():
    assert {"config", "data", "environment", "solvers", "analysis", "cli"} <= set(GRAPH)
    assert GRAPH["analysis"] >= {"config", "solvers"}


def test_import_graph_is_acyclic():
    try:
        tuple(TopologicalSorter(GRAPH).static_order())
    except CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_config_imports_only_the_data_and_environment_layers():
    assert GRAPH["config"] == {"data", "environment"}
