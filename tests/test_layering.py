"""The package's module layering, read from each source file's imports,
and its export list."""
import ast
import types
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


def _scipy_stats_imports(nodes) -> list[ast.stmt]:
    """The statements among ``nodes`` and their children, function bodies
    excluded, that import ``scipy.stats`` or anything under it."""
    found = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = []
        if any(name == "scipy.stats" or name.startswith("scipy.stats.") for name in names):
            found.append(node)
        found.extend(_scipy_stats_imports(ast.iter_child_nodes(node)))
    return found


def test_no_module_imports_scipy_stats_at_import_time():
    # scipy.stats doubles the resident memory of a process; only the
    # functions that rank load it, on their first call
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not _scipy_stats_imports(tree.body), f"{path.name} imports scipy.stats at import time"
    lazy = {
        node.name
        for node in ast.walk(ast.parse((PACKAGE / "analysis.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and _scipy_stats_imports(node.body)
    }
    assert lazy == {"spearman_rho", "compare_cells"}


def test_export_list_names_every_public_attribute():
    # a removed name cannot linger in __all__, nor a new one stay unlisted
    import emtauc

    assert [name for name in emtauc.__all__ if not hasattr(emtauc, name)] == []
    public = {
        name for name, value in vars(emtauc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public - set(emtauc.__all__)) == []


def test_only_evaluate_and_the_driver_read_the_ledger_in_solvers():
    # one budget path: _evaluate charges every batch and the driver stops
    # the run once the ledger is exhausted; no solver checks the budget
    readers = set()
    for node in ast.parse((PACKAGE / "solvers.py").read_text(encoding="utf-8")).body:
        if any(isinstance(sub, ast.Attribute) and sub.attr == "ledger" for sub in ast.walk(node)):
            readers.add(getattr(node, "name", type(node).__name__))
    assert readers == {"_evaluate", "dispatch_solver"}
