"""The layering of polarpcp's modules: hypermatrix is the base, which
imports no module of the package above it, the imports have no cycle, and
the package imports nothing but the standard library and numpy, its one
declared runtime dependency."""

import ast
import sys
from pathlib import Path

import polarpcp

SOURCE = Path(polarpcp.__file__).resolve().parent


def _imports():
    """Module name -> the names of the package's modules that it imports
    with a relative import, for every module but __init__."""
    graph = {}
    for path in sorted(SOURCE.glob("*.py")):
        if path.stem == "__init__":
            continue
        found = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # "from . import a" imports module a; "from .a import x" imports a.
                names = [alias.name for alias in node.names] if node.module is None else [node.module]
                found.update(name.split(".")[0] for name in names)
        graph[path.stem] = found
    return graph


def test_hypermatrix_is_the_base():
    assert _imports()["hypermatrix"] <= {"_blas", "_lapack"}


def test_the_imports_have_no_cycle():
    graph = _imports()
    done, path = set(), []

    def visit(module):
        assert module not in path, f"import cycle: {' -> '.join(path + [module])}"
        if module in done:
            return
        path.append(module)
        for target in sorted(graph[module]):
            visit(target)
        path.pop()
        done.add(module)

    assert set().union(*graph.values()) <= set(graph)
    for module in graph:
        visit(module)


def test_the_package_imports_only_the_standard_library_and_numpy():
    # Every CI job installs scipy, pytest and hypothesis before the package,
    # so only this test sees an import of them under src/.
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
