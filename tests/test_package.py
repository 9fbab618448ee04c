"""Package hygiene: every docstring example runs, and no module imports a name
it never uses."""

import ast
import doctest
import importlib
import pathlib

import spinhecke

PACKAGE = pathlib.Path(spinhecke.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_docstring_examples_pass():
    attempted = 0
    for path in SOURCES:
        if path.stem == "__main__":
            continue  # importing it runs the command line
        name = "spinhecke" if path.stem == "__init__" else f"spinhecke.{path.stem}"
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted += result.attempted
    assert attempted > 0


def _unused_imports(path: pathlib.Path) -> list:
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_unused_imports():
    unused = {
        path.name: names for path in SOURCES if (names := _unused_imports(path))
    }
    assert unused == {}
