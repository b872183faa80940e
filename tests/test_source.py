"""Checks on the package source that no installed linter makes."""

import ast
import pathlib

import pytest

import kincal

MODULES = sorted(pathlib.Path(kincal.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"
