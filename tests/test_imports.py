"""Source checks on the package: every import is used."""

import ast
from pathlib import Path

import pytest

import patsim

MODULES = sorted(Path(patsim.__file__).parent.glob("*.py"))


def imported_names(tree) -> dict:
    """Each name an import statement binds, anywhere in the module, to its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def exported_names(tree) -> set:
    """The strings of the module's `__all__` list, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_read_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in read and name not in exported_names(tree)}
    assert not unused, f"{path.name} imports names it never reads: {unused}"
