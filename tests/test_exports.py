"""Every name that an ftnet module exports resolves, and every private helper is used."""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import ftnet

MODULES = ["ftnet"] + [f"ftnet.{m.name}" for m in pkgutil.iter_modules(ftnet.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def names_in(stmt):
    """The names a statement reads: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_helper_has_a_caller():
    """Each module-level private function or class in ftnet is referenced in
    ftnet beyond its own definition, so a helper a refactor orphans fails."""
    src = pathlib.Path(ftnet.__file__).parent
    statements = [stmt for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body]
    used = [names_in(stmt) for stmt in statements]
    orphans = [
        stmt.name for stmt in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_") and not stmt.name.startswith("__")
        and not any(stmt.name in names for other, names in zip(statements, used) if other is not stmt)
    ]
    assert orphans == []
