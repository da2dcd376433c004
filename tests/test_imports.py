"""Every name a module of ``src/``, ``tests/`` or ``scripts/`` imports is used in that module,
and every function, method and module-level constant ``src/`` defines is referenced somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names only to re-export them.
MODULES = sorted(
    p for d in ("src/morphoctl", "tests", "scripts") for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)
# Where a reference to a name of src/ counts.
REFERRING = ("src/morphoctl", "tests", "scripts", "perfbench")


def parsed(*dirs):
    return [ast.parse(p.read_text(encoding="utf-8")) for d in dirs for p in (ROOT / d).glob("*.py")]


def imported_names(tree: ast.Module):
    """The names an import binds, ``from __future__`` excepted."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(imported_names(tree)) - used) == []


def referenced_names():
    """Every name and attribute read or written anywhere a reference counts."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for tree in parsed(*REFERRING) for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_module_function_is_referenced():
    # A helper that loses its last caller fails here; a name or attribute anywhere counts.
    defined = {node.name for tree in parsed("src/morphoctl") for node in tree.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    assert sorted(defined - referenced_names()) == []


def test_every_class_method_is_referenced():
    # A method that loses its last caller fails here, properties included; dunders are
    # called by Python itself.
    defined = {f"{cls.name}.{node.name}" for tree in parsed("src/morphoctl") for cls in tree.body
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    used = referenced_names()
    assert sorted(name for name in defined if name.split(".")[1] not in used) == []


def test_every_module_constant_is_read():
    # A constant that loses its last reader fails here; a read by name or an attribute counts.
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in parsed(*REFERRING) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    defined = {target.id for tree in parsed("src/morphoctl") for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and not target.id.startswith("__")}
    assert sorted(defined - read) == []
