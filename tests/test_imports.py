"""Every name a module of ``src/``, ``tests/`` or ``scripts/`` imports is used in that module,
and every function ``src/`` defines is referenced somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The package's __init__ imports names only to re-export them.
MODULES = sorted(
    p for d in ("src/morphoctl", "tests", "scripts") for p in (ROOT / d).glob("*.py")
    if p.name != "__init__.py"
)


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


def test_every_module_function_is_referenced():
    # A helper that loses its last caller fails here; a name or attribute anywhere counts.
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for d in ("src/morphoctl", "tests", "scripts", "perfbench") for p in (ROOT / d).glob("*.py")]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {node.name
               for p in (ROOT / "src/morphoctl").glob("*.py")
               for node in ast.parse(p.read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef) and not node.name.startswith("__")}
    assert sorted(defined - used) == []
