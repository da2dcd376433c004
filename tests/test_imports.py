"""Every name a module of ``src/``, ``tests/`` or ``scripts/`` imports is used in that module."""

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
