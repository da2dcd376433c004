"""Every transform in the package goes through ``grid.py``: no other module of
``src/morphoctl`` names ``numpy.fft``, so the FFT counts of the sweeps are counted in
one place."""

import ast
from pathlib import Path

import morphoctl

SRC = Path(morphoctl.__file__).parent


def _fft_uses(tree: ast.AST) -> list[int]:
    """Line numbers of ``<name>.fft`` attributes and of imports from or of ``numpy.fft``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "fft" and isinstance(node.value, ast.Name):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("numpy.fft")
            or node.module == "numpy" and any(a.name == "fft" for a in node.names)
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_grid_uses_numpy_fft():
    uses = {
        path.name: _fft_uses(ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "grid.py"
    }
    assert len(uses) >= 10  # the walk sees the package's modules
    assert {name: lines for name, lines in uses.items() if lines} == {}


def test_the_lint_finds_each_form_of_use():
    src = (
        "import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
        "from numpy.fft import rfft\nx = np.fft.rfft2(y)\n"
    )
    assert _fft_uses(ast.parse(src)) == [2, 3, 4, 5]
    assert _fft_uses(ast.parse((SRC / "grid.py").read_text()))  # grid.py itself does
