"""Every transform in the package goes through ``grid.py``: no other module of
``src/morphoctl`` names ``numpy.fft``, so the FFT counts of the sweeps are counted in
one place.  grid calls numpy's private ``numpy.fft._pocketfft_umath`` gufuncs, imported
on one line, so a rename in numpy breaks that line alone; that line is grid's only use
of ``numpy.fft``, so ``rfft2``/``irfft2`` are the package's one transform path."""

import ast
from pathlib import Path

import morphoctl

SRC = Path(morphoctl.__file__).parent


def _fft_uses(tree: ast.AST) -> list[int]:
    """Line numbers of ``<numpy>.fft`` attributes, on any name numpy is imported as, and of
    imports from or of ``numpy.fft``; a gufunc named ``fft`` on another module is none."""
    numpy_names = {
        alias.asname or "numpy" for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy" or alias.name.startswith("numpy.") and not alias.asname
    }
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "fft"
                and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module and (
            node.module.startswith("numpy.fft")
            or node.module == "numpy" and any(a.name == "fft" for a in node.names)
        ):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.fft") for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def _pocketfft_names(tree: ast.AST) -> list[int]:
    """Line numbers of imports and attributes that name ``_pocketfft_umath``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            if any("_pocketfft_umath" in name for name in names):
                lines.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "_pocketfft_umath":
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


def test_pocketfft_is_imported_on_one_line_of_grid():
    names = {
        path.name: _pocketfft_names(ast.parse(path.read_text(), str(path)))
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(names) >= 11
    assert {name: len(lines) for name, lines in names.items() if lines} == {"grid.py": 1}
    # ... and that line is grid's only use of numpy.fft.
    assert _fft_uses(ast.parse((SRC / "grid.py").read_text())) == names["grid.py"]


def test_the_lint_finds_each_form_of_use():
    src = (
        "import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
        "from numpy.fft import rfft\nx = np.fft.rfft2(y)\n"
        "from numpy.fft import _pocketfft_umath as pfu\n"
        "import numpy.fft._pocketfft_umath\ny = numpy.fft._pocketfft_umath.fft\n"
        "z = pfu.fft(x)\nimport numpy as xp\nw = xp.fft.fft2(x)\n"
    )
    assert _fft_uses(ast.parse(src)) == [2, 3, 4, 5, 6, 7, 8, 11]
    assert _pocketfft_names(ast.parse(src)) == [6, 7, 8]
    assert _fft_uses(ast.parse((SRC / "grid.py").read_text()))  # grid.py itself does
