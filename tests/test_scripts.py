import math
import runpy
import warnings
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_adjoint_crosscheck_gap_at_runs():
    script = runpy.run_path(str(SCRIPTS / "adjoint_crosscheck.py"))
    gap, ref = script["gap_at"](32, 4.0)
    assert math.isfinite(gap) and gap > 0.0
    assert math.isfinite(ref) and ref > 0.0


def test_adjoint_crosscheck_main_keeps_warning_filters(monkeypatch, capsys):
    script = runpy.run_path(str(SCRIPTS / "adjoint_crosscheck.py"))
    monkeypatch.setattr("sys.argv", ["adjoint_crosscheck.py", "4.0", "32"])
    before = list(warnings.filters)
    assert script["main"]() == 0
    assert warnings.filters == before
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["beta = 4.0", "n,gap_L2,relative"]
    assert len(lines) == 3 and lines[2].startswith("32,")
