import math
import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_adjoint_crosscheck_gap_at_runs():
    script = runpy.run_path(str(SCRIPTS / "adjoint_crosscheck.py"))
    gap, ref = script["gap_at"](32, 4.0)
    assert math.isfinite(gap) and gap > 0.0
    assert math.isfinite(ref) and ref > 0.0
