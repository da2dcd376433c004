import math
import runpy
import warnings
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_adjoint_crosscheck_gap_at_runs():
    script = runpy.run_path(str(SCRIPTS / "adjoint_crosscheck.py"))
    # Its dt exceeds the advisory bound, which only the command line reports:
    # under the suite's warning filter any warning fails here.
    gap, ref = script["gap"](*script["problem_at"](32, 4.0))
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


@pytest.mark.parametrize("args", [["4.0", "16"], ["4.0", "32", "2"], ["4.0", "abc"], ["x"]],
                         ids=["unresolved", "too-small", "level-unparsable", "beta-unparsable"])
def test_adjoint_crosscheck_reports_a_bad_level_as_a_config_error(monkeypatch, capsys, args):
    # As the command line does: one stderr line, exit 2, and no level runs.
    script = runpy.run_path(str(SCRIPTS / "adjoint_crosscheck.py"))
    monkeypatch.setattr("sys.argv", ["adjoint_crosscheck.py", *args])
    assert script["main"]() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("config error: ")


def test_twin_experiment_builds_its_problem_once(monkeypatch, tmp_path, capsys):
    from morphoctl import config

    text = (SCRIPTS.parent / "configs" / "twin.cfg").read_text()
    for old, new in (("grid.nx = 32", "grid.nx = 16"), ("grid.ny = 32", "grid.ny = 16"),
                     ("opt.max_iters = 100", "opt.max_iters = 1")):
        text = text.replace(old, new)
    path = tmp_path / "twin16.cfg"
    path.write_text(text)
    builds = []
    build_kernel = config.build_kernel
    monkeypatch.setattr(config, "build_kernel", lambda g, r: builds.append(r) or build_kernel(g, r))
    script = runpy.run_path(str(SCRIPTS / "twin_experiment.py"))
    monkeypatch.setattr("sys.argv", ["twin_experiment.py", str(path)])
    assert script["main"]() == 0
    assert len(builds) == 1
    out = capsys.readouterr().out
    assert out.startswith("termination        : ")
    assert "\ntangent solves     : 1\n" in out
