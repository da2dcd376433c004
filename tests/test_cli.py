import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from morphoctl.cli import main
from morphoctl.fieldio import read_snapshot, write_snapshot
from morphoctl.grid import Grid

from conftest import flip_misfit_source_sign

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

SMALL = """
grid.nx = 16
grid.ny = 16
grid.Lx = 1.0
grid.Ly = 1.0
time.T = 0.02
time.dt = 1e-3
model.beta = 1.0
model.alpha = 1.0
kernel.radius = 0.25
control.delta = 1e-3
init.m0 = cosine:0.15,1,1,0.1
init.phi0 = constant:0.6
target.phi_d = cosine:0.2,1,1,0.7
io.snapshot_stride = 10
opt.max_iters = 5
opt.step0 = 100.0
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL)
    return str(path)


def test_simulate_writes_series_and_snapshots(cfg_path, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "n,t,mass_m,mass_phi,l2_m,l2_phi,h1_m,h1_phi,viol_m,viol_phi"
    assert len(lines) == 1 + 21  # nt+1 data rows
    nx, ny, t, values = read_snapshot(out / "m_000000.mcf")
    assert (nx, ny, t) == (16, 16, 0.0)
    assert values.shape == (16, 16)
    assert read_snapshot(out / "phi_000020.mcf")[2] == 20 * 1e-3  # slice n sits at n * dt


def test_simulate_series_blocks_match_whole_stack(tmp_path, capsys, monkeypatch):
    from morphoctl import grid
    from morphoctl.config import build_problem, load_config
    from morphoctl.forward import solve_state
    from morphoctl.grid import h1, integral, l2

    path = tmp_path / "long.cfg"
    path.write_text(SMALL.replace("time.T = 0.02", "time.T = 0.1"))
    problem = build_problem(load_config(str(path)))
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 32 * 2 * 8 * 16 * 16)  # 32 slices of m and phi at 16^2
    slices = problem.params.nt + 1
    assert slices > 2 * 32 and slices % 32  # last block partial
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
    rows = [ln.split(",") for ln in (out / "series.csv").read_text().splitlines()[1:]]
    traj = solve_state(problem.init, problem.theta, problem.params)
    g = problem.grid
    assert [int(r[0]) for r in rows] == list(range(problem.params.nt + 1))
    for col, values in enumerate(
        (integral(g, traj.m), integral(g, traj.phi), l2(g, traj.m), l2(g, traj.phi),
         h1(g, traj.m), h1(g, traj.phi)),
        start=2,
    ):
        assert [float(r[col]) for r in rows] == values.tolist()


def test_kernel_info_prints_key_values(cfg_path, capsys):
    assert main(["kernel-info", "--config", cfg_path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    keys = {ln.split("=", 1)[0] for ln in lines}
    assert {"integral", "max_value", "support_cells", "odd_residual"} <= keys


@pytest.mark.parametrize("shipped", [None, "twin.cfg"], ids=["small", "twin"])
def test_gradcheck_passes(shipped, cfg_path, capsys):
    # twin.cfg's cost is ~5e-9, so a too-small FD step meets round-off there.
    path = cfg_path if shipped is None else str(CONFIGS / shipped)
    assert main(["gradcheck", "--config", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "direction,fd,adjoint,rel_error"
    assert len(out) == 6
    for line in out[1:]:
        assert float(line.split(",")[3]) <= 1e-6


def test_gradcheck_fails_on_a_wrong_adjoint_sign(cfg_path, monkeypatch, capsys):
    flip_misfit_source_sign(monkeypatch)
    assert main(["gradcheck", "--config", cfg_path]) == 1
    assert "gradcheck failed: worst relative error" in capsys.readouterr().err


def test_taylor_fails_on_a_scaled_tangent(cfg_path, monkeypatch, capsys):
    from morphoctl import linearized

    solve = linearized.solve_linearized

    def scaled(traj, h):
        tan = solve(traj, h)
        return dataclasses.replace(tan, phi1=1.1 * tan.phi1, phi2=1.1 * tan.phi2)

    monkeypatch.setattr(linearized, "solve_linearized", scaled)
    assert main(["taylor", "--config", cfg_path]) == 1
    assert "taylor failed: orders deviate from 2" in capsys.readouterr().err


@pytest.mark.parametrize("direction", ["noise:0.1,-1", "bogus:1", "constant:inf"])
def test_bad_taylor_direction_names_the_flag(direction, cfg_path, capsys):
    assert main(["taylor", "--config", cfg_path, "--direction", direction]) == 2
    assert "config error: --direction: " in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "morphoctl", "kernel-info", "--config", str(CONFIGS / "default.cfg")],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "integral=1.0" in proc.stdout.splitlines()


def test_taylor_prints_table(cfg_path, capsys):
    assert main(["taylor", "--config", cfg_path, "--direction", "cosine:0.5,2,1,0.2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "eps,remainder,first_order_quotient"
    orders = [float(v) for v in out[-1].split(",")[1:]]
    assert all(1.9 <= o <= 2.1 for o in orders)


def test_optimize_writes_history_and_result(cfg_path, tmp_path, capsys):
    out = tmp_path / "opt"
    assert main(["optimize", "--config", cfg_path, "--out-dir", str(out)]) == 0
    history = (out / "opt_history.csv").read_text().splitlines()
    assert history[0] == "iter,cost,misfit,reg,stationarity,step"
    costs = [float(ln.split(",")[1]) for ln in history[1:]]
    assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))
    assert (out / "result.txt").read_text().startswith("termination:")
    assert (out / "theta_000000.mcf").exists()
    lines = (out / "result.txt").read_text().splitlines()
    result = dict(ln.split(": ", 1) for ln in lines)
    # One initial solve, then at least one trial per completed iteration.
    assert int(result["forward_solves"]) >= 1 + int(result["iterations"])
    # At most one tangent sweep: iteration 0's first trial.
    assert lines.index(f"tangent_solves: {result['tangent_solves']}") == 3
    assert int(result["tangent_solves"]) <= 1


def test_optimize_line_search_failure_exits_nonzero(tmp_path, capsys):
    # step0 below the fixed S_MIN = 1e-12: the search fails at iteration 0.
    path = tmp_path / "tiny_step.cfg"
    path.write_text(SMALL.replace("opt.step0 = 100.0", "opt.step0 = 1e-13"))
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(path), "--out-dir", str(out)]) == 1
    assert (out / "result.txt").read_text().startswith("termination: line_search_failed\n")
    assert "line search failed" in capsys.readouterr().err
    # One step per completed iteration: only the last history row has none.
    result = dict(ln.split(": ", 1) for ln in (out / "result.txt").read_text().splitlines())
    iterations = int(result["iterations"])
    steps = [row.split(",")[-1] for row in (out / "opt_history.csv").read_text().splitlines()[1:]]
    assert len(steps) == iterations + 1 and steps[-1] == "nan"
    assert "nan" not in steps[:-1]


def test_optimize_stalled_exits_zero(tmp_path, capsys):
    # tol 1e-16 is below what the cost can resolve: the search stalls at round-off.
    path = tmp_path / "stall.cfg"
    path.write_text(
        SMALL.replace("opt.max_iters = 5", "opt.max_iters = 200").replace(
            "opt.step0 = 100.0", "opt.step0 = 1e4\nopt.tol = 1e-16"
        )
    )
    out = tmp_path / "opt"
    assert main(["optimize", "--config", str(path), "--out-dir", str(out)]) == 0
    assert (out / "result.txt").read_text().startswith("termination: stalled\n")


def test_verify_small_config(tmp_path, capsys):
    # Without a target and with a control, verify makes its own target and
    # solves the bounds row again at zero control.  With fields read from
    # 36x36 snapshots, the projection row's coarsened copy keeps their grid.
    controlled = SMALL.replace("target.phi_d = cosine:0.2,1,1,0.7", "control.theta = constant:0.2")
    g = Grid(36, 36, 1.0, 1.0)
    X, Y = g.cell_centers()
    m0, theta = tmp_path / "m0.mcf", tmp_path / "theta.mcf"
    write_snapshot(m0, g, 0.0, 0.15 * np.cos(2 * np.pi * X) + 0.1)
    write_snapshot(theta, g, 0.0, 0.3 + 0.1 * np.cos(2 * np.pi * Y))
    from_files = SMALL
    for old, new in [
        ("grid.nx = 16", "grid.nx = 36"),
        ("grid.ny = 16", "grid.ny = 36"),
        ("time.T = 0.02", "time.T = 0.01"),
        ("init.m0 = cosine:0.15,1,1,0.1", f"init.m0 = file:{m0}"),
        ("target.phi_d = cosine:0.2,1,1,0.7", f"target.phi_d = twin:file:{theta}"),
    ]:
        from_files = from_files.replace(old, new)
    for name, text in (("small", SMALL), ("controlled", controlled), ("files", from_files)):
        path = tmp_path / f"{name}.cfg"
        path.write_text(text)
        out = tmp_path / name
        code = main(["verify", "--config", str(path), "--out-dir", str(out)])
        report = (out / "verify_report.csv").read_text().splitlines()
        assert report[0] == "name,measured,threshold,pass"
        assert len(report) == 10  # nine checks
        assert code == 0, capsys.readouterr().out


# A run whose forward solve blows up.
BLOWUP = SMALL.replace("time.dt = 1e-3", "time.dt = 2e-2").replace(
    "time.T = 0.02", "time.T = 0.4"
).replace("model.beta = 1.0", "model.beta = 60.0").replace(
    "init.m0 = cosine:0.15,1,1,0.1", "init.m0 = cosine:0.55,3,2,0.0"
).replace("init.phi0 = constant:0.6", "init.phi0 = constant:0.95")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_records_blowup_as_failing_rows(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BLOWUP)
    out = tmp_path / "verify_bad"
    code = main(["verify", "--config", str(path), "--out-dir", str(out)])
    assert code == 1
    captured = capsys.readouterr()
    assert "NonFinite" in captured.out or "blow-up" in captured.out
    assert "verify failed" in captured.err
    # Every row that needs the base solve reports its blow-up, none a lookup error.
    failed = [ln for ln in captured.err.splitlines() if ln.startswith("verify failed")]
    assert len(failed) == 9
    assert not any("KeyError" in ln for ln in failed)
    assert all("NonFinite: blow-up at step" in ln for ln in failed)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulate_blowup_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(BLOWUP)
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "solver blow-up: blow-up at step" in err
    assert err.count("blow-up at step") == 1


def test_missing_config_key_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.cfg"
    path.write_text(SMALL.replace("model.beta = 1.0", ""))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "model.beta" in capsys.readouterr().err


def test_seed_override_is_validated(tmp_path, capsys):
    from morphoctl.config import build_problem, load_config

    # |m0| <= |phi0| holds at the file's seed 0 and fails at seed 25.
    text = SMALL.replace("init.m0 = cosine:0.15,1,1,0.1", "init.m0 = noise:0.9,1")
    path = tmp_path / "seeded.cfg"
    path.write_text(text)
    build_problem(load_config(str(path)))
    out = tmp_path / "s25"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out), "--seed", "25"]) == 2
    assert "config error: init.m0: " in capsys.readouterr().err
    # A negative seed is the seed's own error, before any noise field draws on it.
    assert main(["simulate", "--config", str(path), "--out-dir", str(out), "--seed", "-1"]) == 2
    assert "config error: seed: " in capsys.readouterr().err


def test_out_dir_that_is_a_file_is_an_io_error(cfg_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["simulate", "--config", cfg_path, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err  # after the advisory line SMALL's dt draws
    assert err.splitlines()[-1] == f"io error: [Errno 17] File exists: {str(out)!r}"


def test_oversized_snapshot_header_is_config_error(tmp_path, capsys):
    # A header this large overflows the read size unless it is checked first.
    snap = tmp_path / "huge.mcf"
    snap.write_bytes(b"MCFIELD 1 10000000000 10000000000 0.0\n" + b"\x00" * 128)
    path = tmp_path / "huge.cfg"
    path.write_text(SMALL.replace("init.m0 = cosine:0.15,1,1,0.1", f"init.m0 = file:{snap}"))
    assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "config error: init.m0: " in capsys.readouterr().err


@pytest.mark.parametrize("command, key, old, new", [
    ("optimize", "opt.tol", "opt.step0 = 100.0", "opt.step0 = 100.0\nopt.tol = -1.0"),
    ("optimize", "opt.step0", "opt.step0 = 100.0", "opt.step0 = inf"),
    ("optimize", "opt.c1", "opt.step0 = 100.0", "opt.step0 = 100.0\nopt.c1 = 1.5"),
    ("simulate", "model.beta", "model.beta = 1.0", "model.beta = inf"),
    ("simulate", "grid.Lx", "grid.Lx = 1.0", "grid.Lx = inf"),
    ("simulate", "init.m0", "init.m0 = cosine:0.15,1,1,0.1", "init.m0 = noise:0.1,-1"),
    ("simulate", "init.m0", "init.m0 = cosine:0.15,1,1,0.1", "init.m0 = cosine:1,2"),
    ("simulate", "grid.nx", "grid.nx = 16", "grid.nx = 1.5"),
    ("simulate", "line 2", "grid.nx = 16", "grid.nx ="),
    ("gradcheck", "seed", "opt.step0 = 100.0", "opt.step0 = 100.0\nseed = -1"),
])
def test_rule_breaking_value_names_its_key(command, key, old, new, tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(SMALL.replace(old, new))
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: {key}: " in capsys.readouterr().err


def test_seed_override_changes_noise(tmp_path):
    text = SMALL.replace("init.m0 = cosine:0.15,1,1,0.1", "init.m0 = noise:0.2,2")
    path = tmp_path / "seeded.cfg"
    path.write_text(text)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["simulate", "--config", str(path), "--out-dir", str(out1), "--seed", "1"]) == 0
    assert main(["simulate", "--config", str(path), "--out-dir", str(out2), "--seed", "2"]) == 0
    a = read_snapshot(out1 / "m_000000.mcf")[3]
    b = read_snapshot(out2 / "m_000000.mcf")[3]
    assert not np.array_equal(a, b)


def test_verify_deterministic_given_seed(tmp_path):
    from morphoctl.config import load_config
    from morphoctl.verify import run_verify

    path = tmp_path / "det.cfg"
    path.write_text(SMALL)
    cfg = load_config(str(path))
    a = run_verify(cfg)
    b = run_verify(cfg)
    assert [(r.name, r.measured, r.passed) for r in a.rows] == [
        (r.name, r.measured, r.passed) for r in b.rows
    ]


def test_verify_shares_its_base_run_and_adjoint(cfg_path, monkeypatch):
    # The configured control's forward run and its discrete adjoint against the
    # verify target are solved once, and the rows that need them share them.
    # On the coarsened copy every solve is pgd_optimize's: the projection row
    # reads the adjoint at the optimum from its result.
    from morphoctl import control, forward, linearized, verify
    from morphoctl.config import load_config

    problems, forwards, adjoints, in_pgd = [], [], [], [False]
    build = verify.build_problem
    adjoint, pgd = control.solve_adjoint_discrete, control.pgd_optimize

    def built(cfg):
        problems.append(build(cfg))
        return problems[-1]

    def counted(solve):
        def solved(init, theta, params):
            forwards.append((solve(init, theta, params), in_pgd[0]))
            return forwards[-1][0]

        return solved

    def adjoint_solved(traj, phi_d):
        adjoints.append((traj, phi_d, in_pgd[0]))
        return adjoint(traj, phi_d)

    def optimized(*args):
        in_pgd[0] = True
        try:
            return pgd(*args)
        finally:
            in_pgd[0] = False

    monkeypatch.setattr(verify, "build_problem", built)
    for module in (forward, linearized, control):
        monkeypatch.setattr(module, "solve_state", counted(module.solve_state))
    monkeypatch.setattr(control, "solve_adjoint_discrete", adjoint_solved)
    monkeypatch.setattr(control, "pgd_optimize", optimized)
    assert verify.run_verify(load_config(cfg_path)).all_passed
    main_problem, sub = problems  # the second is the coarsened copy

    def configured(traj):
        return traj.params is main_problem.params and np.array_equal(traj.theta, main_problem.theta)

    target = verify.target_for(main_problem)
    assert sum(configured(t) for t, _ in forwards) == 1
    assert sum(configured(t) and np.array_equal(pd, target) for t, pd, _ in adjoints) == 1
    coarse_forwards = [inside for t, inside in forwards if t.params is sub.params]
    coarse_adjoints = [inside for t, _, inside in adjoints if t.params is sub.params]
    assert coarse_forwards and all(coarse_forwards)
    assert coarse_adjoints and all(coarse_adjoints)


def test_taylor_fails_on_nan_orders(cfg_path, capsys):
    # A zero direction leaves every remainder 0, so every order is 0/0.
    assert main(["taylor", "--config", cfg_path, "--direction", "constant:0"]) == 1
    captured = capsys.readouterr()
    assert "orders,nan,nan,nan" in captured.out
    assert "taylor failed" in captured.err


COMMANDS = ("simulate", "optimize", "gradcheck", "taylor", "verify", "kernel-info")


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_builds_its_problem_once(command, cfg_path, tmp_path, monkeypatch, capsys):
    from morphoctl import config

    builds = []
    build_kernel = config.build_kernel

    def counted(grid, radius):
        builds.append(radius)
        return build_kernel(grid, radius)

    monkeypatch.setattr(config, "build_kernel", counted)
    assert main([command, "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 0
    # verify also builds the coarsened copy its optimization rows run on.
    assert len(builds) == (2 if command == "verify" else 1)


@pytest.mark.parametrize("command", COMMANDS)
def test_invalid_config_exits_2_on_every_command(command, tmp_path, capsys):
    # A broken rule, a control spec that only building the problem realizes, and a seed.
    for key, old, new in (("grid.nx", "grid.nx = 16", "grid.nx = 3"),
                          ("control.theta", "seed = 0", "control.theta = bogus:1"),
                          ("seed", "seed = 0", "seed = -1")):
        path = tmp_path / "bad.cfg"
        path.write_text((SMALL + "seed = 0\n").replace(old, new))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("dt", ["1e-320", "1e-200", "1e-19"])
def test_unindexable_step_count_exits_2(command, dt, tmp_path, capsys):
    # T/dt + 1 slices of the grid overflow the index range: a config error, not a traceback.
    path = tmp_path / "tiny_dt.cfg"
    path.write_text(SMALL.replace("time.dt = 1e-3", f"time.dt = {dt}"))
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert "config error: time.dt: " in capsys.readouterr().err


@pytest.mark.parametrize("command", COMMANDS)
def test_dt_advisory_is_one_stderr_line(command, cfg_path, tmp_path, capsys):
    # SMALL's dt exceeds the drift bound; every command but verify says so once.
    from morphoctl.config import build_problem, load_config

    params = build_problem(load_config(cfg_path)).params
    advisory = (f"warning: dt={params.dt} exceeds the conservative drift bound "
                f"{params.dt_stability_bound():.3e}; blow-up is detected at runtime")
    assert params.dt > params.dt_stability_bound()
    assert main([command, "--config", cfg_path, "--out-dir", str(tmp_path / "out")]) == 0
    lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning: dt=")]
    assert lines == ([] if command == "verify" else [advisory])


def test_no_dt_advisory_below_the_bound(capsys):
    assert main(["kernel-info", "--config", str(CONFIGS / "twin.cfg")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["simulate", "optimize"])
def test_unallocatable_history_is_one_stderr_line(command, tmp_path, capsys):
    # 5e12 slices of 32^2 can be indexed but not allocated; numpy refuses at once.
    path = tmp_path / "huge.cfg"
    path.write_text((CONFIGS / "twin.cfg").read_text().replace(
        "time.dt = 5e-5", "time.dt = 1e-15").replace("twin:constant:0.5", "constant:0.5"))
    assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("memory error: Unable to allocate") and err.count("\n") == 1


def test_nan_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(SMALL.replace("kernel.radius = 0.25", "kernel.radius = nan"))
    assert main(["kernel-info", "--config", str(path)]) == 2
    assert capsys.readouterr().err == "config error: kernel.radius: expected a number, got 'nan'\n"
