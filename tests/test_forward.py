import ast
import dataclasses
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from morphoctl import forward
from morphoctl.config import build_problem, load_config, parse_config_text
from morphoctl.control import (
    control_inner,
    cost_parts,
    solve_adjoint_continuous,
    solve_adjoint_discrete,
)
from morphoctl.errors import DegenerateProbe, NonFinite
from morphoctl.forward import (
    InitData,
    ModelParams,
    Trajectory,
    bounds_check,
    control_space_time_norm,
    lipschitz_probe,
    mass_series,
    pair_bytes,
    phi_balance_defect,
    solve_state,
    step_state,
)
from morphoctl.grid import Grid, h1, integral, l2, rfft2
from morphoctl.kernel import build_kernel
from morphoctl.linearized import solve_linearized, tangent_norm

from conftest import expand, full_laplacian_symbol, make_init, make_params, smooth_random
from oracles import apriori_norms, l2_h1_norm, weak_residual


def test_model_params_validation(grid16):
    k = build_kernel(grid16, 0.25)
    with pytest.raises(ValueError):
        ModelParams(kernel=k, beta=-1.0, alpha=1.0, T=0.1, dt=1e-3)
    with pytest.raises(ValueError):
        ModelParams(kernel=k, beta=1.0, alpha=-0.1, T=0.1, dt=1e-3)
    with pytest.raises(ValueError):
        ModelParams(kernel=k, beta=1.0, alpha=1.0, T=0.1, dt=3e-3)


def test_params_read_their_grid_from_their_kernel(grid16):
    # The grid has one source, so a kernel cannot run beside a grid it was not built on.
    problem = build_problem(parse_config_text(OVER_BOUND))
    for params in (make_params(grid16), problem.params):
        assert params.grid is params.kernel.grid
    assert "grid" not in {f.name for f in dataclasses.fields(ModelParams)}


# make_init(grid16) and make_params(grid16, beta=5.0, T=0.01) as a config;
# its dt exceeds the advisory drift bound.
OVER_BOUND = """
grid.nx = 16
grid.ny = 16
grid.Lx = 1.0
grid.Ly = 1.0
time.T = 0.01
time.dt = 1e-3
model.beta = 5.0
model.alpha = 1.0
kernel.radius = 0.25
init.m0 = cosine:0.2,1,1
init.phi0 = constant:0.6
"""


def test_dt_bound_warns_but_runs(grid16):
    # ModelParams and build_problem accept any dt silently; only the command line advises.
    k = build_kernel(grid16, 0.25)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = ModelParams(kernel=k, beta=5.0, alpha=1.0, T=0.01, dt=1e-3)
        problem = build_problem(parse_config_text(OVER_BOUND))
    assert p.dt > p.dt_stability_bound()
    assert problem.params.dt_stability_bound() == p.dt_stability_bound()
    traj = solve_state(problem.init, problem.theta, problem.params)
    assert np.isfinite(traj.m).all()


def test_init_data_admissibility(grid16):
    with pytest.raises(ValueError):
        InitData(m0=np.full(grid16.shape, 0.8), phi0=np.full(grid16.shape, 0.5))
    with pytest.raises(ValueError):
        InitData(m0=np.zeros(grid16.shape), phi0=np.full(grid16.shape, 1.2))
    InitData(m0=np.full(grid16.shape, 0.5), phi0=np.full(grid16.shape, 0.5))


def test_step_preserves_constants(grid16):
    p = make_params(grid16, beta=1.0, alpha=0.7, dt=1e-3)
    m = np.full(grid16.shape, 0.3)
    phi = np.full(grid16.shape, 0.5)
    gm = p.kernel.grad_conv(np.fft.rfft2(m))
    (m1, p1), _ = step_state(np.array([m, phi]), gm, np.zeros(grid16.shape), p)
    assert np.max(np.abs(m1 - 0.3)) < 1e-12
    assert np.max(np.abs(p1 - (0.5 + p.dt * 0.7 * 0.5))) < 1e-12


def test_step_heat_eigenmode():
    g = Grid(32, 32, 1.0, 1.0)
    p = make_params(g, beta=0.0, alpha=0.0, dt=1e-3)
    X, _ = g.cell_centers()
    m = np.cos(2 * np.pi * X)
    lam = (2.0 / g.hx**2) * (1.0 - np.cos(2 * np.pi * g.hx))
    gm = p.kernel.grad_conv(np.fft.rfft2(m))
    (m1, _), _ = step_state(np.array([m, np.ones(g.shape)]), gm, np.zeros(g.shape), p)
    assert np.max(np.abs(m1 - m / (1.0 + p.dt * lam))) < 1e-12


def test_step_conserves_mass_random_state(grid16):
    p = make_params(grid16, beta=1.5, alpha=0.5, dt=1e-3)
    rng = np.random.default_rng(12)
    phi = 0.5 + 0.3 * smooth_random(rng, grid16, scale=1.0)
    m = 0.8 * phi * smooth_random(rng, grid16, scale=1.0)
    gm = p.kernel.grad_conv(np.fft.rfft2(m))
    (m1, _), _ = step_state(np.array([m, phi]), gm, np.zeros(grid16.shape), p)
    before, after = integral(grid16, m), integral(grid16, m1)
    assert abs(after - before) < 1e-12 * max(1.0, abs(before))


def test_solve_state_constant_ode_limit():
    g = Grid(8, 8, 1.0, 1.0)
    p = make_params(g, beta=1.0, alpha=1.0, T=1.0, dt=1e-3, radius=0.45)
    init = InitData(m0=np.full(g.shape, 0.5), phi0=np.full(g.shape, 0.5))
    traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
    exact = 1.0 - 0.5 * np.exp(-1.0)
    assert np.max(np.abs(traj.phi[-1] - exact)) <= 1e-3
    assert np.max(np.abs(traj.m[-1] - 0.5)) < 1e-12


def test_solve_state_heat_semigroup_oracle():
    g = Grid(16, 16, 1.0, 1.0)
    p = make_params(g, beta=0.0, alpha=0.0, T=0.02, dt=1e-3)
    rng = np.random.default_rng(13)
    m0 = smooth_random(rng, g, scale=0.4)
    init = InitData(m0=m0, phi0=np.ones(g.shape))
    traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
    lam = full_laplacian_symbol(g)
    oracle = np.real(np.fft.ifft2(np.fft.fft2(m0) / (1.0 - p.dt * lam) ** p.nt))
    assert np.max(np.abs(traj.m[-1] - oracle)) < 1e-12


def test_solve_state_deterministic(grid16):
    p = make_params(grid16)
    init = make_init(grid16)
    theta = expand(np.full(grid16.shape, 0.2), p.nt)
    a = solve_state(init, theta, p)
    b = solve_state(init, theta, p)
    assert np.array_equal(a.m, b.m)
    assert np.array_equal(a.phi, b.phi)


def test_mass_conserved_and_phi_balance_along_run(grid16):
    p = make_params(grid16, T=0.05)
    init = make_init(grid16, m_amp=0.15, m_off=0.1)
    rng = np.random.default_rng(14)
    theta = expand(0.2 + 0.1 * smooth_random(rng, grid16), p.nt)
    traj = solve_state(init, theta, p)
    ms = mass_series(traj)
    assert np.max(np.abs(ms - ms[0])) < 1e-12 * max(1.0, abs(ms[0]))
    assert phi_balance_defect(traj) < 1e-12


def test_weak_residual_zero_for_scheme_solutions(grid16):
    p = make_params(grid16, T=0.02)
    init = make_init(grid16)
    rng = np.random.default_rng(15)
    theta = expand(0.3 * smooth_random(rng, grid16), p.nt)
    traj = solve_state(init, theta, p)
    X, Y = grid16.cell_centers()
    psi = np.cos(2 * np.pi * X)
    eta = 1.0 + 0.5 * np.sin(2 * np.pi * Y)
    res = weak_residual(traj, psi, eta)
    assert res["res_m"] < 1e-10
    assert res["res_phi"] < 1e-10


def test_weak_residual_detects_perturbation(grid16):
    p = make_params(grid16, T=0.02)
    init = make_init(grid16)
    traj = solve_state(init, np.zeros((p.nt, *grid16.shape)), p)
    m = traj.m.copy()
    m[p.nt // 2] = m[p.nt // 2] + 1e-3
    bad = Trajectory(params=p, m=m, phi=traj.phi, theta=traj.theta)
    X, _ = grid16.cell_centers()
    res = weak_residual(bad, 1.0 + 0.5 * np.cos(2 * np.pi * X), np.ones(grid16.shape))
    assert res["res_m"] > 1e-8


def test_weak_residual_constant_solution_with_unit_tests_exact(grid16):
    p = make_params(grid16, beta=1.0, alpha=1.0, T=0.02)
    init = InitData(m0=np.full(grid16.shape, 0.4), phi0=np.full(grid16.shape, 0.5))
    traj = solve_state(init, np.zeros((p.nt, *grid16.shape)), p)
    res = weak_residual(traj, np.ones(grid16.shape), np.ones(grid16.shape))
    assert res["res_phi"] < 1e-12
    assert res["res_m"] < 1e-12


def test_apriori_zero_data(grid16):
    p = make_params(grid16, alpha=0.0, T=0.01)
    init = InitData(m0=np.zeros(grid16.shape), phi0=np.zeros(grid16.shape))
    rep = apriori_norms(solve_state(init, np.zeros((p.nt, *grid16.shape)), p))
    assert all(v == 0.0 for v in rep.values())


def test_apriori_dt_robust(grid16):
    init = make_init(grid16)
    reps = []
    for dt in (1e-2, 5e-3):
        p = make_params(grid16, beta=0.2, T=0.1, dt=dt)
        reps.append(apriori_norms(solve_state(init, np.zeros((p.nt, *grid16.shape)), p)))
    for key in ("m_L2H1", "phi_L2H1"):
        a, b = reps[0][key], reps[1][key]
        assert abs(a - b) / max(a, b) < 0.05


def test_apriori_monotone_in_control(grid16):
    init = make_init(grid16)
    vals = []
    for c in (0.0, 0.1, 0.2):
        p = make_params(grid16, T=0.05)
        theta = np.full((p.nt, *grid16.shape), c)
        rep = apriori_norms(solve_state(init, theta, p))
        vals.append(rep["phi_L2H1"])
    assert vals[0] <= vals[1] <= vals[2]


def test_lipschitz_degenerate(grid16):
    p = make_params(grid16, T=0.01)
    theta = np.zeros((p.nt, *grid16.shape))
    with pytest.raises(DegenerateProbe):
        lipschitz_probe(make_init(grid16), theta, theta.copy(), p)


def test_lipschitz_beta_zero_matches_eigenbasis_oracle():
    g = Grid(16, 16, 1.0, 1.0)
    p = make_params(g, beta=0.0, alpha=0.0, T=0.02, dt=1e-3)
    init = make_init(g)
    rng = np.random.default_rng(16)
    t1 = expand(0.4 * smooth_random(rng, g), p.nt)
    t2 = expand(0.4 * smooth_random(rng, g), p.nt)
    ratio = lipschitz_probe(init, t1, t2, p)

    # Independent oracle: the phi difference solves the discrete heat
    # recursion with source t1 - t2 and zero data; march it per mode.
    lam = full_laplacian_symbol(g)
    ph = np.zeros(g.shape, dtype=complex)
    acc = 0.0
    for n in range(p.nt):
        ph = (ph + p.dt * np.fft.fft2(t1[n] - t2[n])) / (1.0 - p.dt * lam)
        acc += h1(g, np.real(np.fft.ifft2(ph))) ** 2
    num = np.sqrt(acc * p.dt)
    den = control_space_time_norm(p, t1 - t2)
    assert ratio == pytest.approx(num / den, rel=1e-10)


def test_lipschitz_probe_panel_bounded(grid16):
    p = make_params(grid16, beta=0.5, T=0.02)
    init = make_init(grid16)
    rng = np.random.default_rng(17)
    ratios = []
    for _ in range(6):
        t1 = expand(np.clip(0.5 + 0.4 * smooth_random(rng, grid16), 0, 1), p.nt)
        t2 = expand(np.clip(0.5 + 0.4 * smooth_random(rng, grid16), 0, 1), p.nt)
        ratios.append(lipschitz_probe(init, t1, t2, p))
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert np.max(ratios) / np.min(ratios) < 50.0


def test_bounds_hold_without_control(grid16):
    p = make_params(grid16, T=0.05)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    rep = bounds_check(traj)
    assert rep["max_viol_m"] <= 1e-8
    assert rep["max_viol_phi"] <= 1e-8


def test_bounds_reported_not_asserted_with_large_control(grid16):
    p = make_params(grid16, T=0.05)
    traj = solve_state(make_init(grid16), np.full((p.nt, *grid16.shape), 15.0), p)
    rep = bounds_check(traj)
    assert rep["max_viol_phi"] > 0.0  # phi pushed past 1, reported only


def test_bounds_zero_data(grid16):
    p = make_params(grid16, alpha=0.0, T=0.02)
    init = InitData(m0=np.zeros(grid16.shape), phi0=np.zeros(grid16.shape))
    traj = solve_state(init, np.zeros((p.nt, *grid16.shape)), p)
    assert np.max(np.abs(traj.m)) == 0.0
    rep = bounds_check(traj)
    assert rep["max_viol_m"] == 0.0 and rep["max_viol_phi"] == 0.0


def test_bounds_check_matches_the_stacked_form(grid16):
    p = make_params(grid16, T=0.05)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    rng = np.random.default_rng(8)
    # Fields that break both orderings, so both maxima are positive.
    broken = dataclasses.replace(
        traj, m=1.5 * rng.standard_normal(traj.m.shape), phi=rng.standard_normal(traj.phi.shape)
    )
    for t in (traj, broken):
        stacked = {
            "max_viol_m": max(float(np.max(np.abs(t.m) - np.abs(t.phi))), 0.0),
            "max_viol_phi": max(float(np.max(np.abs(t.phi) - 1.0)), 0.0),
        }
        assert bounds_check(t) == stacked
    assert min(bounds_check(broken).values()) > 0.0


def test_temporal_convergence_first_order():
    g = Grid(8, 8, 1.0, 1.0)
    errs = []
    for dt in (1e-2, 5e-3):
        p = make_params(g, beta=1.0, alpha=1.0, T=1.0, dt=dt, radius=0.45)
        init = InitData(m0=np.full(g.shape, 0.5), phi0=np.full(g.shape, 0.5))
        traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
        errs.append(abs(traj.phi[-1][0, 0] - (1.0 - 0.5 * np.exp(-1.0))))
    assert 1.8 <= errs[0] / errs[1] <= 2.2


def test_spatial_convergence_second_order():
    errs = []
    for n in (8, 16, 32):
        g = Grid(n, n, 1.0, 1.0)
        p = make_params(g, beta=0.0, alpha=0.0, T=0.01, dt=1e-5, radius=0.45)
        X, _ = g.cell_centers()
        init = InitData(m0=np.cos(2 * np.pi * X), phi0=np.ones(g.shape))
        traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
        exact = np.exp(-4.0 * np.pi**2 * p.T) * np.cos(2 * np.pi * X)
        errs.append(l2(g, traj.m[-1] - exact))
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


@pytest.mark.parametrize("sweep", ["forward", "tangent", "adjoint"])
def test_blowup_raises_nonfinite_with_step(sweep, grid16):
    if sweep == "forward":
        p = make_params(grid16, beta=8.0, alpha=1.0, T=0.5, dt=5e-2)
        X, Y = grid16.cell_centers()
        init = InitData(
            m0=0.9 * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y),
            phi0=np.full(grid16.shape, 0.95),
        )
        with pytest.raises(NonFinite) as exc:
            solve_state(init, np.zeros((p.nt, *grid16.shape)), p)
        assert exc.value.step is not None and exc.value.step >= 1
    else:
        # One inf slice of the direction (tangent) or target (adjoint) at
        # index 3 breaks the step that slice drives: step 4 in both sweeps.
        p = make_params(grid16, T=0.01)
        traj = solve_state(make_init(grid16), np.zeros(grid16.shape), p)
        series = np.zeros((p.nt, *grid16.shape))
        series[3] = np.inf
        sweep_fn = solve_linearized if sweep == "tangent" else solve_adjoint_discrete
        with pytest.raises(NonFinite) as exc:
            sweep_fn(traj, series)
        assert exc.value.step == 4
    assert f"blow-up at step {exc.value.step}" in str(exc.value)


def test_histories_have_one_home():
    # Every (nt+1, ny, nx) history is allocated in forward._store, so a byte
    # budget for the stored runs has one place to count.
    src = Path(__file__).resolve().parents[1] / "src" / "morphoctl"
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                    and node.func.attr in {"empty", "zeros", "ones", "full"}):
                continue
            shape = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "shape"), None)
            if shape is not None and re.search(r"\bnt \+ 1\b", ast.unparse(shape)):
                owner = max((d for d in defs if d.lineno <= node.lineno <= d.end_lineno),
                            key=lambda d: d.lineno, default=None)
                found.append(f"{path.name}:{owner.name if owner else '<module>'}")
    assert found == ["forward.py:_store"]


@pytest.mark.parametrize("k", [0, 4, 9])
@pytest.mark.parametrize(
    "sweep, what",
    [
        (solve_state, "blow-up"),
        (solve_linearized, "tangent blow-up"),
        (solve_adjoint_discrete, "adjoint blow-up"),
        (solve_adjoint_continuous, "adjoint blow-up"),
    ],
    ids=lambda v: getattr(v, "__name__", None),
)
def test_nan_slice_is_reported_at_the_step_it_drives(sweep, what, k, grid16):
    """A NaN in slice k of theta, h or phi_d breaks the step with later index k+1."""
    p = make_params(grid16, T=0.01)
    assert p.nt == 10
    init = make_init(grid16)
    series = np.zeros((p.nt, *grid16.shape))
    series[k] = np.nan
    if sweep is solve_state:
        args = (init, series, p)
    else:
        args = (solve_state(init, np.zeros(grid16.shape), p), series)
    with pytest.raises(NonFinite) as exc:
        sweep(*args)
    assert str(exc.value) == f"{what} at step {k + 1}"
    assert exc.value.step == k + 1


def test_trajectory_norm_helpers(grid16):
    p = make_params(grid16, T=0.01)
    series = np.ones((p.nt + 1, *grid16.shape))
    assert l2_h1_norm(p, series) == pytest.approx(np.sqrt(p.T), rel=1e-12)
    ctrl = np.ones((p.nt, *grid16.shape))
    assert control_space_time_norm(p, ctrl) == pytest.approx(np.sqrt(p.T), rel=1e-12)
    # Python floats, not numpy scalars: repr() of these reaches the CLI output.
    traj = solve_state(make_init(grid16), 0.5 * ctrl, p)
    tan = solve_linearized(traj, ctrl)
    values = [
        control_space_time_norm(p, ctrl),
        l2_h1_norm(p, series),
        *cost_parts(traj, 0.6 * ctrl, 1e-3),
        control_inner(p, ctrl, 0.5 * ctrl),
        tangent_norm(tan),
        phi_balance_defect(traj),
    ]
    assert [type(v) for v in values] == [float] * 7


def test_kept_pairs_are_the_ones_the_steps_read(grid16):
    # Index 0 is the seed, gradJ * m_0 from m_0's transform; index n >= 1 is, byte for
    # byte, the pair step_state returned with state n.
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(27)
    init = make_init(grid16)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid16), p.nt)
    traj = solve_state(init, theta, p)
    assert traj.grad_m.shape == (p.nt, 2, *grid16.shape)
    u, pair = np.array([init.m0, init.phi0]), p.kernel.grad_conv(rfft2(init.m0))
    assert traj.grad_m[0].tobytes() == np.array(pair).tobytes()
    for n in range(1, p.nt):
        u, pair = step_state(u, pair, theta[n - 1], p)
        assert traj.grad_m[n].tobytes() == pair.tobytes()
        assert traj.m[n].tobytes() == u[0].tobytes()


def test_pairs_are_kept_exactly_when_their_bytes_fit_the_budget(grid16, monkeypatch):
    # The shipped twin (32^2 x 100 steps) keeps its pairs; the default run (64^2 x 500) does not.
    configs = Path(__file__).resolve().parents[1] / "configs"
    twin, default = (build_problem(load_config(configs / name)).params
                     for name in ("twin.cfg", "default.cfg"))
    assert pair_bytes(twin) <= forward.PAIR_BUDGET < pair_bytes(default)
    p = make_params(grid16, T=0.01)
    nbytes = pair_bytes(p)
    assert nbytes == p.nt * 2 * grid16.nx * grid16.ny * 8
    for budget, kept in ((nbytes, True), (nbytes - 1, False)):
        monkeypatch.setattr(forward, "PAIR_BUDGET", budget)
        traj = solve_state(make_init(grid16), np.zeros(grid16.shape), p)
        assert (traj.grad_m is not None) == kept
        assert not kept or traj.grad_m.nbytes == nbytes


def test_a_hand_built_run_has_its_pairs_made_from_m(grid16, monkeypatch):
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(28)
    init = make_init(grid16)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid16), p.nt)
    h = expand(smooth_random(rng, grid16), p.nt)
    traj = solve_state(init, theta, p)
    hand = Trajectory(params=p, m=traj.m, phi=traj.phi, theta=traj.theta)
    assert traj.grad_m is not None and hand.grad_m is None
    for n in range(p.nt):
        made = p.kernel.grad_conv(rfft2(traj.m[n]))
        assert hand.grad_m_at(n).tobytes() == made.tobytes()
        kept = traj.grad_m_at(n)  # the kept pair itself, not a copy
        assert np.shares_memory(kept, traj.grad_m[n]) and kept.tobytes() == traj.grad_m[n].tobytes()
    # Its tangent and adjoint are those of a run whose pairs exceed the budget.
    monkeypatch.setattr(forward, "PAIR_BUDGET", 0)
    unkept = solve_state(init, theta, p)
    assert unkept.grad_m is None
    pd = 0.7 * np.ones(grid16.shape)
    for sweep, names in ((lambda t: solve_linearized(t, h), ("phi1", "phi2")),
                         (lambda t: solve_adjoint_discrete(t, pd), ("gamma1", "gamma2"))):
        a, b = sweep(hand), sweep(unkept)
        for name in names:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
