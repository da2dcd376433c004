"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion.
"""

import functools
import time
from pathlib import Path

import numpy as np
import pytest

import morphoctl.control as ctl
from morphoctl.config import coarsened, load_config
from morphoctl.control import (
    ControlField,
    OptConfig,
    duality_gap,
    pgd_optimize,
    projection_characterization_check,
    reduced_gradient,
    solve_adjoint_continuous,
    solve_adjoint_discrete,
    stationarity_residual,
)
from morphoctl.forward import (
    InitData,
    ModelParams,
    bounds_check,
    control_space_time_norm,
    lipschitz_probe,
    mass_series,
    phi_balance_defect,
    solve_state,
)
from morphoctl.grid import Grid, h1, l2
from morphoctl.kernel import build_kernel
from morphoctl.linearized import solve_linearized, taylor_test
from morphoctl.verify import gradient_check_table, run_verify

from conftest import expand, full_laplacian_symbol, make_init, make_params, smooth_random

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return deco


@criterion(1, "conservation")
def test_acceptance_1_conservation():
    g = Grid(64, 64, 1.0, 1.0)
    p = ModelParams(grid=g, kernel=build_kernel(g, 0.1), beta=1.0, alpha=1.0, T=0.5, dt=1e-3)
    assert p.nt == 500
    init = make_init(g, m_amp=0.15, m_off=0.1)
    rng = np.random.default_rng(0)
    theta = expand(0.2 + 0.1 * smooth_random(rng, g), p.nt)
    start = time.perf_counter()
    traj = solve_state(init, theta, p)
    masses = mass_series(traj)
    balance = phi_balance_defect(traj)
    elapsed = time.perf_counter() - start
    drift = np.max(np.abs(masses - masses[0])) / abs(masses[0])
    assert drift <= 1e-12, f"mass drift {drift:.3e}"
    assert balance <= 1e-12, f"phi balance {balance:.3e}"
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"


@criterion(2, "analytic limits")
def test_acceptance_2_analytic_limits():
    # spatially constant solution against the exact reaction ODE
    g = Grid(8, 8, 1.0, 1.0)
    dt = 1e-3
    p = make_params(g, beta=1.0, alpha=1.0, T=1.0, dt=dt, radius=0.45)
    init = InitData(m0=np.full(g.shape, 0.5), phi0=np.full(g.shape, 0.5))
    traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
    exact = 1.0 - 0.5 * np.exp(-1.0)
    err = np.max(np.abs(traj.phi[-1] - exact))
    assert err <= 2.0 * dt, f"ODE limit error {err:.3e}"

    # single-mode heat decay against the per-mode closed form
    g2 = Grid(32, 32, 1.0, 1.0)
    p2 = make_params(g2, beta=0.0, alpha=0.0, T=0.02, dt=1e-3)
    X, _ = g2.cell_centers()
    m0 = np.cos(2 * np.pi * X)
    traj2 = solve_state(InitData(m0=m0, phi0=np.ones(g2.shape)),
                        np.zeros((p2.nt, *g2.shape)), p2)
    lam = (2.0 / g2.hx**2) * (1.0 - np.cos(2 * np.pi * g2.hx))
    oracle = m0 / (1.0 + p2.dt * lam) ** p2.nt
    assert np.max(np.abs(traj2.m[-1] - oracle)) <= 1e-12


@criterion(3, "phase-separation bounds")
def test_acceptance_3_bounds():
    g = Grid(64, 64, 1.0, 1.0)
    p = ModelParams(grid=g, kernel=build_kernel(g, 0.1), beta=1.0, alpha=1.0, T=0.5, dt=1e-3)
    init = make_init(g, m_amp=0.2, m_off=0.0, phi_const=0.6)
    traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
    rep = bounds_check(traj)
    assert rep["max_viol_m"] <= 1e-8, rep
    assert rep["max_viol_phi"] <= 1e-8, rep


@criterion(4, "Lipschitz probe")
def test_acceptance_4_lipschitz():
    g = Grid(16, 16, 1.0, 1.0)
    p = make_params(g, beta=0.8, alpha=1.0, T=0.03, dt=1e-3)
    init = make_init(g)
    rng = np.random.default_rng(1)
    ratios = []
    for _ in range(20):
        t1 = expand(np.clip(0.5 + 0.4 * smooth_random(rng, g), 0.0, 1.0), p.nt)
        t2 = expand(np.clip(0.5 + 0.4 * smooth_random(rng, g), 0.0, 1.0), p.nt)
        ratios.append(lipschitz_probe(init, t1, t2, p))
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    spread = np.max(ratios) / np.min(ratios)
    assert spread < 50.0, f"spread {spread:.1f}"

    # beta = 0: the difference system is linear; match the eigenbasis oracle
    p0 = make_params(g, beta=0.0, alpha=0.0, T=0.02, dt=1e-3)
    t1 = expand(0.4 * smooth_random(rng, g), p0.nt)
    t2 = expand(0.4 * smooth_random(rng, g), p0.nt)
    ratio = lipschitz_probe(init, t1, t2, p0)
    lam = full_laplacian_symbol(g)
    ph = np.zeros(g.shape, dtype=complex)
    acc = 0.0
    for n in range(p0.nt):
        ph = (ph + p0.dt * np.fft.fft2(t1[n] - t2[n])) / (1.0 - p0.dt * lam)
        acc += h1(g, np.real(np.fft.ifft2(ph))) ** 2
    oracle = np.sqrt(acc * p0.dt) / control_space_time_norm(p0, t1 - t2)
    assert abs(ratio - oracle) / oracle <= 1e-10


@criterion(5, "Taylor remainder orders")
def test_acceptance_5_taylor():
    start = time.perf_counter()
    g = Grid(32, 32, 1.0, 1.0)
    p = make_params(g, beta=1.0, alpha=1.0, T=0.05, dt=5e-4, radius=0.25)
    assert p.nt == 100
    init = make_init(g)
    rng = np.random.default_rng(2)
    theta = expand(0.3 + 0.1 * smooth_random(rng, g), p.nt)
    for _ in range(3):
        h = expand(smooth_random(rng, g), p.nt)
        out = taylor_test(init, theta, h, p)
        assert all(1.9 <= o <= 2.1 for o in out["orders"]), out["orders"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"


@criterion(6, "adjoint exactness")
def test_acceptance_6_adjoint_exactness():
    g = Grid(32, 32, 1.0, 1.0)
    p = make_params(g, beta=1.0, alpha=1.0, T=0.05, dt=1e-3, radius=0.25)
    init = make_init(g)
    rng = np.random.default_rng(3)
    theta = expand(0.3 + 0.1 * smooth_random(rng, g), p.nt)
    pd = 0.8 * np.ones((1, *g.shape))
    traj = solve_state(init, theta, p)
    adj = solve_adjoint_discrete(traj, pd)

    h = expand(smooth_random(rng, g), p.nt)
    tan = solve_linearized(traj, h)
    assert duality_gap(traj, tan.phi2, adj, h, pd) <= 1e-10

    delta = 1e-3
    grad_arr = reduced_gradient(adj, theta, delta)
    eps = 1e-5
    for _ in range(5):
        hd = expand(smooth_random(rng, g), p.nt)
        jp = ctl.cost(solve_state(init, theta + eps * hd, p), theta + eps * hd, pd, delta)
        jm = ctl.cost(solve_state(init, theta - eps * hd, p), theta - eps * hd, pd, delta)
        fd = (jp - jm) / (2.0 * eps)
        av = ctl.control_inner(p, grad_arr, hd)
        rel = abs(fd - av) / max(abs(fd), abs(av))
        assert rel <= 1e-6, f"gradient rel err {rel:.3e}"


@criterion(7, "twin-experiment optimization")
def test_acceptance_7_optimization():
    g = Grid(32, 32, 1.0, 1.0)
    p = make_params(g, beta=0.5, alpha=1.0, T=0.005, dt=5e-5, radius=0.25)
    assert p.nt == 100
    init = make_init(g)
    theta_star = np.full((p.nt, *g.shape), 0.5)
    phi_d = solve_state(init, theta_star, p).phi[1:].copy()
    delta = 1e-6
    res = pgd_optimize(
        init,
        ControlField(theta=np.zeros_like(theta_star), theta_min=0.0, theta_max=1.0),
        phi_d,
        p,
        delta=delta,
        opt=OptConfig(max_iters=100, step0=1e5, tol=1e-16),
    )
    assert res.iterations <= 100
    drop = res.misfit_history[-1] / res.misfit_history[0]
    assert drop <= 0.10, f"misfit only dropped to {drop:.2%}"
    costs = res.cost_history
    assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))
    res_ratio = res.stationarity_history[-1] / res.stationarity_history[0]
    assert res_ratio <= 1e-6, f"stationarity ratio {res_ratio:.3e}"

    # delta = 1e-3 variant: converged control sits on the projected adjoint
    delta3 = 1e-3
    res3 = pgd_optimize(
        init,
        ControlField(theta=np.zeros_like(theta_star), theta_min=0.0, theta_max=1.0),
        phi_d,
        p,
        delta=delta3,
        opt=OptConfig(max_iters=100, step0=1e4, tol=1e-14),
    )
    traj3 = solve_state(init, res3.theta_opt, p)
    adj3 = solve_adjoint_discrete(traj3, phi_d)
    g3 = reduced_gradient(adj3, res3.theta_opt, delta3)
    rho3 = stationarity_residual(res3.theta_opt, g3, p, 0.0, 1.0)
    gap3 = projection_characterization_check(res3.theta_opt, adj3, 0.0, 1.0, delta3)
    assert gap3 <= 10.0 * max(rho3, 1e-14) / delta3, (gap3, rho3)


@criterion(8, "continuous vs discrete adjoint")
def test_acceptance_8_adjoint_crosscheck():
    # exact coincidence when the nonlocal terms vanish
    g0 = Grid(32, 32, 1.0, 1.0)
    p0 = make_params(g0, beta=0.0, alpha=1.0, T=0.02, dt=1e-3)
    rng = np.random.default_rng(4)
    traj0 = solve_state(make_init(g0), expand(0.2 * smooth_random(rng, g0), p0.nt), p0)
    pd0 = 0.8 * np.ones((1, *g0.shape))
    a0 = solve_adjoint_discrete(traj0, pd0)
    b0 = solve_adjoint_continuous(traj0, pd0)
    assert np.max(np.abs(a0.gamma2 - b0.gamma2)) <= 1e-12

    # beta > 0: record the L2 gap across refinements; in this marginally
    # resolved regime the discretization error dominates the fixed
    # operator-ordering difference, so the gap shrinks under refinement
    def gap_at(n):
        g = Grid(n, n, 1.0, 1.0)
        X, Y = g.cell_centers()
        p = make_params(g, beta=4.0, alpha=1.0, T=0.05, dt=1e-3, radius=0.1)
        init = InitData(
            m0=0.1 + 0.3 * np.cos(10 * np.pi * X) * np.cos(6 * np.pi * Y),
            phi0=np.full(g.shape, 0.7),
        )
        theta = expand(0.3 + 0.1 * np.cos(2 * np.pi * X), p.nt)
        pd = 0.9 * np.ones((1, *g.shape))
        traj = solve_state(init, theta, p)
        a = solve_adjoint_discrete(traj, pd)
        b = solve_adjoint_continuous(traj, pd)
        return float(np.sqrt(
            sum(l2(g, a.gamma2[m] - b.gamma2[m]) ** 2 for m in range(p.nt + 1)) * p.dt
        ))

    gaps = [gap_at(n) for n in (32, 64, 128)]
    print(f"\n  recorded gamma2 gaps (32/64/128): {gaps[0]:.6e} {gaps[1]:.6e} {gaps[2]:.6e}")
    assert all(np.isfinite(gp) for gp in gaps)
    assert gaps[0] > gaps[1] > gaps[2], gaps


@criterion(9, "verify command and mutation test")
def test_acceptance_9_verify(monkeypatch):
    start = time.perf_counter()
    cfg = load_config(CONFIG_DIR / "default.cfg")
    report = run_verify(cfg)
    elapsed = time.perf_counter() - start
    for row in report.rows:
        assert row.passed, f"{row.name}: measured={row.measured} note={row.note}"
    assert elapsed < 120.0, f"verify took {elapsed:.1f}s"

    # mutation test: one flipped adjoint sign must break the gradient check
    from morphoctl.config import build_problem

    sub = build_problem(coarsened(cfg))
    monkeypatch.setattr(ctl, "_MISFIT_SOURCE_SIGN", -1.0)
    table = gradient_check_table(sub, n_directions=3)
    worst = max(row[3] for row in table)
    assert worst >= 1e-2, f"mutation went undetected: rel err {worst:.3e}"
