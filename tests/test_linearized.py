import numpy as np
import pytest

from morphoctl.forward import (
    control_space_time_norm,
    integral,
    lipschitz_probe,
    solve_state,
    state_steps,
    step_state,
)
import morphoctl.linearized as lin
from morphoctl.grid import Grid, l2
from morphoctl.linearized import (
    EPS_LADDER,
    solve_linearized,
    step_linearized,
    tangent_norm,
    taylor_test,
)

from conftest import expand, full_laplacian_symbol, make_init, make_params, smooth_random
from oracles import l2_h1_norm, tangent_stability_norm


def _step(m, phi, theta, p):
    """step_state from real fields, seeding gradJ * m: (m+, phi+)."""
    u1, _ = step_state(np.array([m, phi]), p.kernel.grad_conv(np.fft.rfft2(m)), theta, p)
    return u1[0], u1[1]


def _lin(m, phi, f1, f2, h, p):
    """step_linearized from real fields, seeding gradJ * m and gradJ * f1: (phi1+, phi2+)."""
    gm, g1 = (p.kernel.grad_conv(np.fft.rfft2(f)) for f in (m, f1))
    u1, _ = step_linearized(m, phi, gm, np.array([f1, f2]), g1, h, p)
    return u1[0], u1[1]


def _random_state(rng, grid):
    phi = 0.5 + 0.3 * smooth_random(rng, grid)
    m = 0.8 * phi * smooth_random(rng, grid)
    return m, phi


def test_zero_direction_stays_zero(grid16):
    p = make_params(grid16)
    rng = np.random.default_rng(20)
    m, phi = _random_state(rng, grid16)
    z = np.zeros(grid16.shape)
    p1, p2 = _lin(m, phi, z, z, z, p)
    assert np.max(np.abs(p1)) == 0.0
    assert np.max(np.abs(p2)) == 0.0


def test_beta_zero_is_pure_implicit_diffusion(grid16):
    p = make_params(grid16, beta=0.0, alpha=0.8)
    rng = np.random.default_rng(21)
    m, phi = _random_state(rng, grid16)
    f1 = smooth_random(rng, grid16)
    f2 = smooth_random(rng, grid16)
    h = smooth_random(rng, grid16)
    p1, p2 = _lin(m, phi, f1, f2, h, p)
    lam = full_laplacian_symbol(grid16)
    o1 = np.real(np.fft.ifft2(np.fft.fft2(f1) / (1.0 - p.dt * lam)))
    rhs2 = f2 + p.dt * (-p.alpha * f2 + h)
    o2 = np.real(np.fft.ifft2(np.fft.fft2(rhs2) / (1.0 - p.dt * lam)))
    assert np.max(np.abs(p1 - o1)) < 1e-12
    assert np.max(np.abs(p2 - o2)) < 1e-12


def test_one_step_finite_difference_consistency(grid16):
    p = make_params(grid16, beta=1.5, alpha=0.7)
    rng = np.random.default_rng(22)
    m, phi = _random_state(rng, grid16)
    theta = 0.2 * smooth_random(rng, grid16)
    f1 = smooth_random(rng, grid16)
    f2 = smooth_random(rng, grid16)
    h = smooth_random(rng, grid16)
    lin1, lin2 = _lin(m, phi, f1, f2, h, p)

    errs = []
    for eps in (1e-3, 1e-4, 1e-5):
        a1, a2 = _step(m + eps * f1, phi + eps * f2, theta + eps * h, p)
        b1, b2 = _step(m, phi, theta, p)
        fd1 = (a1 - b1) / eps
        fd2 = (a2 - b2) / eps
        errs.append(max(np.max(np.abs(fd1 - lin1)), np.max(np.abs(fd2 - lin2))))
    assert 8.0 <= errs[0] / errs[1] <= 12.0
    assert 8.0 <= errs[1] / errs[2] <= 12.0


def test_one_step_remainder_exactly_quadratic(grid16):
    p = make_params(grid16, beta=1.5, alpha=0.7)
    rng = np.random.default_rng(23)
    m, phi = _random_state(rng, grid16)
    theta = 0.2 * smooth_random(rng, grid16)
    f1 = smooth_random(rng, grid16)
    f2 = smooth_random(rng, grid16)
    h = smooth_random(rng, grid16)
    lin1, lin2 = _lin(m, phi, f1, f2, h, p)
    b1, b2 = _step(m, phi, theta, p)

    def remainder(eps):
        a1, a2 = _step(m + eps * f1, phi + eps * f2, theta + eps * h, p)
        r1 = a1 - b1 - eps * lin1
        r2 = a2 - b2 - eps * lin2
        return np.sqrt(np.sum(r1**2) + np.sum(r2**2))

    r = remainder(1e-2) / remainder(5e-3)
    assert 3.7 <= r <= 4.3  # quadratic leading term, cubic correction only


def test_solve_linearized_zero_direction(grid16):
    p = make_params(grid16, T=0.01)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    tan = solve_linearized(traj, np.zeros((p.nt, *grid16.shape)))
    assert np.max(np.abs(tan.phi1)) == 0.0
    assert np.max(np.abs(tan.phi2)) == 0.0


def test_solve_linearized_homogeneous(grid16):
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(24)
    theta = expand(0.2 * smooth_random(rng, grid16), p.nt)
    traj = solve_state(make_init(grid16), theta, p)
    h = expand(smooth_random(rng, grid16), p.nt)
    one = solve_linearized(traj, h)
    two = solve_linearized(traj, 2.0 * h)
    assert np.max(np.abs(two.phi2 - 2.0 * one.phi2)) < 1e-12 * max(np.max(np.abs(two.phi2)), 1e-30)
    assert np.max(np.abs(two.phi1 - 2.0 * one.phi1)) < 1e-12 * max(np.max(np.abs(two.phi1)), 1e-30)


def test_solve_linearized_superposition(grid16):
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(25)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    h1_ = expand(smooth_random(rng, grid16), p.nt)
    h2_ = expand(smooth_random(rng, grid16), p.nt)
    a = solve_linearized(traj, h1_)
    b = solve_linearized(traj, h2_)
    c = solve_linearized(traj, h1_ + h2_)
    scale = max(np.max(np.abs(c.phi2)), 1e-30)
    assert np.max(np.abs(c.phi2 - a.phi2 - b.phi2)) < 1e-11 * scale


def test_tangent_mass_identity(grid16):
    p = make_params(grid16, beta=1.5, T=0.02)
    rng = np.random.default_rng(26)
    theta = expand(0.2 + 0.1 * smooth_random(rng, grid16), p.nt)
    traj = solve_state(make_init(grid16, m_off=0.1), theta, p)
    tan = solve_linearized(traj, expand(smooth_random(rng, grid16), p.nt))
    for n in range(p.nt + 1):
        assert abs(integral(grid16, tan.phi1[n])) < 1e-12 * max(
            1.0, l2(grid16, tan.phi1[n])
        )


def test_tangent_stability_spread(grid16):
    p = make_params(grid16, beta=0.8, T=0.02)
    rng = np.random.default_rng(27)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    ratios = []
    for _ in range(10):
        h = expand(smooth_random(rng, grid16), p.nt)
        hn = np.sqrt(sum(l2(grid16, h[n]) ** 2 for n in range(p.nt)) * p.dt)
        tan = solve_linearized(traj, h)
        ratios.append(tangent_stability_norm(tan) / hn)
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    assert np.max(ratios) / np.min(ratios) < 50.0


def test_taylor_orders_quadratic(grid16):
    p = make_params(grid16, beta=1.0, T=0.02)
    rng = np.random.default_rng(28)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid16), p.nt)
    h = expand(smooth_random(rng, grid16), p.nt)
    init = make_init(grid16)
    out = taylor_test(solve_state(init, theta, p), h)
    assert all(1.9 <= o <= 2.1 for o in out["orders"])
    assert out["read"] == [True] * 3
    assert out["order_gap"] == max(abs(o - 2.0) for o in out["orders"])
    # first-order quotient approaches the tangent norm
    assert out["first_order_quotients"][-1] == pytest.approx(out["tangent_norm"], rel=0.01)


def test_taylor_zero_direction(grid16):
    p = make_params(grid16, T=0.01)
    theta = np.zeros((p.nt, *grid16.shape))
    init = make_init(grid16)
    out = taylor_test(solve_state(init, theta, p), np.zeros_like(theta))
    assert all(r == 0.0 for r in out["remainders"]) and out["read"] == [False] * 3
    assert out["order_gap"] == np.inf  # 0/0 orders fail the gate


def test_taylor_along_a_zero_direction_keeps_its_ladder(grid16, monkeypatch):
    # Along h = 0 no rung can move, so the ladder is not doubled: four perturbed runs.
    p = make_params(grid16, T=0.01)
    base = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    runs = []

    def counted(*args):
        runs.append(None)
        return state_steps(*args)

    monkeypatch.setattr(lin, "state_steps", counted)
    out = taylor_test(base, np.zeros((p.nt, *grid16.shape)))
    assert out["eps"] == list(EPS_LADDER) and len(runs) == len(EPS_LADDER)
    assert out["order_gap"] == np.inf


def test_tangent_norm_positive(grid16):
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(29)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    tan = solve_linearized(traj, expand(smooth_random(rng, grid16), p.nt))
    assert tangent_norm(tan) > 0.0


def test_space_time_norms_slice_by_slice_keep_the_stacked_bits():
    # The Lipschitz probe, the Taylor test and the tangent norms reduce one
    # block of time slices at a time (grid.time_values); the stacked forms,
    # summed in the same time order, must give the same bits.
    g = Grid(14, 12, 1.0, 0.9)
    p = make_params(g, T=0.01, radius=0.3)
    rng = np.random.default_rng(41)
    init = make_init(g)
    theta = expand(0.3 + 0.1 * smooth_random(rng, g), p.nt)
    h = expand(smooth_random(rng, g), p.nt)

    # Stacked oracles (pair and oracles.l2_h1_norm): whole-history per-slice values,
    # squared and summed in time order.
    def pair(a, b):
        sq = [x ** 2 + y ** 2 for x, y in zip(l2(g, a).tolist(), l2(g, b).tolist())]
        return float(np.sqrt(sum(sq) * p.dt))

    base = solve_state(init, theta, p)
    tan = solve_linearized(base, h)
    assert tangent_norm(tan) == pair(tan.phi1[1:], tan.phi2[1:])

    other = solve_state(init, theta + 0.05 * h, p)
    stacked = l2_h1_norm(p, base.m - other.m) + l2_h1_norm(p, base.phi - other.phi)
    denom = control_space_time_norm(p, theta - (theta + 0.05 * h))
    assert lipschitz_probe(init, theta, theta + 0.05 * h, p) == stacked / denom

    out = taylor_test(base, h)
    assert out["eps"] == list(EPS_LADDER)  # no remainder is near the round-off floor
    for eps, rem, fd in zip(out["eps"], out["remainders"], out["first_order_quotients"]):
        pert = solve_state(init, theta + eps * h, p)
        dm = pert.m[1:] - base.m[1:]
        dp = pert.phi[1:] - base.phi[1:]
        assert rem == pair(dm - eps * tan.phi1[1:], dp - eps * tan.phi2[1:]) and rem > 0.0
        assert fd == pair(dm, dp) / eps
