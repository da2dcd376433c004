import numpy as np
import pytest

from morphoctl.forward import integral, solve_state, step_state
from morphoctl.grid import l2
from morphoctl.linearized import (
    solve_linearized,
    step_linearized,
    tangent_norm,
    tangent_stability_norm,
    taylor_test,
)

from conftest import expand, full_laplacian_symbol, make_init, make_params, smooth_random


def _step(m, phi, theta, p):
    """step_state from real fields, seeding the spectrum of m: (m+, phi+)."""
    m1, _, p1 = step_state(m, np.fft.rfft2(m), phi, theta, p)
    return m1, p1


def _lin(m, phi, f1, f2, h, p):
    """step_linearized from real fields, seeding the spectrum of f1: (phi1+, phi2+)."""
    p1, _, p2 = step_linearized(m, phi, f1, np.fft.rfft2(f1), f2, h, p)
    return p1, p2


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
    out = taylor_test(make_init(grid16), theta, h, p)
    assert all(1.9 <= o <= 2.1 for o in out["orders"])
    # first-order quotient approaches the tangent norm
    assert out["first_order_quotients"][-1] == pytest.approx(out["tangent_norm"], rel=0.01)


def test_taylor_zero_direction(grid16):
    p = make_params(grid16, T=0.01)
    theta = np.zeros((p.nt, *grid16.shape))
    out = taylor_test(make_init(grid16), theta, np.zeros_like(theta), p)
    assert all(r == 0.0 for r in out["remainders"])


def test_tangent_norm_positive(grid16):
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(29)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    tan = solve_linearized(traj, expand(smooth_random(rng, grid16), p.nt))
    assert tangent_norm(tan) > 0.0
