"""The exactness identities, the Taylor gate and the gradient check on random admissible
problems: odd and non-square grids, random model constants, kernel radii, horizons and
time steps.  About half the draws run at a pair budget of 0, so the tangent and adjoint
make gradJ * m from the stored m; the rest keep the pairs the forward steps read."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoctl import forward
from morphoctl.control import (
    control_inner, cost_parts, duality_gap, reduced_gradient, solve_adjoint_discrete,
)
from morphoctl.forward import InitData, mass_series, phi_balance_defect, solve_state
from morphoctl.grid import Grid, smooth_periodic
from morphoctl.linearized import solve_linearized, taylor_test
from morphoctl.verify import FD_EPS, GRADCHECK_TOL, TAYLOR_ORDER_TOL

from conftest import make_params, smooth_random


@st.composite
def problems(draw):
    """(params, init, theta, h, phi_d, pair_budget), the fields and the budget drawn from a
    seeded numpy stream."""
    Lx, Ly = draw(st.floats(0.6, 1.6)), draw(st.floats(0.6, 1.6))
    # Each side needs 3 cells to fit below the largest radius, min(L) / 2: n > 6 L / min(L).
    nx = draw(st.integers(max(9, int(6 * Lx / min(Lx, Ly)) + 1), 25))
    ny = draw(st.integers(max(9, int(6 * Ly / min(Lx, Ly)) + 1), 25).filter(lambda n: n != nx))
    grid = Grid(nx, ny, Lx, Ly)
    lo, hi = 3.0 * max(grid.hx, grid.hy), 0.5 * min(Lx, Ly)
    radius = lo + draw(st.floats(0.0, 0.99)) * (hi - lo)
    dt = draw(st.sampled_from([1e-4, 5e-4, 1e-3]))
    nt = draw(st.integers(3, 29))
    params = make_params(grid, beta=draw(st.floats(0.0, 3.0)), alpha=draw(st.floats(0.0, 2.0)),
                         T=nt * dt, dt=dt, radius=radius)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi0 = 0.55 + 0.4 * smooth_random(rng, grid)  # in [0.15, 0.95]
    m0 = phi0 * smooth_random(rng, grid, scale=0.9)
    theta = rng.uniform(0.0, 1.0, size=(nt, ny, nx))
    h = rng.standard_normal((nt, ny, nx))
    phi_d = rng.uniform(0.0, 1.0, size=(nt, ny, nx))
    pair_budget = 0 if rng.uniform() < 0.5 else forward.PAIR_BUDGET
    return params, InitData(m0=m0, phi0=phi0), theta, h, phi_d, pair_budget


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(problem=problems())
def test_mass_balance_and_duality_are_exact(problem):
    params, init, theta, h, phi_d, pair_budget = problem
    with mock.patch.object(forward, "PAIR_BUDGET", pair_budget):
        traj = solve_state(init, theta, params)
    assert (traj.grad_m is not None) == (pair_budget > 0)
    masses = mass_series(traj)
    assert np.max(np.abs(masses - masses[0])) / max(1.0, abs(masses[0])) <= 1e-12
    assert phi_balance_defect(traj) <= 1e-12
    adj = solve_adjoint_discrete(traj, phi_d)
    assert duality_gap(traj, solve_linearized(traj, h).phi2, adj, h, phi_d) <= 1e-10
    # beta = 0 draws are affine: their remainders stay at round-off and the gate reads 0.
    assert taylor_test(traj, h)["order_gap"] <= TAYLOR_ORDER_TOL
    # The gradient check at delta = 1e-3 along h smoothed per slice and scaled to max 1, with
    # verify.gradient_check_table's central differences of the two cost halves apart.  The
    # worst of the 50 draws reads 2.7e-8; along the raw h scaled alike, 1.3e-7.
    delta = 1e-3
    d = np.stack([smooth_periodic(f, 2) for f in h])
    d /= np.max(np.abs(d))
    (mp, rp), (mm, rm) = (cost_parts(solve_state(init, theta + s * FD_EPS * d, params), phi_d, delta)
                          for s in (1.0, -1.0))
    fd = ((mp - mm) + (rp - rm)) / (2.0 * FD_EPS)
    av = control_inner(params, reduced_gradient(adj, delta), d)
    assert abs(fd - av) / max(abs(fd), abs(av), 1e-300) <= GRADCHECK_TOL
