"""The exactness identities and the Taylor gate on random admissible problems: odd and
non-square grids, random model constants, kernel radii, horizons and time steps."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoctl.control import duality_gap, solve_adjoint_discrete
from morphoctl.forward import InitData, mass_series, phi_balance_defect, solve_state
from morphoctl.grid import Grid
from morphoctl.linearized import solve_linearized, taylor_test
from morphoctl.verify import TAYLOR_ORDER_TOL

from conftest import make_params, smooth_random


@st.composite
def problems(draw):
    """(params, init, theta, h, phi_d), the fields drawn from a seeded numpy stream."""
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
    return params, InitData(m0=m0, phi0=phi0), theta, h, phi_d


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(problem=problems())
def test_mass_balance_and_duality_are_exact(problem):
    params, init, theta, h, phi_d = problem
    traj = solve_state(init, theta, params)
    masses = mass_series(traj)
    assert np.max(np.abs(masses - masses[0])) / max(1.0, abs(masses[0])) <= 1e-12
    assert phi_balance_defect(traj) <= 1e-12
    adj = solve_adjoint_discrete(traj, phi_d)
    assert duality_gap(traj, solve_linearized(traj, h).phi2, adj, h, phi_d) <= 1e-10
    # beta = 0 draws are affine: their remainders stay at round-off and the gate reads 0.
    assert taylor_test(traj, h)["order_gap"] <= TAYLOR_ORDER_TOL
