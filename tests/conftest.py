import numpy as np
import pytest

from morphoctl.forward import InitData, ModelParams
from morphoctl.grid import Grid, smooth_periodic
from morphoctl.kernel import build_kernel


def smooth_random(rng, grid, passes=2, scale=1.0):
    """Seeded smooth random field, O(scale) amplitude."""
    f = smooth_periodic(rng.standard_normal(grid.shape), passes)
    m = np.max(np.abs(f))
    return f * (scale / m) if m > 0 else f


def full_laplacian_symbol(grid):
    """Five-point Laplacian eigenvalues on the fft2 mode layout."""
    kx = np.arange(grid.nx)
    ky = np.arange(grid.ny)
    cx = (2.0 / grid.hx**2) * (1.0 - np.cos(2.0 * np.pi * kx / grid.nx))
    cy = (2.0 / grid.hy**2) * (1.0 - np.cos(2.0 * np.pi * ky / grid.ny))
    return -(cx[None, :] + cy[:, None])


def expand(field, nt):
    """Broadcast a (ny, nx) field to an (nt, ny, nx) time-constant series."""
    return np.broadcast_to(field, (nt, *field.shape)).copy()


@pytest.fixture
def grid16():
    return Grid(16, 16, 1.0, 1.0)


@pytest.fixture
def grid32():
    return Grid(32, 32, 1.0, 1.0)


def make_params(grid, beta=1.0, alpha=1.0, T=0.02, dt=1e-3, radius=0.25):
    return ModelParams(
        grid=grid,
        kernel=build_kernel(grid, radius),
        beta=beta,
        alpha=alpha,
        T=T,
        dt=dt,
    )


def make_init(grid, m_amp=0.2, m_off=0.0, phi_const=0.6):
    X, Y = grid.cell_centers()
    m0 = m_off + m_amp * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    return InitData(m0=m0, phi0=np.full(grid.shape, phi_const))
