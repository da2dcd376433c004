import dataclasses

import numpy as np
import pytest

from morphoctl import control, forward, linearized
from morphoctl.forward import InitData, ModelParams
from morphoctl.grid import Grid, smooth_periodic
from morphoctl.kernel import Kernel, build_kernel


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
    return ModelParams(kernel=build_kernel(grid, radius), beta=beta, alpha=alpha, T=T, dt=dt)


def make_init(grid, m_amp=0.2, m_off=0.0, phi_const=0.6):
    X, Y = grid.cell_centers()
    m0 = m_off + m_amp * np.cos(2 * np.pi * X) * np.cos(2 * np.pi * Y)
    return InitData(m0=m0, phi0=np.full(grid.shape, phi_const))


def flip_misfit_source_sign(monkeypatch):
    """Make ``control.solve_adjoint_discrete`` return the negated adjoint.

    The backward sweep is linear with a zero terminal slice, so the negated
    adjoint is, value for value, the adjoint of a sign-flipped misfit source:
    the wrong adjoint the mutation tests need the gradient check to catch.
    """
    solve = control.solve_adjoint_discrete

    def flipped(traj, phi_d):
        adj = solve(traj, phi_d)
        return dataclasses.replace(adj, gamma1=-adj.gamma1, gamma2=-adj.gamma2)

    monkeypatch.setattr(control, "solve_adjoint_discrete", flipped)


def scale_regularization_gradient(monkeypatch, factor):
    """Make ``control.reduced_gradient`` use ``factor * delta``: a defect in the delta theta term only."""
    reduced = control.reduced_gradient
    monkeypatch.setattr(control, "reduced_gradient", lambda adj, delta: reduced(adj, factor * delta))


def halve_theta_in_step_state(monkeypatch):
    """Make ``forward.step_state`` take half its control slice: a defect of the state solve only."""
    step = forward.step_state

    def halved(u, grad_m, theta_slice, params):
        return step(u, grad_m, 0.5 * theta_slice, params)

    monkeypatch.setattr(forward, "step_state", halved)


def use_continuous_adjoint(monkeypatch):
    """Put the PDE-form adjoint in place of the discrete one: consistent, but not the transpose."""
    monkeypatch.setattr(control, "solve_adjoint_discrete", control.solve_adjoint_continuous)


def zero_grad_conv_sum(monkeypatch):
    """Make ``Kernel.grad_conv_sum`` return a zero spectrum: the backward sweeps drop their convolution."""
    monkeypatch.setattr(Kernel, "grad_conv_sum", lambda self, vxh, vyh: np.zeros_like(vxh))


def negate_grad_m_in_step_linearized(monkeypatch):
    """Make ``linearized.step_linearized`` read -gradJ * m: a sign defect of the tangent only."""
    step = linearized.step_linearized

    def negated(m_hat, phi_hat, grad_m, *rest):
        return step(m_hat, phi_hat, (-grad_m[0], -grad_m[1]), *rest)

    monkeypatch.setattr(linearized, "step_linearized", negated)
