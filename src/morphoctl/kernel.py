"""Interaction kernel: smooth compactly supported bump and its gradient.

The kernel is sampled at periodic offsets with the zero offset stored at
index (0, 0) and negative offsets wrapped to the far end of each axis,
matching the layout expected by :func:`morphoctl.grid.circ_conv`.  The
samples are normalized so the discrete integral of the scalar kernel is
exactly 1, mirroring the unit-mass normalization of the continuum
potential.

The gradient samples come from the closed-form derivative of the bump
(not from differencing) and are antisymmetrized afterwards, so the odd
symmetry ``gj(-p) = -gj(p)`` holds bit-exactly.  The backward solvers use
that symmetry to transpose the nonlocal drift, so it must be exact, not
just accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SupportTooLarge, SupportUnresolved
from .grid import Grid, circ_conv, integral, periodic_reverse


def _signed_offsets(n: int, h: float) -> np.ndarray:
    """Signed periodic offsets for each wrap-around index."""
    return (((np.arange(n) + n // 2) % n) - n // 2) * h


@dataclass(frozen=True)
class Kernel:
    """Normalized bump samples j and analytic gradient samples (gjx, gjy)."""

    grid: Grid
    radius: float
    j: np.ndarray = field(repr=False)
    gjx: np.ndarray = field(repr=False)
    gjy: np.ndarray = field(repr=False)

    @cached_property
    def _j_hat(self) -> np.ndarray:
        return np.fft.rfft2(self.j) * self.grid.cell_area

    @cached_property
    def _gx_hat(self) -> np.ndarray:
        return np.fft.rfft2(self.gjx) * self.grid.cell_area

    @cached_property
    def _gy_hat(self) -> np.ndarray:
        return np.fft.rfft2(self.gjy) * self.grid.cell_area

    def conv_j(self, f: np.ndarray) -> np.ndarray:
        """j * f (discrete integral convolution)."""
        return np.fft.irfft2(self._j_hat * np.fft.rfft2(f), s=self.grid.shape)

    def grad_conv(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Both components of (grad j) * f sharing one forward transform."""
        fh = np.fft.rfft2(f)
        ax = np.fft.irfft2(self._gx_hat * fh, s=self.grid.shape)
        ay = np.fft.irfft2(self._gy_hat * fh, s=self.grid.shape)
        return ax, ay

    def grad_conv_sum(self, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
        """sum_i (d_i j) * v_i, the contraction used by the backward sweeps."""
        sh = self._gx_hat * np.fft.rfft2(vx) + self._gy_hat * np.fft.rfft2(vy)
        return np.fft.irfft2(sh, s=self.grid.shape)

    def grad_l1(self) -> float:
        """Discrete L1 norm of the gradient samples, sum |gj| hx hy."""
        return integral(self.grid, np.hypot(self.gjx, self.gjy))


def build_kernel(grid: Grid, radius: float) -> Kernel:
    """Construct the normalized kernel on the given grid.

    The support must fit inside half the domain (no self-overlap under
    periodization) and span at least three cells so the bump is resolved.
    """
    if 2.0 * radius >= min(grid.Lx, grid.Ly):
        raise SupportTooLarge(
            f"kernel radius {radius} needs 2 r < min(Lx, Ly) = {min(grid.Lx, grid.Ly)}"
        )
    if radius < 3.0 * max(grid.hx, grid.hy):
        raise SupportUnresolved(
            f"kernel radius {radius} below 3 max(hx, hy) = {3.0 * max(grid.hx, grid.hy)}"
        )

    ox = _signed_offsets(grid.nx, grid.hx)
    oy = _signed_offsets(grid.ny, grid.hy)
    px, py = np.meshgrid(ox, oy)
    rho2 = (px**2 + py**2) / radius**2

    inside = rho2 < 1.0
    u = np.where(inside, 1.0 - rho2, 1.0)
    bump = np.where(inside, np.exp(-1.0 / u), 0.0)
    # Closed-form derivative of exp(-1/(1 - |p|^2/r^2)):
    #   grad = bump * (-2 p / r^2) / (1 - |p|^2/r^2)^2.
    # bump underflows to zero long before 1/u^2 can overflow, so the
    # product stays finite all the way to the support edge.
    fac = np.where(inside, -2.0 / radius**2 / u**2, 0.0) * bump
    norm = 1.0 / integral(grid, bump)
    j = bump * norm
    gx = fac * px * norm
    gy = fac * py * norm

    # Enforce exact odd symmetry; the exchange identities of the backward
    # solvers need it bit-exact, not just to round-off.
    gx = 0.5 * (gx - periodic_reverse(gx))
    gy = 0.5 * (gy - periodic_reverse(gy))

    return Kernel(grid=grid, radius=radius, j=j, gjx=gx, gjy=gy)


def kernel_report(k: Kernel) -> dict[str, float]:
    """Summary facts about the kernel, printed by the kernel-info command."""
    g = k.grid
    even_res = float(np.max(np.abs(k.j - periodic_reverse(k.j))))
    odd_res = max(
        float(np.max(np.abs(k.gjx + periodic_reverse(k.gjx)))),
        float(np.max(np.abs(k.gjy + periodic_reverse(k.gjy)))),
    )
    ones = np.ones(g.shape)
    return {
        "integral": integral(g, k.j),
        "max_value": float(np.max(k.j)),
        "support_cells": int(np.count_nonzero(k.j)),
        "even_residual": even_res,
        "odd_residual": odd_res,
        "grad_integral_x": integral(g, k.gjx),
        "grad_integral_y": integral(g, k.gjy),
        "grad_l1": k.grad_l1(),
        "conv_const_max": float(np.max(np.abs(circ_conv(g, k.gjx, ones)))),
    }
