"""Interaction kernel: smooth compactly supported bump and its gradient.

The kernel is sampled at periodic offsets with the zero offset stored at
index (0, 0) and negative offsets wrapped to the far end of each axis,
matching the layout of the direct-sum oracle ``circ_conv`` in
``tests/oracles.py``.  The samples are normalized so the discrete integral of
the scalar kernel is exactly 1, mirroring the unit-mass normalization of the
continuum potential.

The gradient samples come from the closed-form derivative of the bump
(not from differencing) and are antisymmetrized afterwards, so the odd
symmetry ``gj(-p) = -gj(p)`` holds bit-exactly.  The backward solvers use
that symmetry to transpose the nonlocal drift, so it must be exact, not
just accurate.

``Kernel`` holds the package's one FFT convolution, tested against
``circ_conv`` at 1e-12.  It works from the :func:`morphoctl.grid.rfft2`
spectrum of its field, so a sweep holding the spectrum spends no transform.
``grad_hat`` stays in the spectral domain and writes its pair into the step's
spectra stack, which the forward and tangent sweeps inverse-transform in one call.
``grad_conv`` makes the pair's fields in one inverse call; it seeds the forward
sweep and makes the pair at a stored state of a run that kept none.
``grad_conv_sum`` takes and returns spectra, so the adjoint adds its
contraction to a spectrum it transforms anyway.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SupportTooLarge, SupportUnresolved
from .grid import Grid, integral, irfft2, periodic_reverse, rfft2


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
        return rfft2(self.j) * self.grid.cell_area

    @cached_property
    def _gx_hat(self) -> np.ndarray:
        return rfft2(self.gjx) * self.grid.cell_area

    @cached_property
    def _gy_hat(self) -> np.ndarray:
        return rfft2(self.gjy) * self.grid.cell_area

    def conv_j(self, f: np.ndarray) -> np.ndarray:
        """j * f (discrete integral convolution)."""
        fh = rfft2(f)  # named: an elided temporary is multiplied in place, with other bits
        return irfft2(self._j_hat * fh, self.grid.shape)

    def grad_hat(self, fh: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The rfft2 spectra of both components of (grad j) * f, from f's spectrum ``fh``,
        into the ``(2, *fh.shape)`` stack ``out``: in a sweep step, a slice of its spectra
        stack."""
        np.multiply(self._gx_hat, fh, out=out[0])
        np.multiply(self._gy_hat, fh, out=out[1])
        return out

    def grad_conv(self, fh: np.ndarray) -> np.ndarray:
        """The stack [ax, ay] of both components of (grad j) * f, from f's rfft2 spectrum
        ``fh``, in one inverse call.

        A caller holding only the field passes ``grid.rfft2(f)``.  A ``(k, ny, nx//2+1)``
        stack of spectra gives a ``(2, k, ny, nx)`` stack.
        """
        return irfft2(self.grad_hat(fh, np.empty((2, *fh.shape), complex)), self.grid.shape)

    def grad_conv_sum(self, vxh: np.ndarray, vyh: np.ndarray) -> np.ndarray:
        """The rfft2 spectrum of sum_i (d_i j) * v_i, from those of v_x and v_y.

        The backward sweeps' contraction: the discrete adjoint subtracts it from a
        right-hand side's spectrum, the continuous one inverse-transforms it.
        """
        return self._gx_hat * vxh + self._gy_hat * vyh

    def grad_l1(self) -> float:
        """Discrete L1 norm of the gradient samples, sum |gj| hx hy."""
        return integral(self.grid, np.hypot(self.gjx, self.gjy))


def smallest_radius(h: float) -> float:
    """Smallest kernel radius cells of width h resolve, 3 h (build_kernel's and coarsened's rule)."""
    return 3.0 * h


def build_kernel(grid: Grid, radius: float) -> Kernel:
    """Construct the normalized kernel on the given grid.

    The support must fit inside half the domain (no self-overlap under periodization)
    and be resolved, radius >= smallest_radius(max(hx, hy)), or 3 L / n on each axis.
    """
    if 2.0 * radius >= min(grid.Lx, grid.Ly):
        raise SupportTooLarge(
            f"kernel radius {radius} needs 2 r < min(Lx, Ly) = {min(grid.Lx, grid.Ly)}"
        )
    least = smallest_radius(max(grid.hx, grid.hy))
    if not (radius >= least):
        raise SupportUnresolved(f"kernel radius {radius} below 3 max(hx, hy) = {least}")

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
    ones_hat = rfft2(np.ones(g.shape))
    return {
        "integral": integral(g, k.j),
        "max_value": float(np.max(k.j)),
        "support_cells": int(np.count_nonzero(k.j)),
        "even_residual": even_res,
        "odd_residual": odd_res,
        "grad_integral_x": integral(g, k.gjx),
        "grad_integral_y": integral(g, k.gjy),
        "grad_l1": k.grad_l1(),
        "conv_const_max": float(np.max(np.abs(k.grad_conv(ones_hat)[0]))),
    }
