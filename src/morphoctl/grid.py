"""Periodic uniform grid, discrete operators, circular convolution, norms.

Conventions used by every module in this package:

* A field is a float64 array of shape ``(ny, nx)``.  Row index j is the y
  cell, column index i is the x cell, with cell centers at
  ``x_i = (i + 0.5) hx`` and ``y_j = (j + 0.5) hy``.  Flattening in C order
  therefore yields rows of x values, y-major, which is also the snapshot
  file layout.
* Operators, pairings and norms act on the trailing ``(ny, nx)`` axes (x
  is axis -1).  A ``(k, ny, nx)`` stack of time slices gives ``k``
  per-slice values, bit-identical to slice-by-slice calls; a field gives
  a Python ``float``.
* All reductions run over that fixed C-order layout (numpy pairwise
  summation on contiguous float64 arrays), so every reported number is
  deterministic for a given input.  Time sums run in time order with the
  built-in ``sum`` on Python floats, so space-time numbers are too
  (``np.sum`` sums pairwise, and numpy squares by ``x * x``, not ``pow``).
* The discrete pairing is ``<f, g> = hx hy sum(f g)`` and all norms derive
  from it.  ``h1`` uses the sum convention ``|f|_L2 + |grad f|_L2``.
* Differential operators are centered second-order differences with
  periodic wraparound.  Summation by parts is exact:
  ``<div v, f> = -<v, grad f>`` for any field/vector field pair.  The
  transposed (backward) solvers rely on this identity holding to
  round-off, not just to truncation order.
* The discrete Laplacian is diagonal in the DFT basis.  For mode
  ``(kx, ky)`` its eigenvalue is::

      lam(kx, ky) = -(2/hx^2) (1 - cos(2 pi kx / nx))
                    -(2/hy^2) (1 - cos(2 pi ky / ny))  <= 0

  and implicit diffusion steps are solved exactly by dividing by
  ``1 - dt lam`` in that basis.
* The ``h_minus_1`` norm uses the same basis with the continuous
  wavenumber convention ``kappa = (2 pi ktilde_x / Lx, 2 pi ktilde_y / Ly)``
  (``ktilde`` the signed integer DFT frequency)::

      |f|_{H^-1}^2 = (hx hy / (nx ny)) sum_k |fhat_k|^2 / (1 + |kappa_k|^2)

  where ``fhat = fft2(f)``.  The zero mode then reproduces the plain L2
  norm of the mean, so a constant on the unit square has all three norms
  equal.
* Circular convolution folds the cell area in, so it is a discrete
  integral: ``out(p) = sum_q k(p - q) f(q) hx hy`` with periodic index
  arithmetic.  The direct summation path is the normative definition; the
  FFT path must (and does in the tests) agree with it to 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic rectangle split into nx-by-ny cells."""

    nx: int
    ny: int
    Lx: float
    Ly: float

    def __post_init__(self):
        if self.nx < 4 or self.ny < 4:
            raise ParameterError("nx", "grid needs nx >= 4 and ny >= 4")
        if not (self.Lx > 0.0 and self.Ly > 0.0):
            raise ParameterError("Lx", "grid needs positive edge lengths")

    @property
    def hx(self) -> float:
        return self.Lx / self.nx

    @property
    def hy(self) -> float:
        return self.Ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny, self.nx)

    @property
    def cell_area(self) -> float:
        return self.hx * self.hy

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid arrays (X, Y) of cell-center coordinates, shape (ny, nx)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y)

    def check(self, *fields: np.ndarray) -> None:
        for f in fields:
            if f.shape != self.shape:
                raise GridMismatch(
                    f"field shape {f.shape} does not match grid shape {self.shape}"
                )

    @cached_property
    def _lam_rfft(self) -> np.ndarray:
        # Five-point Laplacian symbol on the rfft2 mode layout, all <= 0.
        kx = np.arange(self.nx // 2 + 1)
        ky = np.arange(self.ny)
        cx = (2.0 / self.hx**2) * (1.0 - np.cos(2.0 * np.pi * kx / self.nx))
        cy = (2.0 / self.hy**2) * (1.0 - np.cos(2.0 * np.pi * ky / self.ny))
        return -(cx[None, :] + cy[:, None])

    @cached_property
    def _hminus1_mult(self) -> np.ndarray:
        kapx = 2.0 * np.pi * np.fft.fftfreq(self.nx) * self.nx / self.Lx
        kapy = 2.0 * np.pi * np.fft.fftfreq(self.ny) * self.ny / self.Ly
        return 1.0 / (1.0 + kapx[None, :] ** 2 + kapy[:, None] ** 2)


def grad(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered periodic gradient, (gx, gy)."""
    gx = (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * grid.hx)
    gy = (np.roll(f, -1, axis=-2) - np.roll(f, 1, axis=-2)) / (2.0 * grid.hy)
    return gx, gy


def div(grid: Grid, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Centered periodic divergence of the vector field (vx, vy)."""
    dx = (np.roll(vx, -1, axis=-1) - np.roll(vx, 1, axis=-1)) / (2.0 * grid.hx)
    dy = (np.roll(vy, -1, axis=-2) - np.roll(vy, 1, axis=-2)) / (2.0 * grid.hy)
    return dx + dy


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Periodic five-point Laplacian."""
    lx = (np.roll(f, -1, axis=-1) + np.roll(f, 1, axis=-1) - 2.0 * f) / grid.hx**2
    ly = (np.roll(f, -1, axis=-2) + np.roll(f, 1, axis=-2) - 2.0 * f) / grid.hy**2
    return lx + ly


def solve_implicit_diffusion(grid: Grid, rhs: np.ndarray, dt: float) -> np.ndarray:
    """Solve (I - dt Lap_h) u = rhs exactly in the DFT eigenbasis."""
    uh = np.fft.rfft2(rhs) / (1.0 - dt * grid._lam_rfft)
    return np.fft.irfft2(uh, s=grid.shape)


def smooth_periodic(f: np.ndarray, passes: int) -> np.ndarray:
    """``passes`` rounds of periodic 3x3 box averaging."""
    for _ in range(passes):
        acc = np.zeros_like(f)
        for sy in (-1, 0, 1):
            for sx in (-1, 0, 1):
                acc += np.roll(f, (sy, sx), axis=(0, 1))
        f = acc / 9.0
    return f


def _per_slice(x) -> float | np.ndarray:
    """A field's reduction as a Python float; a stack's as its array."""
    return float(x) if np.ndim(x) == 0 else x


def integral(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    """Discrete integral sum(f) hx hy, fixed C-order summation."""
    return _per_slice(np.sum(f, axis=(-2, -1)) * grid.cell_area)


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float | np.ndarray:
    """Discrete L2 pairing <f, g> = hx hy sum(f g)."""
    return integral(grid, f * g)


def l2(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    return _per_slice(np.sqrt(inner(grid, f, f)))


def h1(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    """H1 norm with the sum convention |f|_L2 + |grad f|_L2."""
    gx, gy = grad(grid, f)
    return _per_slice(l2(grid, f) + np.sqrt(inner(grid, gx, gx) + inner(grid, gy, gy)))


def h_minus_1(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    """Dual-space norm via the DFT multiplier (1 + |kappa|^2)^(-1/2)."""
    fh = np.fft.fft2(f)
    total = np.sum((fh.real**2 + fh.imag**2) * grid._hminus1_mult, axis=(-2, -1))
    return _per_slice(np.sqrt(grid.cell_area / (grid.nx * grid.ny) * total))


def norms(grid: Grid, f: np.ndarray) -> dict[str, float]:
    """All three field norms used by the monitoring reports."""
    return {"l2": l2(grid, f), "h1": h1(grid, f), "h_minus_1": h_minus_1(grid, f)}


def periodic_reverse(f: np.ndarray) -> np.ndarray:
    """Index negation g[p] = f[-p mod n] along both axes."""
    return np.roll(f[::-1, ::-1], (1, 1), axis=(0, 1))


def circ_conv(grid: Grid, k: np.ndarray, f: np.ndarray, method: str = "fft") -> np.ndarray:
    """Circular convolution out(p) = sum_q k(p-q) f(q) hx hy.

    ``k`` holds kernel samples with the zero offset at index (0, 0) and
    negative offsets wrapped to the far end.  ``method="direct"`` is the
    normative summation path; ``method="fft"`` is the fast path and agrees
    with it to round-off.
    """
    grid.check(k, f)
    if method == "fft":
        out = np.fft.irfft2(np.fft.rfft2(k) * np.fft.rfft2(f), s=grid.shape)
        return out * grid.cell_area
    if method == "direct":
        out = np.zeros(grid.shape)
        sy, sx = np.nonzero(k)
        for j, i in zip(sy.tolist(), sx.tolist()):
            out += k[j, i] * np.roll(f, (j, i), axis=(0, 1))
        return out * grid.cell_area
    raise ValueError(f"unknown convolution method {method!r}")
