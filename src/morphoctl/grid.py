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
  deterministic for a given input.
* Every space-time reduction takes its per-slice values from
  :func:`time_values`, one block of at most ``_BLOCK_BYTES`` at a time:
  memory bounded by the block, and by the stack contract above the same
  bits for any block size.  Callers square (``v ** 2``) and sum those
  Python floats in time order.
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

  and implicit diffusion steps are solved exactly in that basis, by
  multiplying with a cached ``1 / (1 - dt lam)``.
* Every real 2-D transform in the package goes through :func:`rfft2` and
  :func:`irfft2`: they call the 1-D pocketfft gufuncs ``numpy.fft`` calls, with
  its normalization, so numpy's bits of the float64 field without its per-call
  argument handling (see docs/discrete_adjoint.md), countable in one place.
  ``h_minus_1`` uses the complex ``fft2``; no other module names ``numpy.fft``
  or its gufuncs' private module (``tests/test_transform_lint.py``).
* A sweep carries its pair as one ``(2, ny, nx)`` stack, and a step keeps its
  independent fields in stacks too, each transformed in one call each way at
  every grid size: a pass transforms each field of a stack on its own, so the
  bits are a call per field's.
* The ``h_minus_1`` norm uses the same basis with the continuous
  wavenumber convention ``kappa = (2 pi ktilde_x / Lx, 2 pi ktilde_y / Ly)``
  (``ktilde`` the signed integer DFT frequency)::

      |f|_{H^-1}^2 = (hx hy / (nx ny)) sum_k |fhat_k|^2 / (1 + |kappa_k|^2)

  where ``fhat = fft2(f)``.  The zero mode then reproduces the plain L2
  norm of the mean, so a constant on the unit square has all three norms
  equal.
* Circular convolution folds the cell area in, so it is a discrete
  integral: ``out(p) = sum_q k(p - q) f(q) hx hy`` with periodic index
  arithmetic.  The direct sum ``circ_conv`` in the tests' oracle module
  (``tests/oracles.py``) is the definition; the tests hold ``Kernel``'s FFT
  path, the package's only one, to it at 1e-12.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pfu

from .errors import GridMismatch, ParameterError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic rectangle split into nx-by-ny cells."""

    nx: int
    ny: int
    Lx: float
    Ly: float

    def __post_init__(self):
        for name in ("nx", "ny"):
            if getattr(self, name) < 4:
                raise ParameterError(name, f"grid needs {name} >= 4")
        for name in ("Lx", "Ly"):
            if not 0.0 < getattr(self, name) < np.inf:
                raise ParameterError(name, f"grid needs a finite positive {name}")

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
    def _hminus1_mult(self) -> np.ndarray:
        kapx = 2.0 * np.pi * np.fft.fftfreq(self.nx) * self.nx / self.Lx
        kapy = 2.0 * np.pi * np.fft.fftfreq(self.ny) * self.ny / self.Ly
        return 1.0 / (1.0 + kapx[None, :] ** 2 + kapy[:, None] ** 2)


def _centered(f: np.ndarray, axis: int, h: float, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic centered difference (f[i+1] - f[i-1]) / (2h) along ``axis``, into ``out``.

    Slices the trailing axis (y, axis -2, through ``swapaxes`` views) into one
    output array, no rolled copies: the operations of the ``np.roll`` form, so its bits.
    """
    out = np.empty(f.shape) if out is None else out
    src, dst = (f, out) if axis == -1 else (f.swapaxes(-1, -2), out.swapaxes(-1, -2))
    np.subtract(src[..., 2:], src[..., :-2], out=dst[..., 1:-1])
    np.subtract(src[..., 1], src[..., -1], out=dst[..., 0])
    np.subtract(src[..., 0], src[..., -2], out=dst[..., -1])
    out /= 2.0 * h
    return out


def grad(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Centered periodic gradient, the stack [gx, gy]: ``(2, *f.shape)``, so a stack's is
    ``(2, k, ny, nx)``."""
    out = np.empty((2, *f.shape))
    _centered(f, -1, grid.hx, out[0])
    _centered(f, -2, grid.hy, out[1])
    return out


def div(grid: Grid, vx: np.ndarray, vy: np.ndarray) -> np.ndarray:
    """Centered periodic divergence of the vector field (vx, vy)."""
    out = _centered(vx, -1, grid.hx)
    out += _centered(vy, -2, grid.hy)
    return out


@lru_cache(maxsize=16)
def _implicit_multiplier(grid: Grid, dt: float) -> np.ndarray:
    """``1 / (1 - dt lam)``, lam <= 0 the five-point Laplacian symbol on the rfft2 layout."""
    cx = (2.0 / grid.hx**2) * (1.0 - np.cos(2.0 * np.pi * np.arange(grid.nx // 2 + 1) / grid.nx))
    cy = (2.0 / grid.hy**2) * (1.0 - np.cos(2.0 * np.pi * np.arange(grid.ny) / grid.ny))
    return 1.0 / (1.0 - dt * -(cx[None, :] + cy[:, None]))


def rfft2(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``np.fft.rfft2`` of the float64 field over the trailing axes, into ``out``, bit for bit."""
    half = np.empty((*f.shape[:-1], f.shape[-1] // 2 + 1), complex)
    rfft = _pfu.rfft_n_odd if f.shape[-1] % 2 else _pfu.rfft_n_even
    rfft(f, 1, axes=[(-1,), (), (-1,)], out=half)
    out = np.empty(half.shape, complex) if out is None else out
    return _pfu.fft(half, 1, axes=[(-2,), (), (-2,)], out=out)


def irfft2(fh: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Inverse of :func:`rfft2` onto ``shape``: ``np.fft.irfft2(fh, s=shape)``, bit for bit,
    each pass scaled by numpy's ``1.0 / n``."""
    col = np.empty(fh.shape, complex)
    _pfu.ifft(fh, 1.0 / fh.shape[-2], axes=[(-2,), (), (-2,)], out=col)
    out = np.empty((*fh.shape[:-1], shape[-1]))
    return _pfu.irfft(col, 1.0 / shape[-1], axes=[(-1,), (), (-1,)], out=out)


def solve_implicit_diffusion(
    grid: Grid, rhs_hat: np.ndarray, dt: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The rfft2 spectrum of u solving (I - dt Lap_h) u = rhs, from ``rhs_hat = rfft2(rhs)``,
    into ``out``.

    Multiplies ``rhs_hat`` by a cached ``1 / (1 - dt lam)``: numpy's complex-by-real
    division does the same, so ``irfft2`` of the result has its bits.  A step writes
    ``u``'s spectrum into the stack it inverse-transforms (:func:`irfft2`) and can
    carry it, which equals ``rfft2(u)`` in exact arithmetic, to the next step.
    """
    return np.multiply(rhs_hat, _implicit_multiplier(grid, dt), out=out)


# Bytes of one time block, all series together: of one series, 32 slices at
# 64^2, 8 at 128^2 and a whole 100-step history at 32^2.
_BLOCK_BYTES = 1 << 20


def time_values(grid: Grid, reduce, *series):
    """Yield ``reduce(grid, *blocks)``'s per-slice values as Python floats, in time order.

    ``series`` are stacks of one length, cut into blocks of consecutive slices that
    together hold at most ``_BLOCK_BYTES`` (at least one slice each).  ``reduce`` returns
    one value per slice, or a tuple of such arrays, yielded as tuples.
    """
    k = max(1, _BLOCK_BYTES // (8 * grid.nx * grid.ny * len(series)))
    for a in range(0, len(series[0]), k):
        out = reduce(grid, *(s[a : a + k] for s in series))
        yield from zip(*(v.tolist() for v in out)) if isinstance(out, tuple) else out.tolist()


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
    """The three field norms of ``f`` by name, for the package's callers; no report uses it."""
    return {"l2": l2(grid, f), "h1": h1(grid, f), "h_minus_1": h_minus_1(grid, f)}


def periodic_reverse(f: np.ndarray) -> np.ndarray:
    """Index negation g[p] = f[-p mod n] along both axes."""
    return np.roll(f[::-1, ::-1], (1, 1), axis=(0, 1))
