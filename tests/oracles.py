"""Reference definitions the tests hold the package's fast paths to; no code in src/ calls them."""

import numpy as np

from morphoctl.grid import Grid


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Periodic five-point Laplacian."""
    lx = (np.roll(f, -1, axis=-1) + np.roll(f, 1, axis=-1) - 2.0 * f) / grid.hx**2
    ly = (np.roll(f, -1, axis=-2) + np.roll(f, 1, axis=-2) - 2.0 * f) / grid.hy**2
    return lx + ly


def circ_conv(grid: Grid, k: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Circular convolution out(p) = sum_q k(p-q) f(q) hx hy, by direct summation.

    ``k`` holds kernel samples with the zero offset at index (0, 0) and
    negative offsets wrapped to the far end.  The definition that ``Kernel``'s
    FFT convolutions must match.
    """
    grid.check(k, f)
    out = np.zeros(grid.shape)
    sy, sx = np.nonzero(k)
    for j, i in zip(sy.tolist(), sx.tolist()):
        out += k[j, i] * np.roll(f, (j, i), axis=(0, 1))
    return out * grid.cell_area
