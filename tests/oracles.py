"""Reference definitions the tests hold the package's fast paths to; no code in src/ calls them.

Each is a plain definition on whole stacks: the H^-1 norm by the complex ``fft2``, the
paper's a priori energy norms, and the scheme's discrete weak form.
"""

import numpy as np

from morphoctl.grid import Grid, grad, h1, inner


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


def h_minus_1(grid: Grid, f: np.ndarray) -> float | np.ndarray:
    """Dual-space norm of a field (a float) or of each slice of a stack.

    With the continuous wavenumbers kappa = (2 pi kx / Lx, 2 pi ky / Ly), kx and ky the
    signed DFT frequencies,

        |f|_{H^-1}^2 = (hx hy / (nx ny)) sum_k |fhat_k|^2 / (1 + |kappa_k|^2),

    fhat = fft2(f).  The zero mode gives the L2 norm of the mean, so a constant on the
    unit square has its l2, h1 and H^-1 norms equal.
    """
    kapx = 2.0 * np.pi * np.fft.fftfreq(grid.nx) * grid.nx / grid.Lx
    kapy = 2.0 * np.pi * np.fft.fftfreq(grid.ny) * grid.ny / grid.Ly
    mult = 1.0 / (1.0 + kapx[None, :] ** 2 + kapy[:, None] ** 2)
    fh = np.fft.fft2(f)
    total = np.sum((fh.real**2 + fh.imag**2) * mult, axis=(-2, -1))
    value = np.sqrt(grid.cell_area / (grid.nx * grid.ny) * total)
    return float(value) if value.ndim == 0 else value


def _time_norm(params, values: np.ndarray) -> float:
    """sqrt(dt sum_n v_n^2) of per-slice values, squared and summed in time order as the
    package's space-time reductions do, so a probe built from them compares bit for bit."""
    return float(np.sqrt(sum(v**2 for v in values.tolist()) * params.dt))


def l2_h1_norm(params, series: np.ndarray) -> float:
    """L2(S; H1) norm of an (nt+1)-slice state series, quadrature over n = 1..nt."""
    return _time_norm(params, h1(params.grid, series[1:]))


def dt_h_minus_1_norm(params, series: np.ndarray) -> float:
    """L2(S; H^-1) norm of the backward time difference quotient of a state series."""
    return _time_norm(params, h_minus_1(params.grid, np.diff(series, axis=0) / params.dt))


def apriori_norms(traj) -> dict[str, float]:
    """The norms of the paper's a priori energy estimates, of a forward trajectory."""
    p = traj.params
    return {
        "m_L2H1": l2_h1_norm(p, traj.m),
        "phi_L2H1": l2_h1_norm(p, traj.phi),
        "dtm_L2Hm1": dt_h_minus_1_norm(p, traj.m),
        "dtphi_L2Hm1": dt_h_minus_1_norm(p, traj.phi),
    }


def tangent_stability_norm(tan) -> float:
    """|phi1|_{L2(S;H1)} + |phi2|_{L2(S;H1)}, the stability-estimate quantity."""
    return l2_h1_norm(tan.params, tan.phi1) + l2_h1_norm(tan.params, tan.phi2)


def _fwd_diff(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided differences; their pairing composes to the 5-point Laplacian."""
    return (np.roll(f, -1, axis=-1) - f) / grid.hx, (np.roll(f, -1, axis=-2) - f) / grid.hy


def weak_residual(traj, psi: np.ndarray, eta: np.ndarray) -> dict[str, float]:
    """Accumulated defect of a trajectory in the scheme's discrete weak form.

    For each step the scheme satisfies, exactly,

        <(m+ - m)/dt, psi> + <grad m+, grad psi> - <F_m(m, phi), grad psi> = 0

    (and the phi analogue with the reaction and control terms), so a trajectory made by
    ``forward.solve_state`` returns zero to round-off while any perturbed history does
    not.  Each term pairs through the gradient adjoint to its operator in the scheme:
    the diffusion pairing uses one-sided differences (whose composition is the
    five-point Laplacian), the drift pairing the centered gradient (the transpose of the
    centered divergence).  Every step is one slice of the stacks.
    """
    p = traj.params
    g = p.grid
    m, phi = traj.m[:-1], traj.phi[:-1]
    gm = p.kernel.grad_conv(np.fft.rfft2(m))
    cm, cp = p.mobilities(m, phi)

    def pairing(new, old, coeff, test):
        dx, dy = grad(g, test)
        fx, fy = _fwd_diff(g, test)
        nx, ny = _fwd_diff(g, new)
        return (
            inner(g, (new - old) / p.dt, test) + inner(g, nx, fx) + inner(g, ny, fy)
            - inner(g, coeff * gm[0], dx) - inner(g, coeff * gm[1], dy)
        )

    res_m = pairing(traj.m[1:], m, cm, psi)
    res_p = pairing(traj.phi[1:], phi, cp, eta)
    res_p -= inner(g, p.alpha * (1.0 - phi) + traj.theta, eta)
    return {"res_m": float(np.sum(np.abs(res_m)) * p.dt),
            "res_phi": float(np.sum(np.abs(res_p)) * p.dt)}
