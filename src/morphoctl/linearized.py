"""Exact linearization of the discrete forward step and Taylor-order tests.

``step_linearized`` is the derivative of :func:`morphoctl.forward.step_state`
with respect to (m, phi, theta) at a stored forward state, applied to a
tangent direction (phi1, phi2, h):

    (I - dt Lap) phi1+ = phi1 - dt div( 2 beta (phi2 - 2 m phi1) (gradJ * m)
                                      + 2 beta (phi - m^2) (gradJ * phi1) )
    (I - dt Lap) phi2+ = phi2 - dt div( 2 beta m (1 - phi) (gradJ * phi1)
                                      + 2 beta phi1 (1 - phi) (gradJ * m)
                                      - 2 beta phi2 m (gradJ * m) )
                         + dt (-alpha phi2 + h)

Linearizing the discrete step (rather than discretizing the continuous
linearized system separately) makes the finite-difference consistency
checks sharp to round-off and lets the backward sweep in
:mod:`morphoctl.control` be the exact transpose.  See
docs/discrete_adjoint.md for the term-by-term derivation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite
from .forward import (
    InitData,
    ModelParams,
    Trajectory,
    _sum_sq,
    control_array,
    l2_h1_norm,
    solve_state,
)
from .grid import div, l2, solve_implicit_diffusion

# Perturbation sizes of the Taylor test, halving from 1e-1: three orders from four rungs.
EPS_LADDER = (1e-1, 5e-2, 2.5e-2, 1.25e-2)


@dataclass(frozen=True)
class TangentTrajectory:
    """Directional derivative of the state trajectory along a control direction."""

    params: ModelParams
    phi1: np.ndarray  # (nt+1, ny, nx), zero initial slice
    phi2: np.ndarray


def step_linearized(
    m_hat: np.ndarray,
    phi_hat: np.ndarray,
    phi1: np.ndarray,
    phi1_spec: np.ndarray,
    phi2: np.ndarray,
    h_slice: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of the exact discrete derivative at (m_hat, phi_hat).

    ``phi1_spec`` is the rfft2 spectrum of ``phi1``, carried like the
    state's ``m_spec`` in :func:`morphoctl.forward.step_state`.  Returns
    ``(phi1+, phi1+ spectrum, phi2+)``.  The stored state has no carried
    spectrum, so ``m_hat`` is transformed here.
    """
    g = params.grid
    dt = params.dt
    b2 = 2.0 * params.beta
    gmx, gmy = params.kernel.grad_conv(np.fft.rfft2(m_hat))
    g1x, g1y = params.kernel.grad_conv(phi1_spec)

    a1 = b2 * (phi2 - 2.0 * m_hat * phi1)          # multiplies gradJ * m_hat
    c1 = b2 * (phi_hat - m_hat * m_hat)            # multiplies gradJ * phi1
    rhs1 = phi1 - dt * div(g, a1 * gmx + c1 * g1x, a1 * gmy + c1 * g1y)

    a2 = b2 * (m_hat * (1.0 - phi_hat))            # multiplies gradJ * phi1
    c2 = b2 * ((1.0 - phi_hat) * phi1 - m_hat * phi2)  # multiplies gradJ * m_hat
    rhs2 = (
        phi2
        - dt * div(g, a2 * g1x + c2 * gmx, a2 * g1y + c2 * gmy)
        + dt * (-params.alpha * phi2 + h_slice)
    )

    p1, p1_spec = solve_implicit_diffusion(g, rhs1, dt)
    p2, _ = solve_implicit_diffusion(g, rhs2, dt)
    if not (np.isfinite(p1).all() and np.isfinite(p2).all()):
        raise NonFinite("non-finite tangent state")
    return p1, p1_spec, p2


def solve_linearized(traj: Trajectory, h) -> TangentTrajectory:
    """March the tangent system along a stored forward trajectory, carrying phi1's spectrum."""
    params = traj.params
    harr = control_array(h, params)
    nt = params.nt
    phi1 = np.zeros((nt + 1, *params.grid.shape))
    phi2 = np.zeros_like(phi1)
    phi1_spec = np.fft.rfft2(phi1[0])
    for n in range(nt):
        try:
            phi1[n + 1], phi1_spec, phi2[n + 1] = step_linearized(
                traj.m[n], traj.phi[n], phi1[n], phi1_spec, phi2[n], harr[n], params
            )
        except NonFinite as exc:
            raise NonFinite(f"tangent blow-up at step {n + 1}", step=n + 1) from exc
    return TangentTrajectory(params=params, phi1=phi1, phi2=phi2)


def _pair_norm(params: ModelParams, a: np.ndarray, b: np.ndarray) -> float:
    """sqrt(dt sum_n (|a_n|^2 + |b_n|^2)) over two stacks, summed in time order."""
    return float(np.sqrt(_sum_sq(l2(params.grid, a), l2(params.grid, b)) * params.dt))


def tangent_norm(tan: TangentTrajectory) -> float:
    """Discrete L2(S x Omega)^2 norm of the tangent (state quadrature)."""
    return _pair_norm(tan.params, tan.phi1[1:], tan.phi2[1:])


def tangent_stability_norm(tan: TangentTrajectory) -> float:
    """|phi1|_{L2(S;H1)} + |phi2|_{L2(S;H1)}, the stability-estimate quantity."""
    return l2_h1_norm(tan.params, tan.phi1) + l2_h1_norm(tan.params, tan.phi2)


def taylor_test(init: InitData, theta_hat, h, params: ModelParams) -> dict:
    """Remainder decay of S(theta + eps h) against the tangent prediction.

    Returns, for each eps of :data:`EPS_LADDER`, the remainders
    r(eps) = |S(theta+eps h) - S(theta) - eps DS h|
    in the discrete L2(S x Omega)^2 norm on (m, phi), the observed orders
    log(r_i / r_{i+1}) / log(eps_i / eps_{i+1}) (= 2 for an exact
    derivative of a polynomial step map), and the first-order quotients
    |S(theta+eps h) - S(theta)| / eps, which approach |DS h|.
    """
    th = control_array(theta_hat, params)
    harr = control_array(h, params)

    base = solve_state(init, th, params)
    tan = solve_linearized(base, harr)
    tnorm = tangent_norm(tan)

    remainders = []
    fd_norms = []
    for eps in EPS_LADDER:
        pert = solve_state(init, th + eps * harr, params)
        dm = pert.m[1:] - base.m[1:]
        dp = pert.phi[1:] - base.phi[1:]
        remainders.append(_pair_norm(params, dm - eps * tan.phi1[1:], dp - eps * tan.phi2[1:]))
        fd_norms.append(_pair_norm(params, dm, dp) / eps)

    orders = []
    for i in range(len(EPS_LADDER) - 1):
        num = remainders[i] / remainders[i + 1] if remainders[i + 1] > 0 else np.nan
        den = EPS_LADDER[i] / EPS_LADDER[i + 1]
        orders.append(float(np.log(num) / np.log(den)) if np.isfinite(num) else np.nan)

    return {
        "eps": list(EPS_LADDER),
        "remainders": remainders,
        "orders": orders,
        "first_order_quotients": fd_norms,
        "tangent_norm": tnorm,
    }
