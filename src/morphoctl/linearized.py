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

from .forward import (
    InitData,
    ModelParams,
    Trajectory,
    _march,
    _store,
    control_array,
    l2_h1_norm,
    state_steps,
)
from .grid import div, irfft2, l2, rfft2, solve_implicit_diffusion, time_values

# Perturbation sizes of the Taylor test, halving from 1e-1: three orders from four rungs.
EPS_LADDER = (1e-1, 5e-2, 2.5e-2, 1.25e-2)
# The ladder doubles, at most LADDER_DOUBLINGS times, until its smallest remainder stands
# FLOOR_FACTOR round-off floors up; 100 keeps both shipped configs on EPS_LADDER.
FLOOR_FACTOR = 100.0
LADDER_DOUBLINGS = 8


@dataclass(frozen=True)
class TangentTrajectory:
    """Directional derivative of the state trajectory along a control direction."""

    params: ModelParams
    phi1: np.ndarray  # (nt+1, ny, nx), zero initial slice
    phi2: np.ndarray


def step_linearized(
    m_hat: np.ndarray,
    phi_hat: np.ndarray,
    grad_m: tuple[np.ndarray, np.ndarray],
    u: np.ndarray,
    grad_phi1: np.ndarray,
    h_slice: np.ndarray,
    params: ModelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the exact discrete derivative at (m_hat, phi_hat) of ``u``, the
    ``(2, ny, nx)`` stack [phi1, phi2].

    ``grad_m`` is ``[gmx, gmy]``, gradJ * m_hat: the pair the forward step read where the
    run kept it, so the tangent is the derivative of the step that ran, else made from the
    stored m.  ``grad_phi1`` is gradJ * phi1, carried as in
    :func:`morphoctl.forward.step_state`.  Returns ``(u+, gradJ * phi1+)``.
    """
    g = params.grid
    dt = params.dt
    phi1, phi2 = u
    c = params.mobilities(m_hat, phi_hat)  # [c1, a2], both multiply gradJ * phi1
    a = np.empty_like(u)                   # [a1, c2], both multiply gradJ * m_hat
    np.subtract(phi2, 2.0 * m_hat * phi1, out=a[0])
    np.subtract((1.0 - phi_hat) * phi1, m_hat * phi2, out=a[1])
    a *= 2.0 * params.beta
    flux_x = a * grad_m[0]  # the fluxes reuse the coefficients' stacks, as in step_state
    flux_x += c * grad_phi1[0]
    a *= grad_m[1]
    c *= grad_phi1[1]
    a += c
    del c
    rhs = div(g, flux_x, a)
    del flux_x, a
    rhs *= dt
    np.subtract(u, rhs, out=rhs)
    rhs[1] += dt * (-params.alpha * phi2 + h_slice)
    spec = np.empty((4, g.ny, g.nx // 2 + 1), complex)  # [phi1+, phi2+, gradJ * phi1+] spectra
    rfft2(rhs, spec[:2])
    del rhs  # freed before the four fields are made
    solve_implicit_diffusion(g, spec[0], dt, spec[0])
    solve_implicit_diffusion(g, spec[1], dt, spec[1])
    params.kernel.grad_hat(spec[0], spec[2:])
    out = irfft2(spec, g.shape)
    return out[:2], out[2:]


def tangent_steps(traj: Trajectory, h):
    """The tangent march's slices ``(n, phi1_n, phi2_n)``, n = 0..nt, along a stored run,
    carrying gradJ * phi1 from the zero pair of the zero initial slice; the set-up runs on
    the call.  Step n reads gradJ * m_n by index, :meth:`Trajectory.grad_m_at`."""
    params = traj.params
    harr = control_array(h, params)
    zero = np.zeros((2, *params.grid.shape))
    return _march(
        params, "tangent blow-up", zero, zero,
        lambda n, u, grad_phi1: step_linearized(
            traj.m[n], traj.phi[n], traj.grad_m_at(n), u, grad_phi1, harr[n], params
        ),
    )


def solve_linearized(traj: Trajectory, h) -> TangentTrajectory:
    """March the tangent system along a stored forward trajectory, storing both histories
    (:func:`tangent_steps`)."""
    phi1, phi2 = _store(traj.params, tangent_steps(traj, h))
    return TangentTrajectory(params=traj.params, phi1=phi1, phi2=phi2)


def tangent_norm(tan: TangentTrajectory) -> float:
    """Discrete L2(S x Omega)^2 norm of the tangent (state quadrature)."""
    p = tan.params
    rows = time_values(p.grid, lambda g, a, b: (l2(g, a), l2(g, b)), tan.phi1[1:], tan.phi2[1:])
    return float(np.sqrt(sum(a ** 2 + b ** 2 for a, b in rows) * p.dt))


def tangent_stability_norm(tan: TangentTrajectory) -> float:
    """|phi1|_{L2(S;H1)} + |phi2|_{L2(S;H1)}, the stability-estimate quantity."""
    return l2_h1_norm(tan.params, tan.phi1) + l2_h1_norm(tan.params, tan.phi2)


def taylor_test(base: Trajectory, h) -> dict:
    """Remainder decay of S(theta + eps h) against the tangent prediction.

    ``base`` is the caller's run S(theta): it gives theta, params and the start
    ``InitData(base.m[0], base.phi[0])``.  Returns, for each eps of the ladder, the remainders
    r(eps) = |S(theta+eps h) - S(theta) - eps DS h|
    in the discrete L2(S x Omega)^2 norm on (m, phi), the observed orders
    log(r_i / r_{i+1}) / log(eps_i / eps_{i+1}) (= 2 for an exact
    derivative of a polynomial step map), the Taylor gate's measure, the largest
    |order - 2| with a non-finite order read as inf, and the first-order quotients
    |S(theta+eps h) - S(theta)| / eps, which approach |DS h|.

    The ladder is :data:`EPS_LADDER`, doubled, at most :data:`LADDER_DOUBLINGS` times,
    while its smallest remainder is below :data:`FLOOR_FACTOR` round-off floors (the
    same norm of one ulp of the base state per cell); along an identically zero ``h``
    it is not doubled.  The measure reads only the orders whose two remainders reach
    that level; ``read`` flags them, one flag per order.  If none does while the top
    rung's change |S(theta+eps h) - S(theta)| does, the tangent predicts every rung to
    round-off and the measure is 0; if nothing moves, as along a zero direction, it is inf.
    """
    th, params, g = base.theta, base.params, base.params.grid
    init = InitData(base.m[0], base.phi[0])
    harr = control_array(h, params)
    tan = solve_linearized(base, harr)
    tnorm = tangent_norm(tan)

    def rung(eps):
        """(remainder, first-order quotient) at eps; the perturbed run is streamed."""

        def norms(n, pm, pp):
            dm, dp = pm - base.m[n], pp - base.phi[n]
            return l2(g, dm - eps * tan.phi1[n]), l2(g, dp - eps * tan.phi2[n]), l2(g, dm), l2(g, dp)

        steps = state_steps(init, th + eps * harr, params)
        next(steps)  # both runs start from init
        rows = [norms(*s) for s in steps]
        rem = sum(a ** 2 + b ** 2 for a, b, _, _ in rows)
        fd = sum(c ** 2 + d ** 2 for _, _, c, d in rows)
        return float(np.sqrt(rem * params.dt)), float(np.sqrt(fd * params.dt)) / eps

    # The round-off floor: the remainders' norm of one ulp of the base state in each cell.
    ulps = time_values(g, lambda g, m, p: (l2(g, np.spacing(m)), l2(g, np.spacing(p))),
                       base.m[1:], base.phi[1:])
    least = FLOOR_FACTOR * float(np.sqrt(sum(a ** 2 + b ** 2 for a, b in ulps) * params.dt))
    ladder = list(EPS_LADDER)
    rungs = [rung(eps) for eps in ladder]
    for _ in range(LADDER_DOUBLINGS if harr.any() else 0):  # along h = 0 no rung moves
        if rungs[-1][0] >= least:
            break
        ladder = [2.0 * ladder[0], *ladder[:-1]]  # the ratios stay; one new rung on top
        rungs = [rung(ladder[0]), *rungs[:-1]]
    remainders, fd_norms = map(list, zip(*rungs))

    orders = []
    for i in range(len(ladder) - 1):
        num = remainders[i] / remainders[i + 1] if remainders[i + 1] > 0 else np.nan
        den = ladder[i] / ladder[i + 1]
        orders.append(float(np.log(num) / np.log(den)) if np.isfinite(num) else np.nan)
    # Only an order whose two remainders stand above the floor reads the derivative.
    read = [min(hi, lo) >= least for hi, lo in zip(remainders, remainders[1:])]
    gaps = [abs(o - 2.0) if np.isfinite(o) else np.inf for o, r in zip(orders, read) if r]
    moved = fd_norms[0] * ladder[0] >= least

    return {
        "eps": ladder,
        "remainders": remainders,
        "orders": orders,
        "read": read,
        "order_gap": max(gaps) if gaps else (0.0 if moved else np.inf),
        "first_order_quotients": fd_norms,
        "tangent_norm": tnorm,
    }
