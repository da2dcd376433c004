"""Time stepping for the coupled phase-field / polymer-fraction system.

The state is the pair (m, phi) on a periodic grid evolving under

    dm/dt   = div( grad m - 2 beta (phi - m^2) (gradJ * m) )
    dphi/dt = div( grad phi - 2 beta m (1 - phi) (gradJ * m) )
              + alpha (1 - phi) + theta

where ``gradJ * m`` is the circular convolution with the kernel gradient
and ``theta`` is the distributed control.  The normative scheme is IMEX
Euler: diffusion implicit (solved exactly in the DFT eigenbasis), the
nonlocal drift and the reaction/control terms explicit at the old state.
Both transport terms are kept in divergence form and differenced with the
centered operators, so the total mass of m is conserved exactly and phi
obeys the exact discrete balance

    sum(phi_{n+1}) h^2 = sum(phi_n) h^2 + dt sum(alpha (1 - phi_n) + theta_n) h^2.

``gradJ * m`` is made by the previous step, from the rfft2 spectrum its
implicit solve made m from, so a step transforms no stored field; that
spectrum equals ``rfft2(m)`` in exact arithmetic (see
docs/discrete_adjoint.md).  The step carries (m, phi) as one ``(2, ny, nx)``
stack: the two equations' mobilities, fluxes, divergence and right-hand sides
are each one call on it, and it transforms its stacks one call each way.

Because each step is linear in the current state apart from pointwise
polynomial coefficients, the step has an exact, closed-form derivative;
the tangent and backward sweeps in the sibling modules differentiate and
transpose this exact discrete map.  All three sweeps run one time loop,
``_march``, which carries a sweep's pair as a stack, yields the views of its two
slices and raises :class:`NonFinite` on blow-up; ``_store`` keeps a march's
histories, and :func:`state_steps` streams the state.  A stored run also keeps the
pairs gradJ * m its steps read when their bytes fit :data:`PAIR_BUDGET`, and the
tangent and adjoint read those rather than transform m again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProbe, NonFinite, ParameterError, ShapeMismatch
from .grid import (
    Grid,
    div,
    grad,
    h1,
    h_minus_1,
    inner,
    integral,
    irfft2,
    l2,
    rfft2,
    solve_implicit_diffusion,
    time_values,
)
from .kernel import Kernel


@dataclass(frozen=True)
class ModelParams:
    """Model constants plus the discretization they run on; ``grid`` is the kernel's own.

    ``dt_stability_bound`` documents the conservative explicit-drift
    positivity bound dt <= h^2 / (4 Vmax h + 2 Rmax h^2) with
    Vmax = 2 beta |gradJ|_L1 (a bound on the drift speed since |m| <= 1)
    and Rmax = alpha.  The bound is advisory: the implicit diffusion keeps
    the scheme stable well beyond it for smooth moderate data, so
    construction accepts any dt whose histories can be indexed; the
    command line prints one advisory line when a config exceeds it.
    Genuine instability is detected at runtime and raised as
    :class:`NonFinite` with the step index.
    """

    kernel: Kernel
    beta: float
    alpha: float
    T: float
    dt: float

    def __post_init__(self):
        # beta = 0 is accepted as a degenerate diagnostic limit (pure heat
        # flow); the model analysis itself assumes beta > 0.
        if not (0.0 <= self.beta < np.inf):
            raise ParameterError("beta", "beta must be finite and >= 0")
        if not (0.0 <= self.alpha < np.inf):
            raise ParameterError("alpha", "alpha must be finite and >= 0")
        if not (0.0 < self.T < np.inf and 0.0 < self.dt < np.inf):
            raise ParameterError("dt", "T and dt must be positive and finite")
        if not (self.T / self.dt + 1) * self.grid.nx * self.grid.ny < np.iinfo(np.intp).max:
            raise ParameterError("dt", "T/dt + 1 grid slices exceed the array index range")
        nt = round(self.T / self.dt)
        if nt < 1 or abs(nt * self.dt - self.T) > 1e-12 * max(1.0, self.T):
            raise ParameterError("dt", "T must be an integer multiple of dt")

    @property
    def grid(self) -> Grid:
        return self.kernel.grid

    @property
    def nt(self) -> int:
        return round(self.T / self.dt)

    def mobilities(self, m: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """The m and phi equations' drift mobilities, [2 beta (phi - m^2), 2 beta m (1 - phi)]."""
        c = np.empty((2, *m.shape))
        np.subtract(phi, m * m, out=c[0])
        np.subtract(1.0, phi, out=c[1])
        c[1] *= m
        c *= 2.0 * self.beta
        return c

    def dt_stability_bound(self) -> float:
        h = min(self.grid.hx, self.grid.hy)
        v_max = 2.0 * self.beta * self.kernel.grad_l1()
        denom = 4.0 * v_max * h + 2.0 * self.alpha * h**2
        return h**2 / denom if denom > 0.0 else float("inf")


@dataclass(frozen=True)
class InitData:
    """Initial fields, admissible when 0 <= |m0| <= |phi0| <= 1 pointwise."""

    m0: np.ndarray
    phi0: np.ndarray

    def __post_init__(self):
        if self.m0.shape != self.phi0.shape:
            raise ShapeMismatch("m0 and phi0 must share a shape")
        if not (np.isfinite(self.m0).all() and np.isfinite(self.phi0).all()):
            raise ValueError("initial data must be finite")
        if np.any(np.abs(self.m0) > np.abs(self.phi0)):
            raise ValueError("initial data requires |m0| <= |phi0| pointwise")
        if np.any(np.abs(self.phi0) > 1.0):
            raise ValueError("initial data requires |phi0| <= 1 pointwise")


# Bytes of kernel-gradient pairs a stored run keeps: 4 MiB keeps a 32^2 x 100-step run's
# 1.6 MB and leaves out 64^2 x 500 (33 MB) and 128^2 x 200 (52 MB).
PAIR_BUDGET = 4 << 20


def pair_bytes(params: ModelParams) -> int:
    """Bytes of the pairs gradJ * m_n, n = 0..nt-1, that the forward steps read."""
    return 16 * params.nt * params.grid.nx * params.grid.ny


@dataclass(frozen=True)
class Trajectory:
    """Full time history of one forward solve (the backward sweeps need it all), with the
    pairs gradJ * m_n its steps n = 0..nt-1 read where :func:`solve_state` kept them."""

    params: ModelParams
    m: np.ndarray      # (nt+1, ny, nx)
    phi: np.ndarray    # (nt+1, ny, nx)
    theta: np.ndarray  # (nt, ny, nx), slice n drives step n -> n+1
    grad_m: np.ndarray | None = None  # (nt, 2, ny, nx), or None as in a run built by hand

    def grad_m_at(self, n: int) -> np.ndarray:
        """gradJ * m_n, [gmx, gmy], at a state n < nt: the kept pair, else made from m_n."""
        if self.grad_m is None:
            return self.params.kernel.grad_conv(rfft2(self.m[n]))
        return self.grad_m[n]


def step_state(
    u: np.ndarray, grad_m: np.ndarray, theta_slice: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """One IMEX Euler step of the state ``u``, the ``(2, ny, nx)`` stack [m, phi].

    ``grad_m`` is [gmx, gmy], gradJ * m: the previous step's, or
    ``kernel.grad_conv(grid.rfft2(m))`` to start.  Returns ``(u1, grad_m1)``, views of one
    ``(4, ny, nx)`` stack, ``grad_m1`` made from the spectrum m1 was solved in, which the
    next step takes instead of transforming m1 again.
    """
    g = params.grid
    dt = params.dt
    m, phi = u
    # The spectra stack is made first, which measured a smaller heap peak at 32^2.
    spec = np.empty((4, g.ny, g.nx // 2 + 1), complex)  # [m1, phi1, gradJ * m1] spectra
    flux_x = params.mobilities(m, phi)  # the fluxes reuse it, which bounds the step's peak
    flux_y = flux_x * grad_m[1]
    flux_x *= grad_m[0]
    rhs = div(g, flux_x, flux_y)
    del flux_x, flux_y
    rhs *= dt
    np.subtract(u, rhs, out=rhs)
    rhs[1] += dt * (params.alpha * (1.0 - phi) + theta_slice)
    rfft2(rhs, spec[:2])
    del rhs  # freed before the four fields are made
    solve_implicit_diffusion(g, spec[0], dt, spec[0])
    solve_implicit_diffusion(g, spec[1], dt, spec[1])
    params.kernel.grad_hat(spec[0], spec[2:])
    out = irfft2(spec, g.shape)
    return out[:2], out[2:]


def _march(params: ModelParams, what: str, u0, grad0, step, backward=False):
    """Every sweep's time loop: yield ``(n, u_n[0], u_n[1])`` in march order, seeded u0 at index 0.

    ``u`` is the sweep's pair as one ``(2, ny, nx)`` stack; ``backward`` seeds index nt.
    ``step(n, u, grad_u) -> (u', grad_u')`` makes a fresh stack for the slice after n, the
    pair gradJ * u[0] carried from ``grad0``; no buffer is reused, so a consumer may keep
    its slices.  A step that is not finite raises NonFinite("<what> at step k"), k its
    later index, in place of numpy's warnings.
    """
    order = range(params.nt, -1, -1) if backward else range(params.nt + 1)
    u, grad_u = u0, grad0
    yield order[0], u[0], u[1]
    for n, new in zip(order, order[1:]):
        with np.errstate(over="ignore", invalid="ignore"):
            u, grad_u = step(n, u, grad_u)
        if not np.isfinite(u).all():
            raise NonFinite(f"{what} at step {max(n, new)}", step=max(n, new))
        yield new, u[0], u[1]


def _store(params: ModelParams, steps) -> tuple[np.ndarray, np.ndarray]:
    """A march's two (nt+1, ny, nx) histories: the one place a sweep stores them."""
    a = np.empty((params.nt + 1, *params.grid.shape))
    b = np.empty_like(a)
    for n, a_n, b_n in steps:
        a[n], b[n] = a_n, b_n
    return a, b


def control_array(theta, params: ModelParams) -> np.ndarray:
    """Normalize a control or target series to an (nt, ny, nx) array.

    A single ``(ny, nx)`` field or a ``(1, ny, nx)`` series is held
    constant in time and comes back as a read-only broadcast view of that
    one slice, with no copy.  This is the one place a field is expanded
    over time.  Slice k of a target pairs with state index k+1.
    """
    arr = np.asarray(theta, dtype=float)
    ny, nx = params.grid.shape
    if arr.shape in {(ny, nx), (1, ny, nx)}:
        arr = np.broadcast_to(arr, (params.nt, ny, nx))
    if arr.shape != (params.nt, ny, nx):
        raise ShapeMismatch(
            f"series must have shape (1|{params.nt}, {ny}, {nx}), got {arr.shape}"
        )
    return arr


def state_steps(init: InitData, theta, params: ModelParams, grad_m=None):
    """The state march's slices ``(n, m_n, phi_n)``, n = 0..nt; the set-up runs on the call.

    gradJ * m is carried from step to step, so only the seed is transformed.  Step n
    copies the pair it reads into ``grad_m[n]``, an (nt, 2, ny, nx) array, if one is given.
    """
    th = control_array(theta, params)
    params.grid.check(init.m0, init.phi0)
    u0 = np.array([init.m0, init.phi0], dtype=float)  # a float32 field would transform in float32

    def step(n, u, pair):
        if grad_m is not None:
            grad_m[n] = pair
        return step_state(u, pair, th[n], params)

    return _march(params, "blow-up", u0, params.kernel.grad_conv(rfft2(u0[0])), step)


def solve_state(init: InitData, theta, params: ModelParams) -> Trajectory:
    """March the state nt steps, storing every intermediate field and, when their bytes
    fit :data:`PAIR_BUDGET`, the pairs gradJ * m the steps read."""
    th = control_array(theta, params)
    keep = pair_bytes(params) <= PAIR_BUDGET
    grad_m = np.empty((params.nt, 2, *params.grid.shape)) if keep else None
    m, phi = _store(params, state_steps(init, th, params, grad_m))
    return Trajectory(params=params, m=m, phi=phi, theta=th, grad_m=grad_m)


# Test-only oracle with weak_residual, kept beside step_state so a scheme change edits both.
def _fwd_diff(grid: Grid, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One-sided differences; their pairing composes to the 5-point Laplacian."""
    fx = (np.roll(f, -1, axis=-1) - f) / grid.hx
    fy = (np.roll(f, -1, axis=-2) - f) / grid.hy
    return fx, fy


def weak_residual(traj: Trajectory, psi: np.ndarray, eta: np.ndarray) -> dict[str, float]:
    """Accumulated defect of the trajectory in the discrete weak form.

    For each step the scheme satisfies, exactly,

        <(m+ - m)/dt, psi> + <grad m+, grad psi> - <F_m(m, phi), grad psi> = 0

    (and the phi analogue with the reaction and control terms), so a
    trajectory produced by :func:`solve_state` returns zero to round-off
    while any perturbed history does not.  Each term pairs through the
    gradient adjoint to its operator in the scheme: the diffusion pairing
    uses one-sided differences (whose composition is the five-point
    Laplacian), the drift pairing the centered gradient (the transpose of
    the centered divergence).
    """
    p = traj.params
    g = p.grid
    psx, psy = grad(g, psi)
    etx, ety = grad(g, eta)
    psx_f, psy_f = _fwd_diff(g, psi)
    etx_f, ety_f = _fwd_diff(g, eta)
    res_m = 0.0
    res_p = 0.0
    for n in range(p.nt):
        m, phi = traj.m[n], traj.phi[n]
        m1, p1 = traj.m[n + 1], traj.phi[n + 1]
        gmx, gmy = p.kernel.grad_conv(rfft2(m))
        cm, cp = p.mobilities(m, phi)
        g1x, g1y = _fwd_diff(g, m1)
        g2x, g2y = _fwd_diff(g, p1)
        rm = (
            inner(g, (m1 - m) / p.dt, psi)
            + inner(g, g1x, psx_f) + inner(g, g1y, psy_f)
            - inner(g, cm * gmx, psx) - inner(g, cm * gmy, psy)
        )
        rp = (
            inner(g, (p1 - phi) / p.dt, eta)
            + inner(g, g2x, etx_f) + inner(g, g2y, ety_f)
            - inner(g, cp * gmx, etx) - inner(g, cp * gmy, ety)
            - inner(g, p.alpha * (1.0 - phi) + traj.theta[n], eta)
        )
        res_m += abs(rm) * p.dt
        res_p += abs(rp) * p.dt
    return {"res_m": res_m, "res_phi": res_p}


def control_space_time_norm(params: ModelParams, series: np.ndarray) -> float:
    """L2(S x Omega) norm of a control-aligned series, quadrature over n = 0..nt-1."""
    values = time_values(params.grid, l2, series[: params.nt])
    return float(np.sqrt(sum(v ** 2 for v in values) * params.dt))


def l2_h1_norm(params: ModelParams, series: np.ndarray) -> float:
    """L2(S; H1) trajectory norm, quadrature over n = 1..nt."""
    values = time_values(params.grid, h1, series[1 : params.nt + 1])
    return float(np.sqrt(sum(v ** 2 for v in values) * params.dt))


def dt_h_minus_1_norm(params: ModelParams, series: np.ndarray) -> float:
    """L2(S; H^-1) norm of the backward time difference quotient, formed a block at a time."""
    values = time_values(
        params.grid, lambda g, new, old: h_minus_1(g, (new - old) / params.dt),
        series[1 : params.nt + 1], series[: params.nt],
    )
    return float(np.sqrt(sum(v ** 2 for v in values) * params.dt))


def apriori_norms(traj: Trajectory) -> dict[str, float]:
    """The norms appearing in the a priori energy report."""
    p = traj.params
    return {
        "m_L2H1": l2_h1_norm(p, traj.m),
        "phi_L2H1": l2_h1_norm(p, traj.phi),
        "dtm_L2Hm1": dt_h_minus_1_norm(p, traj.m),
        "dtphi_L2Hm1": dt_h_minus_1_norm(p, traj.phi),
    }


def lipschitz_probe(init: InitData, theta1, theta2, params: ModelParams) -> float:
    """Ratio of state-difference norms to the control-difference norm.

    Numerically probes the Lipschitz continuity of the control-to-state
    map: two forward runs, streamed in lockstep, then
    (|m1-m2|_{L2(S;H1)} + |phi1-phi2|_{L2(S;H1)}) / |theta1-theta2|_{L2(SxOmega)}.
    """
    t1 = control_array(theta1, params)
    t2 = control_array(theta2, params)
    denom = control_space_time_norm(params, t1 - t2)
    if denom < 1e-14:
        raise DegenerateProbe("controls differ by less than 1e-14")
    steps = zip(state_steps(init, t1, params), state_steps(init, t2, params))
    next(steps)  # both runs start from init
    rows = [(h1(params.grid, am - bm), h1(params.grid, ap - bp))
            for (_, am, ap), (_, bm, bp) in steps]
    dm, dp = (float(np.sqrt(sum(v ** 2 for v in col) * params.dt)) for col in zip(*rows))
    return (dm + dp) / denom


def bounds_check(traj: Trajectory) -> dict[str, float]:
    """Worst-case violation of the ordering |m| <= |phi| <= 1 over space-time.

    The ordering is only guaranteed for the uncontrolled dynamics, so this
    reports; callers assert (tolerance 1e-8) only when theta is zero.
    """
    viol = np.max(list(time_values(traj.params.grid, ordering_violations, traj.m, traj.phi)), 0)
    return {"max_viol_m": float(viol[0]), "max_viol_phi": float(viol[1])}


def ordering_violations(grid: Grid, m: np.ndarray, phi: np.ndarray):
    """Per-slice max(|m| - |phi|) and max(|phi| - 1) of a stack pair, floored at 0."""
    excess = np.abs(m) - np.abs(phi), np.abs(phi) - 1.0
    return tuple(np.maximum(np.max(e, axis=(-2, -1)), 0.0) for e in excess)


def mass_series(traj: Trajectory) -> np.ndarray:
    """Total mass of m at every stored time."""
    return integral(traj.params.grid, traj.m)


def phi_balance_defect(traj: Trajectory) -> float:
    """Max relative defect of the exact discrete phi balance identity."""
    p = traj.params
    g = p.grid
    rows = time_values(
        g, lambda g, new, old, th: (
            integral(g, new), integral(g, old), integral(g, p.alpha * (1.0 - old) + th)
        ),
        traj.phi[1:], traj.phi[: p.nt], traj.theta,
    )
    worst = 0.0
    scale = max(1.0, abs(integral(g, traj.phi[0])))
    for lhs, old, source in rows:
        worst = max(worst, abs(lhs - (old + p.dt * source)) / scale)
        scale = max(scale, abs(lhs))
    return worst
