"""Cost, adjoint sweeps, reduced gradient, and projected gradient descent.

Quadrature alignment (fixed here and used identically everywhere):

* misfit is summed over state indices n = 1..nt (the stack ``phi[1:]``),
* the control / regularization term over control indices n = 0..nt-1
  (the stacks ``theta[:nt]`` and ``gamma2[:nt]``),
* the backward sweep injects the misfit defect at state index n while
  producing the adjoint slice stored at index n-1, so the gradient slice
  at control index n pairs with theta_n without any off-by-one.

Each reduction is one grid pairing or norm of such a stack, one value
per slice, summed over time in time order.  Misaligning any of these is
the classic silent gradient bug; the finite-difference oracle in the
tests pins the alignment down.

Two backward solvers are provided.  ``solve_adjoint_discrete`` is the
exact transpose of the tangent sweep (transpose of div is -grad, of a
pointwise coefficient is the coefficient, of convolution with the odd
kernel gradient is its negative, and the implicit diffusion solve is
symmetric); it is the normative gradient path and satisfies the duality
identity to round-off.  ``solve_adjoint_continuous`` discretizes the
backward-in-time PDE system written with the coefficients outside the
convolutions; it exists as a cross-check and the gap between the two at
beta > 0 is reported, never asserted, because the two operator orderings
genuinely differ.  At beta = 0 both solvers perform identical arithmetic.

Both solvers run one shared backward sweep, ``_backward_sweep``: the zero
terminal slice, the quadrature alignment above, the -alpha gamma2
reaction and misfit source, the two symmetric implicit solves and the
blow-up check.  Each solver supplies only its explicit drift terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaZero, NonFinite, ParameterError
from .forward import (
    InitData,
    ModelParams,
    Trajectory,
    _sum_sq,
    control_array,
    control_space_time_norm,
    solve_state,
)
from .grid import div, grad, inner, l2, solve_implicit_diffusion
from .linearized import solve_linearized

# Flipped to -1.0 by the verification mutation test to prove that the
# gradient check detects a wrong adjoint sign.  Never change at runtime.
_MISFIT_SOURCE_SIGN = 1.0

# Smallest trial step of the line search; a search that shrinks below it fails.
S_MIN = 1e-12


@dataclass(frozen=True)
class ControlField:
    """Time-indexed control with box bounds."""

    theta: np.ndarray  # (nt, ny, nx)
    theta_min: float | np.ndarray = 0.0
    theta_max: float | np.ndarray = 1.0

    def __post_init__(self):
        if np.any(np.asarray(self.theta_min) > np.asarray(self.theta_max)):
            raise ValueError("bounds require theta_min <= theta_max")


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward multipliers; slice nt is the zero terminal condition."""

    params: ModelParams
    gamma1: np.ndarray  # (nt+1, ny, nx)
    gamma2: np.ndarray


@dataclass
class OptConfig:
    """Projected-gradient settings; tol=None means 1e-8 * sqrt(T Lx Ly).

    ``step0`` caps every first trial step.  At iteration 0 it is also the
    start of the trial grid step0 * shrink^k: the first trial is the
    smallest grid step not below the Gauss-Newton step along -g
    (:func:`_gauss_newton_trial`).  Every later first trial is a
    Barzilai-Borwein step clipped to ``[S_MIN, step0]``.  Each trial
    shrinks by ``shrink`` until the Armijo test with constant ``c1``
    accepts it or it falls below the fixed :data:`S_MIN`.  ``step0`` must
    be finite, or the trial grid has no end.
    """

    max_iters: int = 100
    step0: float = 1.0
    shrink: float = 0.5
    c1: float = 1e-4
    tol: float | None = None

    def __post_init__(self):
        if self.max_iters < 0:
            raise ParameterError("max_iters", "max_iters must be >= 0")
        if not (0.0 < self.step0 < np.inf):
            raise ParameterError("step0", "step0 must be positive and finite")
        if not (0.0 < self.shrink < 1.0):
            raise ParameterError("shrink", "shrink must lie in (0, 1)")
        if not self.c1 > 0.0:
            raise ParameterError("c1", "c1 must be > 0")
        if self.tol is not None and not self.tol >= 0.0:
            raise ParameterError("tol", "tol must be >= 0")

    def resolved_tol(self, params: ModelParams) -> float:
        if self.tol is not None:
            return self.tol
        return 1e-8 * float(np.sqrt(params.T * params.grid.Lx * params.grid.Ly))


@dataclass
class OptResult:
    theta_opt: np.ndarray
    cost_history: list[float] = field(default_factory=list)
    misfit_history: list[float] = field(default_factory=list)
    reg_history: list[float] = field(default_factory=list)
    stationarity_history: list[float] = field(default_factory=list)
    step_history: list[float] = field(default_factory=list)
    iterations: int = 0
    termination: str = ""
    forward_solves: int = 0
    tangent_solves: int = 0


def cost_parts(traj: Trajectory, theta, phi_d, delta: float) -> tuple[float, float]:
    """(misfit, regularization) halves of the tracking functional."""
    p = traj.params
    g = p.grid
    th = control_array(theta, p)
    pd = control_array(phi_d, p)
    misfit = _sum_sq(l2(g, traj.phi[1:] - pd))
    reg = _sum_sq(l2(g, th))
    return 0.5 * misfit * p.dt, 0.5 * delta * reg * p.dt


def cost(traj: Trajectory, theta, phi_d, delta: float) -> float:
    misfit, reg = cost_parts(traj, theta, phi_d, delta)
    return misfit + reg


def _backward_sweep(traj: Trajectory, phi_d, source_sign: float, drift) -> AdjointTrajectory:
    """March the adjoint pair from the zero terminal slice back to index 0.

    At state index n the explicit part applied to the incoming (g1, g2)
    before the symmetric implicit solve is

        p1 = g1 + dt e1
        p2 = g2 + dt (e2 - alpha g2 + source_sign (phi_n - phi_d,n))

    with (e1, e2) = drift(m, phi, d1, d2, adv1, adv2) the solver's drift
    terms, where d1 = grad g1, d2 = grad g2, adv_k = Gm . d_k and
    Gm = gradJ * m at the stored state.  Slice nt - 1 is driven by the
    misfit source alone.
    """
    p = traj.params
    g = p.grid
    dt = p.dt
    pd = control_array(phi_d, p)
    nt = p.nt
    g1 = np.zeros((nt + 1, *g.shape))
    g2 = np.zeros_like(g1)
    for n in range(nt, 0, -1):
        s_n = source_sign * (traj.phi[n] - pd[n - 1])
        if n == nt:
            p1 = np.zeros(g.shape)
            p2 = dt * s_n
        else:
            m, phi = traj.m[n], traj.phi[n]
            gmx, gmy = p.kernel.grad_conv(np.fft.rfft2(m))
            d1 = grad(g, g1[n])
            d2 = grad(g, g2[n])
            adv1 = gmx * d1[0] + gmy * d1[1]
            adv2 = gmx * d2[0] + gmy * d2[1]
            e1, e2 = drift(m, phi, d1, d2, adv1, adv2)
            p1 = g1[n] + dt * e1
            p2 = g2[n] + dt * (e2 - p.alpha * g2[n] + s_n)
        g1[n - 1], _ = solve_implicit_diffusion(g, p1, dt)
        g2[n - 1], _ = solve_implicit_diffusion(g, p2, dt)
        if not (np.isfinite(g1[n - 1]).all() and np.isfinite(g2[n - 1]).all()):
            raise NonFinite(f"adjoint blow-up at step {n}", step=n)
    return AdjointTrajectory(params=p, gamma1=g1, gamma2=g2)


def solve_adjoint_discrete(traj: Trajectory, phi_d) -> AdjointTrajectory:
    """Backward sweep with the exact transpose of the linearized step.

    With the stored forward states (m, phi) at index n, the explicit part
    applied to the incoming (g1, g2) before the symmetric implicit solve is

        p1 = g1 + dt ( -4 beta m (Gm . grad g1)
                       - sum_i gradJ_i * (2 beta (phi - m^2) d_i g1)
                       + 2 beta (1 - phi) (Gm . grad g2)
                       - sum_i gradJ_i * (2 beta m (1 - phi) d_i g2) )
        p2 = g2 + dt ( +2 beta (Gm . grad g1) - 2 beta m (Gm . grad g2)
                       - alpha g2 + (phi_n - phi_d,n) )

    where Gm = gradJ * m.  The two convolved sums are one contraction,
    sum_i gradJ_i * (cm d_i g1 + cp d_i g2) with cm = 2 beta (phi - m^2)
    and cp = 2 beta m (1 - phi), since the contraction is linear.  The
    source sign makes the duality identity

        sum_n <phi2_n, phi_n - phi_d,n> dt = sum_n <h_n, gamma2_n> dt

    hold exactly, which is what the reduced gradient needs.
    """
    b2 = 2.0 * traj.params.beta
    kernel = traj.params.kernel

    def drift(m, phi, d1, d2, adv1, adv2):
        cm = b2 * (phi - m * m)
        cp = b2 * (m * (1.0 - phi))
        conv = kernel.grad_conv_sum(cm * d1[0] + cp * d2[0], cm * d1[1] + cp * d2[1])
        e1 = -2.0 * b2 * m * adv1 + b2 * (1.0 - phi) * adv2 - conv
        return e1, b2 * adv1 - b2 * m * adv2

    return _backward_sweep(traj, phi_d, _MISFIT_SOURCE_SIGN, drift)


def solve_adjoint_continuous(traj: Trajectory, phi_d) -> AdjointTrajectory:
    """Reference backward solver for the adjoint system in PDE form.

    Time is reversed and the same IMEX pattern as the forward scheme is
    applied to

        dt gamma1 + Lap gamma1 - 4 beta m (Gm . grad gamma1)
            + 2 beta (phi - m^2) (gradJ * grad gamma1)
            + 2 beta (1 - phi) (Gm . grad gamma2)
            + 2 beta m (1 - phi) (gradJ * grad gamma2) = 0
        dt gamma2 + Lap gamma2 - 2 beta (Gm . grad gamma1)
            - 2 beta m (Gm . grad gamma2) - alpha gamma2 = phi_d - phi

    with (gradJ * grad w) meaning sum_i gradJ_i * d_i w and the
    coefficients kept outside the convolutions.  The gamma2 reaction term
    is taken as -alpha gamma2 (backward decay), the only reading for which
    this solver coincides with the exact transpose when beta = 0.  Used
    for cross-validation only; the optimizer never calls it.
    """
    b2 = 2.0 * traj.params.beta
    kernel = traj.params.kernel

    def drift(m, phi, d1, d2, adv1, adv2):
        k1 = kernel.grad_conv_sum(*d1)
        k2 = kernel.grad_conv_sum(*d2)
        e1 = (
            -2.0 * b2 * m * adv1
            + b2 * (phi - m * m) * k1
            + b2 * (1.0 - phi) * adv2
            + b2 * (m * (1.0 - phi)) * k2
        )
        return e1, -b2 * adv1 - b2 * m * adv2

    return _backward_sweep(traj, phi_d, 1.0, drift)


def reduced_gradient(adj: AdjointTrajectory, theta, delta: float) -> np.ndarray:
    """Riesz representative of the reduced cost derivative, gamma2 + delta theta."""
    p = adj.params
    th = control_array(theta, p)
    return adj.gamma2[: p.nt] + delta * th


def project_admissible(theta: np.ndarray, theta_min, theta_max) -> np.ndarray:
    """Pointwise clamp onto the admissible box."""
    return np.clip(theta, theta_min, theta_max)


def stationarity_residual(
    theta: np.ndarray,
    grad_theta: np.ndarray,
    params: ModelParams,
    theta_min,
    theta_max,
) -> float:
    """|theta - Proj(theta - s_ref g)| in L2(S x Omega) with s_ref = 1; zero iff stationary."""
    trial = project_admissible(theta - grad_theta, theta_min, theta_max)
    return control_space_time_norm(params, theta - trial)


def control_inner(params: ModelParams, a: np.ndarray, b: np.ndarray) -> float:
    """Space-time pairing on control-aligned series."""
    return sum(inner(params.grid, a[: params.nt], b[: params.nt]).tolist()) * params.dt


def duality_gap(
    traj: Trajectory, tan_phi2: np.ndarray, adj: AdjointTrajectory, h: np.ndarray, phi_d
) -> float:
    """Relative defect of <DS h, misfit source> = <h, gamma2>."""
    p = traj.params
    pd = control_array(phi_d, p)
    # Slice by slice: a check on long histories allocates no history-sized temporaries.
    lhs = (
        sum(
            inner(p.grid, tan_phi2[n], traj.phi[n] - pd[n - 1])
            for n in range(1, p.nt + 1)
        )
        * p.dt
    )
    rhs = sum(inner(p.grid, h[n], adj.gamma2[n]) for n in range(p.nt)) * p.dt
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def _bb_step(d_theta: np.ndarray, d_g: np.ndarray, params: ModelParams, opt: OptConfig) -> float:
    """Barzilai-Borwein first trial <d_theta, d_theta> / <d_theta, d_g>.

    d_theta is the last accepted (projected) move and d_g the change of the
    reduced gradient across it.  The step is clipped to [S_MIN, step0]; a
    curvature <d_theta, d_g> that is not positive and finite gives step0.
    """
    curv = control_inner(params, d_theta, d_g)
    if not (np.isfinite(curv) and curv > 0.0):
        return opt.step0
    return min(max(control_inner(params, d_theta, d_theta) / curv, S_MIN), opt.step0)


def _gauss_newton_trial(
    traj: Trajectory, theta: np.ndarray, g: np.ndarray, delta: float,
    control0: ControlField, opt: OptConfig, result: OptResult,
) -> float:
    """First trial of iteration 0: step0 snapped down toward the Gauss-Newton step.

    The direction d is -g with every component blocked by an active bound
    set to zero (theta at theta_min with g > 0, or at theta_max with
    g < 0).  One tangent sweep along d gives the Gauss-Newton curvature

        c = dt sum_{n=1..nt} |phi2_n|^2 + delta <d, d>,

    and the model's minimizer along d is s_gn = <d, d> / c.  The returned
    trial is the smallest step of the backtracking grid step0 * shrink^k
    not below max(s_gn, S_MIN), reached by the same repeated products as
    the backtracking loop, so it has the bits that loop would reach.

    Only grid steps of at least s_gn / shrink are skipped.  On a quadratic
    cost Armijo rejects every step above 2 (1 - c1) s_gn, so at
    shrink <= 1/2 the skipped trials are ones the search would reject,
    and the accepted iterate is the one it would accept.  Two exceptions:
    on a cost flatter than its Gauss-Newton model Armijo could accept a
    skipped larger step, and the run then takes a smaller one; and a
    ``stalled`` exit that only a skipped trial would have shown is not
    seen.

    step0 itself is returned when d vanishes (no tangent runs), when the
    tangent is not finite, or when c is not positive and finite.  Each
    tangent sweep run is counted in ``result.tangent_solves``.
    """
    p = traj.params
    at_min = (theta <= control0.theta_min) & (g > 0.0)
    at_max = (theta >= control0.theta_max) & (g < 0.0)
    d = np.where(at_min | at_max, 0.0, -g)
    dd = control_inner(p, d, d)
    if dd == 0.0:
        return opt.step0
    result.tangent_solves += 1
    try:
        phi2 = solve_linearized(traj, d).phi2
    except NonFinite:
        return opt.step0
    curv = _sum_sq(l2(p.grid, phi2[1:])) * p.dt + delta * dd
    if not (np.isfinite(curv) and curv > 0.0):
        return opt.step0
    floor = max(dd / curv, S_MIN)
    s = opt.step0
    while s * opt.shrink >= floor:
        s *= opt.shrink
    return s


def pgd_optimize(
    init: InitData,
    control0: ControlField,
    phi_d,
    params: ModelParams,
    delta: float,
    opt: OptConfig,
) -> OptResult:
    """Projected gradient descent with monotone Armijo backtracking on the reduced cost.

    Accepts a trial step s when
    J(Proj(theta - s g)) <= J(theta) - (c1/s) |Proj(theta - s g) - theta|^2,
    shrinking s geometrically from a first trial.  At iteration 0 that
    is the step of the grid step0 * shrink^k that one tangent sweep's
    Gauss-Newton curvature picks (:func:`_gauss_newton_trial`; the trials
    it skips are ones Armijo would reject on a quadratic cost), and later
    the Barzilai-Borwein step of the last accepted move (:func:`_bb_step`).
    Terminates with

    * ``converged`` on a stationarity residual at or below tol,
    * ``max_iters`` at the iteration cap,
    * ``stalled`` when a trial's cost is within 4 ulps of J(theta): the
      cost cannot tell the trial from theta at round-off,
    * ``line_search_failed`` when s falls below S_MIN or the projected
      move vanishes.

    The iterate returned is the last accepted one; ``forward_solves``
    counts every state solve, the initial one included, and
    ``tangent_solves`` the tangent sweeps (at most one).
    """
    tol = opt.resolved_tol(params)
    tmin, tmax = control0.theta_min, control0.theta_max
    theta = project_admissible(control_array(control0.theta, params), tmin, tmax)

    result = OptResult(theta_opt=theta)
    traj = solve_state(init, theta, params)
    result.forward_solves = 1
    misfit, reg = cost_parts(traj, theta, phi_d, delta)
    j_cur = misfit + reg
    theta_prev = g_prev = None

    for it in range(opt.max_iters + 1):
        adj = solve_adjoint_discrete(traj, phi_d)
        g = reduced_gradient(adj, theta, delta)
        res = stationarity_residual(theta, g, params, tmin, tmax)

        result.cost_history.append(j_cur)
        result.misfit_history.append(misfit)
        result.reg_history.append(reg)
        result.stationarity_history.append(res)
        result.iterations = it
        result.theta_opt = theta

        if res <= tol:
            result.termination = "converged"
            return result
        if it == opt.max_iters:
            result.termination = "max_iters"
            return result

        if theta_prev is None:
            s = _gauss_newton_trial(traj, theta, g, delta, control0, opt, result)
        else:
            s = _bb_step(theta - theta_prev, g - g_prev, params, opt)
        flat = 4.0 * np.spacing(j_cur)  # a cost change round-off cannot resolve
        accepted = False
        while s >= S_MIN:
            trial = project_admissible(theta - s * g, tmin, tmax)
            move = control_space_time_norm(params, trial - theta)
            if move == 0.0:
                break
            traj_t = solve_state(init, trial, params)
            result.forward_solves += 1
            m_t, r_t = cost_parts(traj_t, trial, phi_d, delta)
            j_t = m_t + r_t
            if abs(j_t - j_cur) <= flat:
                result.termination = "stalled"
                return result
            if j_t <= j_cur - (opt.c1 / s) * move**2:
                theta_prev, g_prev = theta, g
                theta, traj = trial, traj_t
                misfit, reg, j_cur = m_t, r_t, j_t
                result.step_history.append(s)
                accepted = True
                break
            s *= opt.shrink
        if not accepted:
            result.termination = "line_search_failed"
            return result


def projection_characterization_check(
    theta_opt: np.ndarray,
    adj: AdjointTrajectory,
    theta_min,
    theta_max,
    delta: float,
) -> float:
    """|theta_opt - Proj(-gamma2 / delta)| in L2(S x Omega).

    At a stationary point of the box-constrained problem the control is
    the pointwise projection of -gamma2/delta, so the gap is bounded by
    the stationarity residual scaled by 1/delta.
    """
    if delta == 0.0:
        raise DeltaZero("projection characterization requires delta > 0")
    p = adj.params
    proj = project_admissible(-adj.gamma2[: p.nt] / delta, theta_min, theta_max)
    return control_space_time_norm(p, theta_opt - proj)
