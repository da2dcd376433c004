"""Cost, adjoint sweeps, reduced gradient, and projected gradient descent.

Quadrature alignment (fixed here and used identically everywhere):

* misfit is summed over state indices n = 1..nt (the stack ``phi[1:]``),
* the control / regularization term over control indices n = 0..nt-1
  (the stacks ``theta[:nt]`` and ``gamma2[:nt]``),
* the backward sweep injects the misfit defect at state index n while
  producing the adjoint slice stored at index n-1, so the gradient slice
  at control index n pairs with theta_n without any off-by-one.

Misaligning any of these is the classic silent gradient bug; the
finite-difference oracle in the tests pins the alignment down.

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
terminal slice, the quadrature alignment above, the -alpha gamma2 reaction,
the misfit source and the two symmetric implicit solves, in the time loop of
``forward._march``, which carries (gamma1, gamma2) as one ``(2, ny, nx)`` stack.
Each solver supplies only its explicit drift terms.  The discrete solver hands
its kernel contraction's fields to the sweep, which folds the contraction into
the gamma1 solve's spectrum (docs/discrete_adjoint.md counts a step's transforms).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DeltaZero, NonFinite, ParameterError
from .forward import (
    InitData,
    ModelParams,
    Trajectory,
    _march,
    _store,
    control_array,
    control_space_time_norm,
    solve_state,
)
from .grid import grad, inner, irfft2, l2, rfft2, solve_implicit_diffusion, time_values
from .linearized import tangent_steps

# Smallest trial step of the line search; a search that shrinks below it fails.
S_MIN = 1e-12


@dataclass(frozen=True)
class ControlField:
    """Time-indexed control with box bounds."""

    theta: np.ndarray  # (nt, ny, nx)
    theta_min: float | np.ndarray = 0.0
    theta_max: float | np.ndarray = 1.0

    def __post_init__(self):
        if not np.all(np.asarray(self.theta_min) <= np.asarray(self.theta_max)):
            raise ValueError("bounds require theta_min <= theta_max")


@dataclass(frozen=True)
class AdjointTrajectory:
    """Backward multipliers of the run at ``theta``; slice nt is the zero terminal condition."""

    params: ModelParams
    gamma1: np.ndarray  # (nt+1, ny, nx)
    gamma2: np.ndarray
    theta: np.ndarray  # the swept run's traj.theta itself, not a copy


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
        if not (0.0 < self.c1 < 1.0):
            raise ParameterError("c1", "c1 must lie in (0, 1)")
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
    adjoint: AdjointTrajectory | None = None  # the discrete adjoint at theta_opt


def cost_parts(traj: Trajectory, phi_d, delta: float) -> tuple[float, float]:
    """(misfit, regularization) halves of the tracking functional at the run's own control."""
    p = traj.params
    g = p.grid
    pd = control_array(phi_d, p)
    misfit = sum(v ** 2 for v in time_values(g, lambda g, a, b: l2(g, a - b), traj.phi[1:], pd))
    reg = sum(v ** 2 for v in time_values(g, l2, traj.theta))
    return 0.5 * misfit * p.dt, 0.5 * delta * reg * p.dt


def cost(traj: Trajectory, phi_d, delta: float) -> float:
    misfit, reg = cost_parts(traj, phi_d, delta)
    return misfit + reg


def _backward_sweep(traj: Trajectory, phi_d, drift, flux=None) -> AdjointTrajectory:
    """March the adjoint pair from the zero terminal slice to index 0 by a backward ``_march``.

    The pair is the ``(2, ny, nx)`` stack u = [g1, g2].  At state index n the explicit
    part applied to it before the symmetric implicit solve is

        p1 = g1 + dt (e1 - sum_i gradJ_i * v_i)
        p2 = g2 + dt (e2 - alpha g2 + phi_n - phi_d,n)

    with [e1, e2] = drift(m, phi, d, adv) the solver's drift terms, d = grad u (a
    ``(2, 2, ny, nx)`` stack), adv = Gm[0] d[0] + Gm[1] d[1] and Gm = gradJ * m at the
    stored state.  ``flux(m, phi, d, out)``, if given, writes [vx, vy] into ``out`` and
    may overwrite d.  p1 without its contraction, p2, vx and vy are one stack and one
    :func:`morphoctl.grid.rfft2` call; the contraction's spectrum
    (:meth:`Kernel.grad_conv_sum`) is subtracted from p1's, and the solves write into the
    stack's first two spectra.  Slice nt - 1 is driven by the misfit source alone; the
    step at state index n < nt reads Gm from :meth:`Trajectory.grad_m_at`, the pair the
    tangent reads, so duality stays exact whether the run kept the pairs or not.
    """
    p = traj.params
    g = p.grid
    dt = p.dt
    pd = control_array(phi_d, p)

    def explicit(n, u):
        """The right-hand-side stack [p1 without its contraction, p2, *v] at state index n,
        made after the drift terms; the working fields are freed before the transforms."""
        s_n = traj.phi[n] - pd[n - 1]
        if n == p.nt:
            return np.array([np.zeros(g.shape), dt * s_n])
        gm = traj.grad_m_at(n)
        m, phi = traj.m[n], traj.phi[n]
        d = grad(g, u)
        e = drift(m, phi, d, gm[0] * d[0] + gm[1] * d[1])
        e[1] -= p.alpha * u[1]
        e[1] += s_n
        e *= dt
        rhs = np.empty((2 if flux is None else 4, *g.shape))
        np.add(u, e, out=rhs[:2])
        del e
        if flux is not None:
            flux(m, phi, d, rhs[2:])
        return rhs

    def step(n, u, _pair):
        rhs_hat = rfft2(explicit(n, u))
        p1_hat = rhs_hat[0]
        if len(rhs_hat) == 4:
            p1_hat = p1_hat - dt * p.kernel.grad_conv_sum(rhs_hat[2], rhs_hat[3])
        solve_implicit_diffusion(g, p1_hat, dt, rhs_hat[0])
        solve_implicit_diffusion(g, rhs_hat[1], dt, rhs_hat[1])
        del p1_hat
        return irfft2(rhs_hat[:2], g.shape), None

    zero = np.zeros((2, *g.shape))
    g1, g2 = _store(p, _march(p, "adjoint blow-up", zero, None, step, backward=True))
    return AdjointTrajectory(params=p, gamma1=g1, gamma2=g2, theta=traj.theta)


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
    and cp = 2 beta m (1 - phi), since the contraction is linear; the sweep
    subtracts its spectrum from that of the rest of p1 before the solve, the
    same map, since rfft2 is linear too.  The source sign makes the duality identity

        sum_n <phi2_n, phi_n - phi_d,n> dt = sum_n <h_n, gamma2_n> dt

    hold exactly, which is what the reduced gradient needs.
    """
    params = traj.params
    b2 = 2.0 * params.beta

    def drift(m, phi, d, adv):
        e = np.empty_like(adv)
        np.add(-2.0 * b2 * m * adv[0], b2 * (1.0 - phi) * adv[1], out=e[0])
        np.subtract(b2 * adv[0], b2 * m * adv[1], out=e[1])
        return e

    def flux(m, phi, d, out):
        d *= params.mobilities(m, phi)  # [[cm d_x g1, cp d_x g2], [cm d_y g1, cp d_y g2]]
        np.add(d[:, 0], d[:, 1], out=out)

    return _backward_sweep(traj, phi_d, drift, flux)


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
    params = traj.params
    g = params.grid
    b2 = 2.0 * params.beta

    def drift(m, phi, d, adv):
        cm, cp = params.mobilities(m, phi)
        # rfft2(d) is [[d_x g1, d_x g2], [d_y g1, d_y g2]]: one contraction per adjoint field.
        k1, k2 = irfft2(params.kernel.grad_conv_sum(*rfft2(d)), g.shape)
        e = np.empty_like(adv)
        np.add(-2.0 * b2 * m * adv[0] + cm * k1 + b2 * (1.0 - phi) * adv[1], cp * k2, out=e[0])
        np.subtract(-b2 * adv[0], b2 * m * adv[1], out=e[1])
        return e

    return _backward_sweep(traj, phi_d, drift)


def reduced_gradient(adj: AdjointTrajectory, delta: float) -> np.ndarray:
    """Riesz representative of the reduced cost derivative at adj.theta, gamma2 + delta theta."""
    return adj.gamma2[: adj.params.nt] + delta * adj.theta


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
    return sum(time_values(params.grid, inner, a[: params.nt], b[: params.nt])) * params.dt


def duality_gap(
    traj: Trajectory, tan_phi2: np.ndarray, adj: AdjointTrajectory, h: np.ndarray, phi_d
) -> float:
    """Relative defect of <DS h, misfit source> = <h, gamma2>."""
    p = traj.params
    g = p.grid
    pd = control_array(phi_d, p)
    pairs = time_values(g, lambda g, t, s, d: inner(g, t, s - d), tan_phi2[1:], traj.phi[1:], pd)
    lhs = sum(pairs) * p.dt
    rhs = control_inner(p, h, adj.gamma2)
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
    traj: Trajectory, g: np.ndarray, delta: float,
    control0: ControlField, opt: OptConfig, result: OptResult,
) -> float:
    """First trial of iteration 0: step0 snapped down toward the Gauss-Newton step.

    The direction d is -g with every component blocked by an active bound
    set to zero (theta at theta_min with g > 0, or at theta_max with
    g < 0).  One tangent sweep along d gives the Gauss-Newton curvature

        c = dt sum_{n=1..nt} |phi2_n|^2 + delta <d, d>,

    and the model's minimizer along d is s_gn = <d, d> / c.  The tangent is streamed
    (:func:`morphoctl.linearized.tangent_steps`): the squares of |phi2_n| are summed
    in time order as the march makes them, and no history is stored.  The returned
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
    at_min = (traj.theta <= control0.theta_min) & (g > 0.0)
    at_max = (traj.theta >= control0.theta_max) & (g < 0.0)
    d = np.where(at_min | at_max, 0.0, -g)
    dd = control_inner(p, d, d)
    if dd == 0.0:
        return opt.step0
    result.tangent_solves += 1
    steps = tangent_steps(traj, d)
    next(steps)  # the zero initial slice
    try:
        curv = sum(l2(p.grid, phi2) ** 2 for _, _, phi2 in steps) * p.dt + delta * dd
    except NonFinite:
        return opt.step0
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

    Returns the last accepted iterate with ``adjoint``, its discrete
    adjoint, which gave the last residual.  ``forward_solves`` counts
    every state solve, the initial one included; ``tangent_solves`` is 0 or 1.

    One stored run is held at a time: the iterate's once its adjoint (and at iteration 0
    the Gauss-Newton tangent) has read it, a rejected trial's before the next trial's solve.
    """
    tol = opt.resolved_tol(params)
    tmin, tmax = control0.theta_min, control0.theta_max
    theta = project_admissible(control_array(control0.theta, params), tmin, tmax)

    result = OptResult(theta_opt=theta)
    traj = solve_state(init, theta, params)
    result.forward_solves = 1
    misfit, reg = cost_parts(traj, phi_d, delta)
    j_cur = misfit + reg
    theta_prev = g_prev = None

    for it in range(opt.max_iters + 1):
        adj = result.adjoint = None  # the old adjoint is not held through the new sweep
        adj = result.adjoint = solve_adjoint_discrete(traj, phi_d)
        g = reduced_gradient(adj, delta)
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
            s = _gauss_newton_trial(traj, g, delta, control0, opt, result)
        else:
            s = _bb_step(theta - theta_prev, g - g_prev, params, opt)
        traj = None  # read by its adjoint and, at iteration 0, the Gauss-Newton tangent
        flat = 4.0 * np.spacing(j_cur)  # a cost change round-off cannot resolve
        accepted = False
        while s >= S_MIN:
            trial = project_admissible(theta - s * g, tmin, tmax)
            move = control_space_time_norm(params, trial - theta)
            if move == 0.0:
                break
            traj = solve_state(init, trial, params)
            result.forward_solves += 1
            m_t, r_t = cost_parts(traj, phi_d, delta)
            j_t = m_t + r_t
            if abs(j_t - j_cur) <= flat:
                result.termination = "stalled"
                return result
            if j_t <= j_cur - (opt.c1 / s) * move**2:
                theta_prev, g_prev = theta, g
                theta = trial
                misfit, reg, j_cur = m_t, r_t, j_t
                result.step_history.append(s)
                accepted = True
                break
            traj = None  # the rejected trial's run, released before the next trial's
            s *= opt.shrink
        if not accepted:
            result.termination = "line_search_failed"
            return result


def projection_characterization_check(
    adj: AdjointTrajectory, theta_min, theta_max, delta: float
) -> float:
    """|theta - Proj(-gamma2 / delta)| in L2(S x Omega), theta = ``adj.theta``.

    At a stationary point of the box-constrained problem the control is
    the pointwise projection of -gamma2/delta of its own adjoint, so the
    gap is bounded by the stationarity residual scaled by 1/delta.
    """
    if delta == 0.0:
        raise DeltaZero("projection characterization requires delta > 0")
    proj = project_admissible(-adj.gamma2[: adj.params.nt] / delta, theta_min, theta_max)
    return control_space_time_norm(adj.params, adj.theta - proj)
