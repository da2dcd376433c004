"""One-command verification suite.

``run_verify`` executes, in order: conservation checks, the ordering
bounds with zero control, a Lipschitz-ratio panel, the Taylor remainder
orders, the tangent/adjoint duality identity, the finite-difference
gradient check, the stationarity of a manufactured optimum, and the
projection characterization of a converged control.  Every check becomes
one report row (name, measured, threshold, pass); failures of any kind,
including solver blow-up, are recorded as failing rows rather than
raised.

Budget note: the projection row's optimization runs on a coarsened copy of
the config (horizon capped at 100 steps, grid at 32 cells per side unless
a field is read from a snapshot), so the suite stays well under the
two-minute budget at the shipped default resolution.  All other rows run
at the configured size.  The suite is deterministic for a fixed config seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import control as ctl
from . import forward as fwd
from . import linearized as lin
from .config import Problem, RunConfig, build_problem, coarsened
from .fieldio import write_csv
from .grid import smooth_periodic

# Central-difference step of the gradient check.  Smaller steps meet the
# cost's round-off: on configs/twin.cfg (J ~ 5e-9) 1e-5 errs by ~6e-6.
FD_EPS = 1e-3
# Gates shared with the gradcheck and taylor commands: the worst relative
# FD/adjoint error, and the largest deviation of a Taylor order from 2.
GRADCHECK_TOL = 1e-6
TAYLOR_ORDER_TOL = 0.1


@dataclass
class VerifyRow:
    name: str
    measured: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass
class VerifyReport:
    rows: list[VerifyRow]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_csv(self, path) -> None:
        write_csv(
            path,
            "name,measured,threshold,pass",
            [(r.name, r.measured, r.threshold, r.passed) for r in self.rows],
        )

    def lines(self):
        for r in self.rows:
            status = "PASS" if r.passed else "FAIL"
            note = f"  ({r.note})" if r.note else ""
            yield f"{status}  {r.name}: measured={r.measured:.3e} threshold={r.threshold:.3e}{note}"


def _random_admissible(rng, problem: Problem) -> np.ndarray:
    cfg = problem.cfg
    u = smooth_periodic(rng.uniform(cfg.theta_min, cfg.theta_max, size=problem.grid.shape), 2)
    return fwd.control_array(u, problem.params)


def _direction(rng, problem: Problem) -> np.ndarray:
    h = smooth_periodic(rng.standard_normal(problem.grid.shape), 2)
    h /= max(np.max(np.abs(h)), 1e-300)
    return fwd.control_array(h, problem.params)


def target_for(problem: Problem) -> np.ndarray:
    if problem.phi_d is not None:
        return problem.phi_d
    X, Y = problem.grid.cell_centers()
    pd = 0.6 + 0.2 * np.cos(2 * np.pi * X / problem.grid.Lx) * np.cos(
        2 * np.pi * Y / problem.grid.Ly
    )
    return fwd.control_array(pd, problem.params)


def run_verify(cfg: RunConfig) -> VerifyReport:
    rows: list[VerifyRow] = []

    def guard(name: str, threshold: float, fn) -> None:
        try:
            measured, note = fn()
            rows.append(VerifyRow(name, float(measured), threshold, float(measured) <= threshold, note))
        except Exception as exc:  # any sub-failure is a failing row, never a crash
            rows.append(VerifyRow(name, float("nan"), threshold, False, f"{type(exc).__name__}: {exc}"))

    problem = build_problem(cfg)
    params = problem.params
    base_seed = cfg.seed

    # The configured control's forward run and its adjoint against the verify target,
    # shared below; a blow-up is not cached, so every row that needs them reports it.
    @functools.cache
    def base():
        return fwd.solve_state(problem.init, problem.theta, params)

    @functools.cache
    def base_adjoint():
        return ctl.solve_adjoint_discrete(base(), target_for(problem))

    def conservation():
        masses = fwd.mass_series(base())
        scale = max(1.0, abs(masses[0]))
        return float(np.max(np.abs(masses - masses[0])) / scale), ""

    guard("conservation_mass_m", 1e-12, conservation)
    guard("phi_balance", 1e-12, lambda: (fwd.phi_balance_defect(base()), ""))

    # Ordering bounds, asserted only for the uncontrolled dynamics.
    def bounds():
        if np.any(problem.theta != 0.0):
            traj0 = fwd.solve_state(problem.init, np.zeros(problem.grid.shape), params)
        else:
            traj0 = base()
        rep = fwd.bounds_check(traj0)
        return max(rep["max_viol_m"], rep["max_viol_phi"]), ""

    guard("bounds_theta0", 1e-8, bounds)

    # Lipschitz panel: all ratios finite, spread bounded.
    def lipschitz():
        rng = np.random.default_rng([base_seed, 101])
        ratios = []
        for _ in range(5):
            t1 = _random_admissible(rng, problem)
            t2 = _random_admissible(rng, problem)
            ratios.append(fwd.lipschitz_probe(problem.init, t1, t2, params))
        ratios = np.array(ratios)
        if not np.all(np.isfinite(ratios)):
            return float("inf"), "non-finite ratio"
        return float(np.max(ratios) / np.min(ratios)), f"max={np.max(ratios):.3e}"

    guard("lipschitz_spread", 50.0, lipschitz)

    # Taylor remainder orders for the control-to-state derivative.
    def taylor():
        rng = np.random.default_rng([base_seed, 102])
        h = _direction(rng, problem)
        out = lin.taylor_test(problem.init, base(), h)
        return float(np.max(np.abs(np.array(out["orders"]) - 2.0))), ""

    guard("taylor_order_gap", TAYLOR_ORDER_TOL, taylor)

    # Exact transposition: duality identity.
    def duality():
        h = _direction(np.random.default_rng([base_seed, 103]), problem)
        tan = lin.solve_linearized(base(), h)
        return ctl.duality_gap(base(), tan.phi2, base_adjoint(), h, target_for(problem)), ""

    guard("adjoint_duality", 1e-10, duality)

    # Adjoint gradient against the central finite difference of the cost.
    def gradcheck():
        table = gradient_check_table(problem, base_adjoint(), n_directions=3)
        return max(row[3] for row in table), ""

    guard("gradcheck", GRADCHECK_TOL, gradcheck)
    base_adjoint.cache_clear()  # no later row reads it; freed before the next row's adjoint

    # Manufactured optimum: target produced by the configured control itself,
    # delta = 0, so the gradient vanishes identically at theta.
    def manufactured():
        traj = base()
        adj = ctl.solve_adjoint_discrete(traj, traj.phi[1:])
        g = ctl.reduced_gradient(adj, 0.0)
        return ctl.stationarity_residual(adj.theta, g, params, cfg.theta_min, cfg.theta_max), ""

    guard("stationarity_manufactured", 1e-12, manufactured)

    # Converged projected-gradient run on the coarsened problem, then the
    # pointwise projection characterization of the optimum.
    def projection_row():
        sub = build_problem(coarsened(cfg))
        delta = cfg.delta if cfg.delta > 0 else 1e-3
        opt = replace(sub.opt, max_iters=min(sub.opt.max_iters, 40))
        res = ctl.pgd_optimize(sub.init, sub.control(), target_for(sub), sub.params, delta, opt)
        rho = res.stationarity_history[-1]  # the residual of res.adjoint at theta_opt
        gap = ctl.projection_characterization_check(res.adjoint, cfg.theta_min, cfg.theta_max, delta)
        tol = opt.resolved_tol(sub.params)
        bound = 10.0 * max(rho, tol) / delta
        # Report the margin so the row reads pass/fail on measured <= threshold.
        return gap / bound, f"gap={gap:.3e} bound={bound:.3e} term={res.termination}"

    guard("projection_characterization", 1.0, projection_row)

    return VerifyReport(rows=rows)


def gradient_check_table(
    problem: Problem, adj: ctl.AdjointTrajectory, n_directions: int = 5
) -> list[tuple[int, float, float, float]]:
    """Rows (index, fd_value, adjoint_value, relative_error) for random directions at adj.theta.

    ``adj`` is the discrete adjoint of a run of the problem against :func:`target_for`.
    fd_value is the central difference of the cost with step :data:`FD_EPS`.
    """
    params = problem.params
    phi_d = target_for(problem)
    delta = problem.cfg.delta
    rng = np.random.default_rng([problem.cfg.seed, 104])
    g = ctl.reduced_gradient(adj, delta)

    def cost_at(t):
        return ctl.cost(fwd.solve_state(problem.init, t, params), phi_d, delta)

    table = []
    for i in range(n_directions):
        h = _direction(rng, problem)
        adj_val = ctl.control_inner(params, g, h)
        step = FD_EPS * h[0]  # h holds one slice over time; so does the step
        fd_val = (cost_at(adj.theta + step) - cost_at(adj.theta - step)) / (2.0 * FD_EPS)
        rel = abs(fd_val - adj_val) / max(abs(fd_val), abs(adj_val), 1e-300)
        table.append((i, fd_val, adj_val, rel))
    return table
