#!/usr/bin/env python3
"""Refinement study of the gap between the two backward solvers.

The normative backward sweep transposes the discrete forward step; the
reference solver discretizes the backward PDE system with coefficients
outside the convolutions.  The two agree exactly when beta = 0 and differ
by an operator-ordering commutator when beta > 0.  This script reports
that gap in the space-time L2 norm of gamma2 across grid refinements.

Usage: python scripts/adjoint_crosscheck.py [beta] [levels...]

An argument that does not parse, or a level whose grid cannot resolve the kernel
radius 0.1, is reported as one ``config error:`` line on stderr with exit code 2
before any level runs.
"""

import sys

import numpy as np

from morphoctl.control import solve_adjoint_continuous, solve_adjoint_discrete
from morphoctl.forward import (
    InitData,
    ModelParams,
    control_array,
    control_space_time_norm,
    solve_state,
)
from morphoctl.grid import Grid
from morphoctl.kernel import build_kernel


def problem_at(n: int, beta: float):
    """The study's (init, theta, phi_d, params) on an n x n grid; a ValueError if it has none."""
    g = Grid(n, n, 1.0, 1.0)
    X, Y = g.cell_centers()
    p = ModelParams(kernel=build_kernel(g, 0.1), beta=beta, alpha=1.0, T=0.05, dt=1e-3)
    init = InitData(
        m0=0.1 + 0.3 * np.cos(10 * np.pi * X) * np.cos(6 * np.pi * Y),
        phi0=np.full(g.shape, 0.7),
    )
    theta = control_array(0.3 + 0.1 * np.cos(2 * np.pi * X), p)
    pd = 0.9 * np.ones((1, *g.shape))
    return init, theta, pd, p


def gap(init: InitData, theta, pd, p: ModelParams) -> tuple[float, float]:
    """The gamma2 gap between the two backward solvers and gamma2's norm."""
    traj = solve_state(init, theta, p)
    a = solve_adjoint_discrete(traj, pd)
    b = solve_adjoint_continuous(traj, pd)
    # Slice nt is the zero terminal condition of both solvers.
    diff = control_space_time_norm(p, a.gamma2[: p.nt] - b.gamma2[: p.nt])
    return diff, control_space_time_norm(p, a.gamma2[: p.nt])


def main() -> int:
    try:
        beta = float(sys.argv[1]) if len(sys.argv) > 1 else 4.0
        levels = [int(v) for v in sys.argv[2:]] or [32, 64, 128]
        problems = [(n, problem_at(n, beta)) for n in levels]
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(f"beta = {beta}")
    print("n,gap_L2,relative")
    prev = None
    for n, problem in problems:
        diff, ref = gap(*problem)
        trend = "" if prev is None else ("  (down)" if diff < prev else "  (up)")
        print(f"{n},{diff:.6e},{diff / ref:.3e}{trend}")
        prev = diff
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
