#!/usr/bin/env python3
"""Refinement study of the gap between the two backward solvers.

The normative backward sweep transposes the discrete forward step; the
reference solver discretizes the backward PDE system with coefficients
outside the convolutions.  The two agree exactly when beta = 0 and differ
by an operator-ordering commutator when beta > 0.  This script reports
that gap in the space-time L2 norm of gamma2 across grid refinements.

Usage: python scripts/adjoint_crosscheck.py [beta] [levels...]
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


def gap_at(n: int, beta: float) -> tuple[float, float]:
    g = Grid(n, n, 1.0, 1.0)
    X, Y = g.cell_centers()
    p = ModelParams(grid=g, kernel=build_kernel(g, 0.1), beta=beta, alpha=1.0,
                    T=0.05, dt=1e-3)
    init = InitData(
        m0=0.1 + 0.3 * np.cos(10 * np.pi * X) * np.cos(6 * np.pi * Y),
        phi0=np.full(g.shape, 0.7),
    )
    theta = control_array(0.3 + 0.1 * np.cos(2 * np.pi * X), p)
    pd = 0.9 * np.ones((1, *g.shape))
    traj = solve_state(init, theta, p)
    a = solve_adjoint_discrete(traj, pd)
    b = solve_adjoint_continuous(traj, pd)
    # Slice nt is the zero terminal condition of both solvers.
    gap = control_space_time_norm(p, a.gamma2[: p.nt] - b.gamma2[: p.nt])
    ref = control_space_time_norm(p, a.gamma2[: p.nt])
    return gap, ref


def main() -> int:
    beta = float(sys.argv[1]) if len(sys.argv) > 1 else 4.0
    levels = [int(v) for v in sys.argv[2:]] or [32, 64, 128]
    print(f"beta = {beta}")
    print("n,gap_L2,relative")
    prev = None
    for n in levels:
        gap, ref = gap_at(n, beta)
        trend = "" if prev is None else ("  (down)" if gap < prev else "  (up)")
        print(f"{n},{gap:.6e},{gap / ref:.3e}{trend}")
        prev = gap
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
