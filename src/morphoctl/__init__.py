"""Nonlocal two-phase/solvent evolution solver with adjoint-based optimal control.

The package solves a coupled pair of nonlocal advection-diffusion
equations for a phase indicator m and a combined polymer fraction phi on
a periodic rectangle, where solvent (1 - phi) is removed by a bulk
production term alpha (1 - phi) + theta.  The distributed control theta
is steered toward a target phi trajectory by projected gradient descent
with gradients from the exact transpose of the discrete scheme.
"""

from .config import Problem, RunConfig, build_problem, load_config
from .control import (
    AdjointTrajectory,
    ControlField,
    OptConfig,
    OptResult,
    cost,
    pgd_optimize,
    project_admissible,
    reduced_gradient,
    solve_adjoint_continuous,
    solve_adjoint_discrete,
    stationarity_residual,
)
from .forward import InitData, ModelParams, Trajectory, solve_state, step_state
from .grid import Grid, div, grad, norms
from .kernel import Kernel, build_kernel, kernel_report
from .linearized import TangentTrajectory, solve_linearized, step_linearized, taylor_test

__all__ = [
    "AdjointTrajectory",
    "ControlField",
    "Grid",
    "InitData",
    "Kernel",
    "ModelParams",
    "OptConfig",
    "OptResult",
    "Problem",
    "RunConfig",
    "TangentTrajectory",
    "Trajectory",
    "build_kernel",
    "build_problem",
    "cost",
    "div",
    "grad",
    "kernel_report",
    "load_config",
    "norms",
    "pgd_optimize",
    "project_admissible",
    "reduced_gradient",
    "solve_adjoint_continuous",
    "solve_adjoint_discrete",
    "solve_linearized",
    "solve_state",
    "stationarity_residual",
    "step_linearized",
    "step_state",
    "taylor_test",
]

__version__ = "0.1.0"
