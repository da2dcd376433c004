#!/usr/bin/env python3
"""Run the twin recovery experiment and print a convergence summary.

Manufactures a target trajectory from a known control, starts the
projected gradient descent from theta = 0, and reports how much of the
misfit and stationarity residual the optimizer recovers.

Usage: python scripts/twin_experiment.py [config]   (default configs/twin.cfg)
"""

import sys
from pathlib import Path

import numpy as np

from morphoctl.config import build_problem, load_config
from morphoctl.control import pgd_optimize
from morphoctl.forward import control_space_time_norm


def main() -> int:
    cfg_path = sys.argv[1] if len(sys.argv) > 1 else str(
        Path(__file__).resolve().parent.parent / "configs" / "twin.cfg"
    )
    cfg = load_config(cfg_path)
    problem = build_problem(cfg, need_target=True)
    if problem.theta_star is None:
        print("config target is not a twin:<spec> target", file=sys.stderr)
        return 2

    res = pgd_optimize(
        problem.init, problem.control(), problem.phi_d, problem.params,
        cfg.delta, problem.opt,
    )

    p = problem.params
    rec_err = control_space_time_norm(p, res.theta_opt - problem.theta_star)
    star_norm = control_space_time_norm(p, problem.theta_star)
    print(f"termination        : {res.termination} after {res.iterations} iterations")
    print(f"forward solves     : {res.forward_solves}")
    print(f"tangent solves     : {res.tangent_solves}")
    print(f"cost               : {res.cost_history[0]:.6e} -> {res.cost_history[-1]:.6e}")
    print(f"misfit reduction   : {1.0 - res.misfit_history[-1] / res.misfit_history[0]:.4%}")
    print(f"stationarity ratio : {res.stationarity_history[-1] / res.stationarity_history[0]:.3e}")
    print(f"control error      : |theta - theta*| / |theta*| = {rec_err / star_norm:.3e}")
    print(f"theta range        : [{np.min(res.theta_opt):.4f}, {np.max(res.theta_opt):.4f}]"
          f"  (true value {np.mean(problem.theta_star):.4f})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
