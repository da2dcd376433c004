"""The gradient check reads the whole reduced gradient, its delta theta term included."""

from pathlib import Path

import numpy as np
import pytest

import morphoctl.control as ctl
from morphoctl.config import build_problem, coarsened, load_config
from morphoctl.forward import solve_state
from morphoctl.verify import GRADCHECK_TOL, _random_admissible, gradient_check_table

from conftest import scale_regularization_gradient

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


@pytest.mark.parametrize("factor", [1.0, 0.0, 0.5, 2.0])
def test_gradient_check_sees_the_delta_theta_term(factor, monkeypatch):
    problem = build_problem(coarsened(load_config(CONFIG)), need_target=True)
    assert problem.cfg.delta > 0.0
    # At the configured control, 0, the delta theta term vanishes; an interior draw tests it.
    theta = _random_admissible(np.random.default_rng(0), problem)
    run = solve_state(problem.init, theta, problem.params)
    adj = ctl.solve_adjoint_discrete(run, problem.phi_d)
    scale_regularization_gradient(monkeypatch, factor)
    _, worst = gradient_check_table(problem, adj, n_directions=3)
    if factor == 1.0:
        assert worst <= GRADCHECK_TOL
    else:
        assert worst >= 1e-2, f"delta x {factor} went undetected: rel err {worst:.3e}"
