"""Seeded defects against the verify battery: each fails the rows pinned here, and only those.

Every defect is a wrapper from conftest; the run is tests/test_cli.py's SMALL config at an
interior control, so the delta theta term of the gradient is nonzero.  No defect here fails
the conservation, bounds, Lipschitz, manufactured-stationarity or projection rows yet.
"""

import pytest

from morphoctl.config import parse_config_text
from morphoctl.verify import run_verify

from conftest import (
    flip_misfit_source_sign,
    halve_theta_in_step_state,
    negate_grad_m_in_step_linearized,
    scale_regularization_gradient,
    use_continuous_adjoint,
    zero_grad_conv_sum,
)
from test_cli import SMALL

DEFECTS = {
    "none": (lambda monkeypatch: None, set()),
    "misfit_sign_flipped": (flip_misfit_source_sign, {"adjoint_duality", "gradcheck"}),
    "delta_halved": (lambda monkeypatch: scale_regularization_gradient(monkeypatch, 0.5),
                     {"gradcheck"}),
    "theta_halved_in_step_state": (halve_theta_in_step_state,
                                   {"phi_balance", "taylor_order_gap", "gradcheck"}),
    "continuous_adjoint": (use_continuous_adjoint, {"adjoint_duality", "gradcheck"}),
    "grad_conv_sum_zero": (zero_grad_conv_sum, {"adjoint_duality", "gradcheck"}),
    "tangent_grad_m_negated": (negate_grad_m_in_step_linearized,
                               {"taylor_order_gap", "adjoint_duality"}),
}


@pytest.mark.parametrize("defect", DEFECTS)
def test_each_defect_fails_its_rows(defect, monkeypatch):
    plant, failing = DEFECTS[defect]
    cfg = parse_config_text(SMALL + "control.theta = constant:0.2\n")
    plant(monkeypatch)
    rows = run_verify(cfg).rows
    assert len(rows) == 9
    assert {r.name for r in rows if not r.passed} == failing
    assert defect == "none" or failing  # every seeded defect fails some row
