"""The sweeps' histories keep their bits: SHA-256 digests (first 16 hex digits) of the
stored forward, tangent and adjoint histories, recorded before the sweeps carried each
pair as one (2, ny, nx) stack.

At 16^2 a step transforms its stacks in one call each way; at 128^2 each field has its own
call, written into a slice of the stack.  The digests are those of numpy 2.4's pocketfft
on x86-64; a build whose loops round differently gives other bits, and then this test
needs new values from a run of the unchanged sweeps.
"""

import hashlib

import numpy as np
import pytest

from morphoctl.control import solve_adjoint_discrete
from morphoctl.forward import solve_state
from morphoctl.grid import Grid, stack_len
from morphoctl.linearized import solve_linearized

from conftest import expand, make_init, make_params, smooth_random

DIGESTS = {
    (16, 10): {
        "m": "de009a6f422b0105", "phi": "e4f2a3f1c2ecc801",
        "phi1": "41895c1b55928f9f", "phi2": "f98f4da1cc78cc27",
        "gamma1": "bd70bf0fbd71e4c9", "gamma2": "d4a67c7e292994fb",
    },
    (128, 3): {
        "m": "3b60ea9b31609c2c", "phi": "63fb6819914c2ffe",
        "phi1": "f306eca33a2a977c", "phi2": "ebe442ac1f918299",
        "gamma1": "9abe0ac65d1442bb", "gamma2": "f4f1fd1ca798cfa2",
    },
}


@pytest.mark.parametrize("n, nt", list(DIGESTS), ids=lambda v: str(v))
def test_sweep_histories_keep_their_bits(n, nt):
    g = Grid(n, n, 1.0, 1.0)
    assert stack_len(g, 4) == (4 if n == 16 else 1)
    p = make_params(g, beta=1.5, alpha=0.7, T=nt * 1e-3)
    rng = np.random.default_rng(26)
    theta = expand(0.3 + 0.1 * smooth_random(rng, g), nt)
    h = expand(smooth_random(rng, g), nt)
    pd = 0.7 + 0.05 * smooth_random(rng, g)
    traj = solve_state(make_init(g), theta, p)
    tan = solve_linearized(traj, h)
    adj = solve_adjoint_discrete(traj, pd)
    histories = dict(m=traj.m, phi=traj.phi, phi1=tan.phi1, phi2=tan.phi2,
                     gamma1=adj.gamma1, gamma2=adj.gamma2)
    digests = {k: hashlib.sha256(v.tobytes()).hexdigest()[:16] for k, v in histories.items()}
    assert digests == DIGESTS[n, nt]
