"""The sweeps' histories keep their bits: SHA-256 digests (first 16 hex digits) of the
stored forward, tangent and adjoint histories.

With a pair budget of 0 no run keeps its kernel-gradient pairs, the tangent and adjoint
make gradJ * m from the stored m, and the digests are those recorded before the sweeps
carried each pair as one (2, ny, nx) stack.  At the default budget both cases keep their
pairs: the forward keeps its bits, and the tangent and adjoint, which read the pairs the
forward steps read, have the digests recorded when the runs first kept them.

A step transforms its stacks in one call each way at both sizes; the 128^2 digests were
recorded when each field there had its own call, and a stacked call keeps those bits.
The digests are those of numpy 2.4's pocketfft on x86-64; a build whose loops round
differently gives other bits, and then this test needs new values from a run of the
unchanged sweeps.
"""

import hashlib

import numpy as np
import pytest

from morphoctl import forward
from morphoctl.control import solve_adjoint_discrete
from morphoctl.forward import solve_state
from morphoctl.grid import Grid
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
# The tangent and adjoint digests with the pairs kept; m and phi are those above.
KEPT_DIGESTS = {
    (16, 10): {
        "phi1": "b5580261a65cfe72", "phi2": "ea37c76f732651a8",
        "gamma1": "6b29f5c84f6177ee", "gamma2": "d4a67c7e292994fb",
    },
    (128, 3): {
        "phi1": "d669f24538c93dbb", "phi2": "74587d1cd0d4117b",
        "gamma1": "14b2525dee04f198", "gamma2": "68036c9efabbba1d",
    },
}


def _digests(n, nt):
    g = Grid(n, n, 1.0, 1.0)
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
    return traj.grad_m is not None, digests


@pytest.mark.parametrize("n, nt", list(DIGESTS), ids=lambda v: str(v))
def test_sweep_histories_keep_their_bits(n, nt, monkeypatch):
    monkeypatch.setattr(forward, "PAIR_BUDGET", 0)
    assert _digests(n, nt) == (False, DIGESTS[n, nt])


@pytest.mark.parametrize("n, nt", list(DIGESTS), ids=lambda v: str(v))
def test_kept_pairs_give_the_recorded_bits(n, nt):
    assert _digests(n, nt) == (True, {**DIGESTS[n, nt], **KEPT_DIGESTS[n, nt]})
