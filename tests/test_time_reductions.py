"""Space-time reductions: block size changes no bit, and memory stays within a few blocks."""

import tracemalloc

import numpy as np
import pytest

from morphoctl import control, grid
from morphoctl.control import (
    AdjointTrajectory,
    ControlField,
    OptConfig,
    OptResult,
    _gauss_newton_trial,
    control_inner,
    cost_parts,
    duality_gap,
    pgd_optimize,
    reduced_gradient,
    solve_adjoint_continuous,
    solve_adjoint_discrete,
)
from morphoctl.forward import (
    Trajectory,
    bounds_check,
    control_space_time_norm,
    lipschitz_probe,
    phi_balance_defect,
    solve_state,
)
from morphoctl.grid import Grid, time_values
from morphoctl.linearized import solve_linearized, tangent_norm, taylor_test

from conftest import expand, make_init, make_params, smooth_random

G = Grid(12, 10, 1.0, 0.9)
SLICE_BYTES = 8 * G.nx * G.ny
# The budget covers every series of a block, and the reductions take 1 to 6
# series: each budget 3 * c * SLICE_BYTES cuts the 10-step run's c-series
# reductions into ragged blocks of 3 slices.
BUDGETS = {
    "one slice": 1,
    **{f"3 slices of {c} series": 3 * c * SLICE_BYTES for c in (1, 2, 3, 4, 6)},
    "whole history": 1 << 40,
}


def every_reduction(monkeypatch):
    p = make_params(G, T=0.01, radius=0.3)
    assert p.nt == 10
    rng = np.random.default_rng(43)
    init = make_init(G)
    theta = expand(0.3 + 0.1 * smooth_random(rng, G), p.nt)
    h = expand(smooth_random(rng, G), p.nt)
    pd = expand(0.6 + 0.1 * smooth_random(rng, G), p.nt)
    traj = solve_state(init, theta, p)
    tan = solve_linearized(traj, h)
    adj = solve_adjoint_discrete(traj, pd)
    adj_c = solve_adjoint_continuous(traj, pd)

    # The Gauss-Newton curvature only moves the snapped first trial, so its
    # per-slice values are recorded as well.
    seen = []

    def recorded(*args):
        seen.append(list(time_values(*args)))
        return iter(seen[-1])

    with monkeypatch.context() as mp:
        mp.setattr(control, "time_values", recorded)
        step = _gauss_newton_trial(
            traj, reduced_gradient(adj, 1e-3), 1e-3,
            ControlField(theta), OptConfig(step0=1e3), OptResult(theta_opt=theta),
        )
    res = pgd_optimize(init, ControlField(theta), pd, p, 1e-3, OptConfig(max_iters=3, step0=1e3))
    return {
        "cost_parts": cost_parts(traj, pd, 1e-3),
        "control_inner": control_inner(p, theta, h),
        "duality_gap": duality_gap(traj, tan.phi2, adj, h, pd),
        "gauss_newton": (step, seen),
        "pgd": (res.cost_history, res.stationarity_history, res.theta_opt.tobytes()),
        "control_space_time_norm": control_space_time_norm(p, h),
        "lipschitz_probe": lipschitz_probe(init, theta, theta + 0.05 * h, p),
        "bounds_check": bounds_check(traj),
        "tangent_norm": tangent_norm(tan),
        "taylor_test": taylor_test(traj, h),
        "phi_balance_defect": phi_balance_defect(traj),
        # The sweeps read gradJ * m by state index, so no block size reaches them.
        "tangent": (tan.phi1.tobytes(), tan.phi2.tobytes()),
        "adjoint_discrete": (adj.gamma1.tobytes(), adj.gamma2.tobytes()),
        "adjoint_continuous": (adj_c.gamma1.tobytes(), adj_c.gamma2.tobytes()),
    }


def test_block_size_cannot_change_a_bit(monkeypatch):
    results = {}
    for name, budget in BUDGETS.items():
        monkeypatch.setattr(grid, "_BLOCK_BYTES", budget)
        results[name] = every_reduction(monkeypatch)
    reference = results.pop("whole history")
    for name, result in results.items():
        for key, value in reference.items():
            assert result[key] == value, (name, key)


def test_space_time_reductions_hold_a_few_blocks():
    # A 64^2, 400-step history is 12.5 MiB; a block is 1 MiB over all its series.
    # A sweep holds its two output histories, a step's pair gradJ * m and its
    # temporaries: the histories' bytes are not counted against it.
    g = Grid(64, 64, 1.0, 1.0)
    p = make_params(g, T=0.4, dt=1e-3)
    rng = np.random.default_rng(47)
    m, phi = rng.standard_normal((2, p.nt + 1, *g.shape))
    theta = rng.standard_normal((p.nt, *g.shape))
    traj = Trajectory(params=p, m=m, phi=phi, theta=theta)
    assert m.nbytes >= 12.5 * 2**20
    adj = AdjointTrajectory(params=p, gamma1=m, gamma2=phi, theta=theta)
    p.kernel._gx_hat, p.kernel._gy_hat  # the cached kernel transforms are not the sweeps'
    for name, call, histories in [
        ("cost_parts", lambda: cost_parts(traj, m[1:], 1e-3), ()),
        ("control_space_time_norm", lambda: control_space_time_norm(p, theta), ()),
        ("duality_gap", lambda: duality_gap(traj, m, adj, theta, phi[:-1]), ()),
        ("phi_balance_defect", lambda: phi_balance_defect(traj), ()),
        ("solve_linearized", lambda: solve_linearized(traj, theta), ("phi1", "phi2")),
        ("solve_adjoint_discrete", lambda: solve_adjoint_discrete(traj, m[1:]),
         ("gamma1", "gamma2")),
        ("solve_adjoint_continuous", lambda: solve_adjoint_continuous(traj, m[1:]),
         ("gamma1", "gamma2")),
    ]:
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak -= sum(getattr(out, h).nbytes for h in histories)
        assert peak <= 4 * 2**20, f"{name} peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("series_count", [1, 2, 6])
def test_time_values_yields_every_slice_in_order(monkeypatch, series_count):
    monkeypatch.setattr(grid, "_BLOCK_BYTES", 3 * series_count * SLICE_BYTES)
    stacks = np.random.default_rng(53).standard_normal((series_count, 10, *G.shape))

    def first_and_last(g, *blocks):
        return blocks[0][:, 0, 0], blocks[-1][:, -1, -1]

    assert list(time_values(G, first_and_last, *stacks)) == list(
        zip(stacks[0][:, 0, 0].tolist(), stacks[-1][:, -1, -1].tolist())
    )
    assert list(time_values(G, lambda g, a, *_: a[:, 0, 1], *stacks)) == stacks[0][:, 0, 1].tolist()
