import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morphoctl.control as ctl
from morphoctl.control import (
    ControlField,
    OptConfig,
    cost,
    cost_parts,
    duality_gap,
    pgd_optimize,
    project_admissible,
    projection_characterization_check,
    reduced_gradient,
    solve_adjoint_continuous,
    solve_adjoint_discrete,
    stationarity_residual,
)
from morphoctl.errors import DeltaZero, NonFinite, ParameterError, ShapeMismatch
from morphoctl.forward import InitData, solve_state
from morphoctl.grid import Grid, l2
from morphoctl.linearized import solve_linearized

from conftest import expand, full_laplacian_symbol, make_init, make_params, smooth_random


def test_cost_zero_when_on_target(grid16):
    p = make_params(grid16, T=0.01)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    assert cost(traj, traj.theta, traj.phi[1:], 1.0) == 0.0


def test_cost_closed_forms():
    g = Grid(8, 8, 1.0, 1.0)
    p = make_params(g, beta=0.0, alpha=0.0, T=1.0, dt=1e-2, radius=0.45)
    init = InitData(m0=np.zeros(g.shape), phi0=np.zeros(g.shape))
    traj = solve_state(init, np.zeros((p.nt, *g.shape)), p)
    # phi stays 0; target -1 puts phi - phi_d = 1 everywhere
    pd = -np.ones((1, *g.shape))
    assert cost(traj, traj.theta, pd, 0.0) == pytest.approx(0.5, rel=1e-12)
    theta = np.ones((p.nt, *g.shape))
    misfit, reg = cost_parts(traj, theta, traj.phi[1:], 2.0)
    assert misfit == 0.0
    assert reg == pytest.approx(1.0, rel=1e-12)


def test_cost_shape_mismatch(grid16):
    p = make_params(grid16, T=0.01)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    with pytest.raises(ShapeMismatch):
        cost(traj, traj.theta, np.ones((3, 4, 4)), 1.0)


def test_adjoint_zero_when_on_target(grid16):
    p = make_params(grid16, T=0.01)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    adj = solve_adjoint_discrete(traj, traj.phi[1:])
    assert np.max(np.abs(adj.gamma1)) == 0.0
    assert np.max(np.abs(adj.gamma2)) == 0.0
    assert np.max(np.abs(adj.gamma1[p.nt])) == 0.0  # terminal condition


def test_adjoint_beta_zero_matches_backward_heat_oracle():
    g = Grid(16, 16, 1.0, 1.0)
    p = make_params(g, beta=0.0, alpha=0.9, T=0.02, dt=1e-3)
    rng = np.random.default_rng(30)
    init = make_init(g)
    theta = expand(0.2 * smooth_random(rng, g), p.nt)
    traj = solve_state(init, theta, p)
    pd = expand(0.7 + 0.1 * smooth_random(rng, g), p.nt)
    adj = solve_adjoint_discrete(traj, pd)
    assert np.max(np.abs(adj.gamma1)) == 0.0  # no coupling without drift

    lam = full_laplacian_symbol(g)
    gh = np.zeros(g.shape, dtype=complex)
    oracle = np.zeros((p.nt + 1, *g.shape))
    for n in range(p.nt, 0, -1):
        src = np.fft.fft2(traj.phi[n] - pd[n - 1])
        if n == p.nt:
            gh = p.dt * src / (1.0 - p.dt * lam)
        else:
            gh = ((1.0 - p.dt * p.alpha) * gh + p.dt * src) / (1.0 - p.dt * lam)
        oracle[n - 1] = np.real(np.fft.ifft2(gh))
    assert np.max(np.abs(adj.gamma2 - oracle)) < 1e-12


# The carried spectra and the merged contraction touch the Nyquist and
# Hermitian bins differently on odd sizes, so the identities also run on
# an odd, non-square grid.
GRIDS = pytest.mark.parametrize(
    "grid, radius",
    [(Grid(16, 16, 1.0, 1.0), 0.25), (Grid(15, 12, 1.0, 1.0), 0.3)],
    ids=["16x16", "15x12"],
)


@GRIDS
def test_duality_identity_exact(grid, radius):
    p = make_params(grid, beta=1.2, alpha=0.6, T=0.02, radius=radius)
    rng = np.random.default_rng(31)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid), p.nt)
    traj = solve_state(make_init(grid), theta, p)
    pd = 0.8 * np.ones((1, *grid.shape))
    h = expand(smooth_random(rng, grid), p.nt)
    tan = solve_linearized(traj, h)
    adj = solve_adjoint_discrete(traj, pd)
    assert duality_gap(traj, tan.phi2, adj, h, pd) < 1e-10


def test_continuous_adjoint_zero_source(grid16):
    p = make_params(grid16, T=0.01)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    adj = solve_adjoint_continuous(traj, traj.phi[1:])
    assert np.max(np.abs(adj.gamma2)) == 0.0


def test_continuous_equals_discrete_at_beta_zero():
    g = Grid(16, 16, 1.0, 1.0)
    p = make_params(g, beta=0.0, alpha=1.1, T=0.02, dt=1e-3)
    rng = np.random.default_rng(32)
    traj = solve_state(make_init(g), expand(0.2 * smooth_random(rng, g), p.nt), p)
    pd = 0.75 * np.ones((1, *g.shape))
    a = solve_adjoint_discrete(traj, pd)
    b = solve_adjoint_continuous(traj, pd)
    assert np.max(np.abs(a.gamma2 - b.gamma2)) < 1e-12
    assert np.max(np.abs(a.gamma1 - b.gamma1)) < 1e-12


def test_continuous_vs_discrete_gap_recorded_at_beta_positive(grid16):
    p = make_params(grid16, beta=1.0, T=0.02)
    rng = np.random.default_rng(33)
    traj = solve_state(make_init(grid16), expand(0.2 * smooth_random(rng, grid16), p.nt), p)
    pd = 0.9 * np.ones((1, *grid16.shape))
    a = solve_adjoint_discrete(traj, pd)
    b = solve_adjoint_continuous(traj, pd)
    gap = np.sqrt(
        sum(l2(grid16, a.gamma2[n] - b.gamma2[n]) ** 2 for n in range(p.nt + 1)) * p.dt
    )
    assert np.isfinite(gap)  # recorded, not asserted against a tolerance
    assert gap > 0.0  # the two operator orderings genuinely differ


def test_reduced_gradient_on_target_is_regularization(grid16):
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(34)
    theta = expand(0.4 + 0.1 * smooth_random(rng, grid16), p.nt)
    traj = solve_state(make_init(grid16), theta, p)
    adj = solve_adjoint_discrete(traj, traj.phi[1:])
    delta = 0.7
    g = reduced_gradient(adj, theta, delta)
    assert np.max(np.abs(g - delta * theta)) == 0.0
    assert np.max(np.abs(reduced_gradient(adj, theta, 0.0))) == 0.0


@GRIDS
def test_gradient_matches_central_fd(grid, radius):
    p = make_params(grid, beta=1.0, alpha=1.0, T=0.02, radius=radius)
    rng = np.random.default_rng(35)
    init = make_init(grid)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid), p.nt)
    pd = 0.8 * np.ones((1, *grid.shape))
    delta = 1e-3
    traj = solve_state(init, theta, p)
    adj = solve_adjoint_discrete(traj, pd)
    g = reduced_gradient(adj, theta, delta)
    eps = 1e-5
    for _ in range(5):
        h = expand(smooth_random(rng, grid), p.nt)
        jp = cost(solve_state(init, theta + eps * h, p), theta + eps * h, pd, delta)
        jm = cost(solve_state(init, theta - eps * h, p), theta - eps * h, pd, delta)
        fd = (jp - jm) / (2.0 * eps)
        av = ctl.control_inner(p, g, h)
        assert abs(fd - av) / max(abs(fd), abs(av)) < 1e-6


def test_projection_examples():
    assert project_admissible(np.array([-0.3]), 0.0, 1.0)[0] == 0.0
    assert project_admissible(np.array([0.4]), 0.0, 1.0)[0] == 0.4
    assert project_admissible(np.array([1.7]), 0.0, 1.0)[0] == 1.0


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_projection_idempotent_and_nonexpansive(seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3, 3, size=(4, 6, 6))
    b = rng.uniform(-3, 3, size=(4, 6, 6))
    lo, hi = sorted(rng.uniform(-2, 2, size=2))
    pa = project_admissible(a, lo, hi)
    assert np.array_equal(project_admissible(pa, lo, hi), pa)
    assert np.all(pa >= lo) and np.all(pa <= hi)
    pb = project_admissible(b, lo, hi)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-15


def test_stationarity_residual_cases(grid16):
    p = make_params(grid16, T=0.01)
    theta = np.full((p.nt, *grid16.shape), 0.5)
    zero = np.zeros_like(theta)
    assert stationarity_residual(theta, zero, p, 0.0, 1.0) == 0.0
    g = 0.001 * np.ones_like(theta)  # small enough to stay interior
    from morphoctl.forward import control_space_time_norm

    expected = control_space_time_norm(p, g)
    assert stationarity_residual(theta, g, p, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)
    at_min = np.zeros_like(theta)
    up = np.ones_like(theta)  # positive gradient, bound active
    assert stationarity_residual(at_min, up, p, 0.0, 1.0) == 0.0


def test_pgd_terminates_immediately_at_manufactured_optimum(grid16):
    p = make_params(grid16, T=0.01)
    init = make_init(grid16)
    theta0 = np.full((p.nt, *grid16.shape), 0.3)
    traj = solve_state(init, theta0, p)
    res = pgd_optimize(
        init,
        ControlField(theta=theta0, theta_min=0.0, theta_max=1.0),
        traj.phi[1:],
        p,
        delta=0.0,
        opt=OptConfig(max_iters=10, tol=1e-12),
    )
    assert res.iterations == 0
    assert res.termination == "converged"
    assert len(res.step_history) == res.iterations
    assert res.stationarity_history[0] <= 1e-12


def test_opt_config_rejects_bad_settings():
    # shrink = 1 would retry the same line-search trial forever, and an
    # infinite step0 would never leave the first search's trial grid.
    for bad in ({"shrink": 1.0}, {"shrink": 0.0}, {"step0": 0.0}, {"c1": 0.0},
                {"max_iters": -1}, {"step0": np.inf}, {"tol": -1.0}, {"tol": -np.inf}):
        with pytest.raises(ParameterError) as info:
            OptConfig(**bad)
        assert info.value.name == next(iter(bad))
    OptConfig(tol=None)
    OptConfig(tol=0.0)


def test_pgd_small_twin_recovery(grid16):
    p = make_params(grid16, beta=0.5, alpha=1.0, T=0.004, dt=1e-4)
    init = make_init(grid16)
    theta_star = np.full((p.nt, *grid16.shape), 0.5)
    phi_d = solve_state(init, theta_star, p).phi[1:]
    res = pgd_optimize(
        init,
        ControlField(theta=np.zeros_like(theta_star), theta_min=0.0, theta_max=1.0),
        phi_d,
        p,
        delta=1e-6,
        opt=OptConfig(max_iters=40, step0=1e5, tol=1e-16),
    )
    assert res.misfit_history[-1] < 0.1 * res.misfit_history[0]
    costs = res.cost_history
    assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))


def _small_twin(grid16):
    p = make_params(grid16, beta=0.5, alpha=1.0, T=0.004, dt=1e-4)
    init = make_init(grid16)
    theta_star = np.full((p.nt, *grid16.shape), 0.5)
    phi_d = solve_state(init, theta_star, p).phi[1:]
    control0 = ControlField(theta=np.zeros_like(theta_star), theta_min=0.0, theta_max=1.0)
    return p, init, control0, phi_d


def test_pgd_bb_seed_needs_few_solves_per_iteration(grid16, monkeypatch):
    p, init, control0, phi_d = _small_twin(grid16)
    # Log the solves in call order: each adjoint solve opens an iteration.
    log = []
    state, adjoint = ctl.solve_state, ctl.solve_adjoint_discrete
    monkeypatch.setattr(ctl, "solve_state", lambda *a: log.append("F") or state(*a))
    monkeypatch.setattr(
        ctl, "solve_adjoint_discrete", lambda *a: log.append("A") or adjoint(*a)
    )
    opt = OptConfig(max_iters=40, step0=1e7, tol=1e-9)
    res = pgd_optimize(init, control0, phi_d, p, delta=1e-6, opt=opt)
    assert res.termination == "converged"
    assert len(res.step_history) == res.iterations
    assert res.forward_solves == log.count("F")
    per_iteration = "".join(log).split("A")[1:]  # solves made by each iteration's search
    assert len(per_iteration) == res.iterations + 1
    assert all(trials.count("F") <= 2 for trials in per_iteration)
    assert all(s <= opt.step0 for s in res.step_history)
    costs = res.cost_history
    assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))


def _step0_first_trial(traj, theta, g, delta, control0, opt, result):
    return opt.step0


def _assert_same_run(a, b):
    assert np.array_equal(a.theta_opt, b.theta_opt)
    for name in ("cost_history", "misfit_history", "reg_history",
                 "stationarity_history", "step_history", "iterations", "termination"):
        assert getattr(a, name) == getattr(b, name), name


@pytest.mark.parametrize("step0, delta, tol", [(1e7, 1e-6, 1e-9), (1e5, 1e-3, 1e-14),
                                               (2.0, 1.0, 1e-14)])
def test_gauss_newton_first_trial_skips_only_rejected_trials(grid16, monkeypatch, step0, delta, tol):
    p, init, control0, phi_d = _small_twin(grid16)
    opt = OptConfig(max_iters=60, step0=step0, tol=tol)
    res = pgd_optimize(init, control0, phi_d, p, delta=delta, opt=opt)
    monkeypatch.setattr(ctl, "_gauss_newton_trial", _step0_first_trial)
    ref = pgd_optimize(init, control0, phi_d, p, delta=delta, opt=opt)
    _assert_same_run(res, ref)
    assert res.termination == "converged"
    assert (res.tangent_solves, ref.tangent_solves) == (1, 0)
    assert ref.step_history[0] < step0  # the reference rejected step0 ...
    assert res.forward_solves < ref.forward_solves  # ... and those trials are skipped


def test_gauss_newton_first_trial_falls_back_on_tangent_blowup(grid16, monkeypatch):
    p, init, control0, phi_d = _small_twin(grid16)
    opt = OptConfig(max_iters=60, step0=1e5, tol=1e-14)

    def blowup(traj, h):
        raise NonFinite("tangent blow-up at step 1", step=1)

    monkeypatch.setattr(ctl, "solve_linearized", blowup)
    res = pgd_optimize(init, control0, phi_d, p, delta=1e-3, opt=opt)
    monkeypatch.setattr(ctl, "_gauss_newton_trial", _step0_first_trial)
    ref = pgd_optimize(init, control0, phi_d, p, delta=1e-3, opt=opt)
    _assert_same_run(res, ref)
    assert res.forward_solves == ref.forward_solves
    assert res.tangent_solves == 1


def test_gauss_newton_first_trial_snaps_to_step0_grid(grid16):
    p, init, control0, phi_d = _small_twin(grid16)
    theta = np.zeros((p.nt, *grid16.shape))
    traj = solve_state(init, theta, p)
    g = reduced_gradient(solve_adjoint_discrete(traj, phi_d), theta, 1e-3)
    opt = OptConfig(step0=1e5)
    res = ctl.OptResult(theta_opt=theta)
    s = ctl._gauss_newton_trial(traj, theta, g, 1e-3, control0, opt, res)
    assert res.tangent_solves == 1
    # theta = 0 sits at theta_min, so the components with g > 0 are blocked.
    d = np.where(g > 0.0, 0.0, -g)
    dd = ctl.control_inner(p, d, d)
    phi2 = solve_linearized(traj, d).phi2[1:]
    s_gn = dd / (float(np.sum(l2(grid16, phi2) ** 2)) * p.dt + 1e-3 * dd)
    assert s_gn <= s < s_gn / opt.shrink < opt.step0
    # s is a step of the backtracking grid, reached by the same products.
    trial = opt.step0
    while trial > s:
        trial *= opt.shrink
    assert trial == s
    # Every component blocked: step0, and no tangent sweep.
    blocked = ctl.OptResult(theta_opt=theta)
    up = np.ones_like(g)
    assert ctl._gauss_newton_trial(traj, theta, up, 1e-3, control0, opt, blocked) == opt.step0
    assert blocked.tangent_solves == 0


def test_bb_step_falls_back_and_clips(grid16):
    p = make_params(grid16, T=0.004, dt=1e-3)
    opt = OptConfig(step0=10.0)
    d = np.ones((p.nt, *grid16.shape))
    assert ctl._bb_step(d, 0.5 * d, p, opt) == 2.0  # <d, d> / <d, d/2>
    assert ctl._bb_step(d, 1e-3 * d, p, opt) == 10.0  # clipped to step0
    assert ctl._bb_step(d, 1e15 * d, p, opt) == ctl.S_MIN == 1e-12  # clipped to S_MIN
    for dg in (-d, 0.0 * d, np.full_like(d, np.nan), np.full_like(d, np.inf)):
        assert ctl._bb_step(d, dg, p, opt) == 10.0  # no positive finite curvature


def test_pgd_stalls_at_round_off(grid16):
    p, init, control0, phi_d = _small_twin(grid16)
    res = pgd_optimize(
        init, control0, phi_d, p, delta=1e-6,
        opt=OptConfig(max_iters=200, step0=1e7, tol=1e-16),
    )
    assert res.termination == "stalled"
    assert res.iterations < 200
    assert len(res.step_history) == res.iterations
    costs = res.cost_history
    assert all(costs[i + 1] <= costs[i] for i in range(len(costs) - 1))


def test_projection_characterization_requires_delta(grid16):
    p = make_params(grid16, T=0.01)
    traj = solve_state(make_init(grid16), np.zeros((p.nt, *grid16.shape)), p)
    adj = solve_adjoint_discrete(traj, traj.phi[1:])
    with pytest.raises(DeltaZero):
        projection_characterization_check(traj.theta, adj, 0.0, 1.0, 0.0)


def test_projection_characterization_gap_tracks_residual(grid16):
    p = make_params(grid16, beta=0.5, alpha=1.0, T=0.004, dt=1e-4)
    init = make_init(grid16)
    theta_star = np.full((p.nt, *grid16.shape), 0.5)
    phi_d = solve_state(init, theta_star, p).phi[1:]
    delta = 1e-3
    res = pgd_optimize(
        init,
        ControlField(theta=np.zeros_like(theta_star), theta_min=0.0, theta_max=1.0),
        phi_d,
        p,
        delta=delta,
        opt=OptConfig(max_iters=60, step0=1e5, tol=1e-14),
    )
    traj = solve_state(init, res.theta_opt, p)
    adj = solve_adjoint_discrete(traj, phi_d)
    g = reduced_gradient(adj, res.theta_opt, delta)
    rho = stationarity_residual(res.theta_opt, g, p, 0.0, 1.0)
    gap = projection_characterization_check(res.theta_opt, adj, 0.0, 1.0, delta)
    assert gap <= 10.0 * max(rho, 1e-14) / delta

    # with stronger regularization the optimum hugs the projected adjoint:
    # the gap shrinks relative to the control magnitude
    delta_big = 1.0
    res_big = pgd_optimize(
        init,
        ControlField(theta=np.zeros_like(theta_star), theta_min=0.0, theta_max=1.0),
        phi_d,
        p,
        delta=delta_big,
        opt=OptConfig(max_iters=60, step0=2.0, tol=1e-14),
    )
    traj_b = solve_state(init, res_big.theta_opt, p)
    adj_b = solve_adjoint_discrete(traj_b, phi_d)
    gap_b = projection_characterization_check(res_big.theta_opt, adj_b, 0.0, 1.0, delta_big)
    from morphoctl.forward import control_space_time_norm

    scale_b = max(control_space_time_norm(p, res_big.theta_opt), 1e-30)
    scale_s = max(control_space_time_norm(p, res.theta_opt), 1e-30)
    assert gap_b / scale_b <= gap / scale_s + 1e-12


def test_unconverged_start_has_large_gap(grid16):
    p = make_params(grid16, beta=0.5, alpha=1.0, T=0.004, dt=1e-4)
    init = make_init(grid16)
    theta_star = np.full((p.nt, *grid16.shape), 0.5)
    phi_d = solve_state(init, theta_star, p).phi[1:]
    theta0 = np.zeros_like(theta_star)
    traj0 = solve_state(init, theta0, p)
    adj0 = solve_adjoint_discrete(traj0, phi_d)
    gap0 = projection_characterization_check(theta0, adj0, 0.0, 1.0, 1e-6)
    assert gap0 > 1e-3  # reported, large away from stationarity


def test_mutation_flag_breaks_gradient(grid16, monkeypatch):
    p = make_params(grid16, beta=1.0, alpha=1.0, T=0.02)
    rng = np.random.default_rng(36)
    init = make_init(grid16)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid16), p.nt)
    pd = 0.8 * np.ones((1, *grid16.shape))
    h = expand(smooth_random(rng, grid16), p.nt)
    eps = 1e-5
    jp = cost(solve_state(init, theta + eps * h, p), theta + eps * h, pd, 1e-3)
    jm = cost(solve_state(init, theta - eps * h, p), theta - eps * h, pd, 1e-3)
    fd = (jp - jm) / (2.0 * eps)

    monkeypatch.setattr(ctl, "_MISFIT_SOURCE_SIGN", -1.0)
    traj = solve_state(init, theta, p)
    adj = solve_adjoint_discrete(traj, pd)
    g = reduced_gradient(adj, theta, 1e-3)
    av = ctl.control_inner(p, g, h)
    assert abs(fd - av) / max(abs(fd), abs(av)) >= 1e-2


def test_fft_counts_per_step(grid16, monkeypatch):
    """Transforms per step: forward 6, tangent 9, adjoint 10.

    The forward and tangent sweeps carry the spectrum of m and phi1 from
    one implicit solve to the next step, so each takes one rfft2 more, to
    seed it; the adjoint's terminal step makes only its two implicit solves.
    """
    p = make_params(grid16, T=0.01)
    rng = np.random.default_rng(36)
    init = make_init(grid16)
    theta = expand(0.3 + 0.1 * smooth_random(rng, grid16), p.nt)
    h = expand(smooth_random(rng, grid16), p.nt)
    pd = 0.8 * np.ones((1, *grid16.shape))
    p.kernel._gx_hat, p.kernel._gy_hat  # the cached kernel transforms are not per step
    counts = {}
    for name in ("rfft2", "irfft2"):
        def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def sweep(fn, *args):
        counts.update(rfft2=0, irfft2=0)
        return fn(*args), dict(counts)

    nt = p.nt
    assert nt == 10
    traj, fwd = sweep(solve_state, init, theta, p)
    assert fwd == {"rfft2": 2 * nt + 1, "irfft2": 4 * nt}
    _, tan = sweep(solve_linearized, traj, h)
    assert tan == {"rfft2": 3 * nt + 1, "irfft2": 6 * nt}
    _, adj = sweep(solve_adjoint_discrete, traj, pd)
    assert adj == {"rfft2": 5 * (nt - 1) + 2, "irfft2": 5 * (nt - 1) + 2}
