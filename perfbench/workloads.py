"""The benchmark's workloads: seeded inputs, set-up, the timed operation, checks.

Every workload follows the same life cycle:

* ``write_inputs(workdir, seed)`` generates the inputs from the seed and
  writes them as a config file plus a field snapshot for ``m0``; arrays
  the program takes directly (the tangent direction) are returned;
* ``setup(cfg_path)`` is what a user pays before the operation:
  ``load_config`` plus ``build_problem`` (for the twin workloads this
  includes the forward solve that manufactures the target);
* ``run(problem, inputs, split)`` is the timed operation; it calls
  ``split()`` between its phases, if it has several;
* ``check(problem, out)`` verifies the output outside the timed region
  and returns the failed checks; ``digest(out)`` hashes the output arrays
  so traced and untraced runs can be compared bit for bit.

The program only ever sees the generated arrays and config values.
"""

from __future__ import annotations

import hashlib
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from morphoctl import config, control, fieldio, forward, linearized
from morphoctl.grid import Grid

ROOT = Path(__file__).resolve().parent.parent

# Round-off gates of the repository's own tests.  The ordering bound
# |m| <= |phi| <= 1 is only guaranteed for zero control, so only the
# forward workload checks it.
MASS_TOL = 1e-12
BALANCE_TOL = 1e-12
ORDERING_TOL = 1e-8
DUALITY_TOL = 1e-10

DT_WARNING = r"dt=.*exceeds the conservative drift bound"


def smooth_field(grid: Grid, rng: np.random.Generator, amp: float, kmax: int = 3) -> np.ndarray:
    """Sum of low Fourier modes with random amplitudes and phases, max |f| = amp.

    Every mode has a nonzero wavenumber, so the field has zero mean and
    the perturbed initial data keep the mass of the unperturbed data.
    """
    X, Y = grid.cell_centers()
    f = np.zeros(grid.shape)
    for kx in range(kmax + 1):
        for ky in range(-kmax, kmax + 1):
            if kx == 0 and ky <= 0:
                continue
            a, ph = rng.standard_normal(), rng.uniform(0.0, 2.0 * np.pi)
            f += a * np.cos(2.0 * np.pi * (kx * X / grid.Lx + ky * Y / grid.Ly) + ph)
    return f * (amp / np.max(np.abs(f)))


def sha256_digests(**arrays) -> dict[str, str]:
    return {
        k: hashlib.sha256(np.ascontiguousarray(np.asarray(v, dtype=float))).hexdigest()
        for k, v in arrays.items()
    }


@contextmanager
def split_after(sites, split, every: int = 1):
    """Call ``split()`` after every ``every``-th call of the functions at ``sites``.

    ``sites`` are (module, name) pairs.  Patching the module attribute
    reaches callers that look the name up in that module's namespace at
    call time, as the solvers do with their by-name imports; a wrapper
    already installed there, such as the tracer's, is wrapped in turn and
    restored on exit.
    """
    originals = [(module, name, getattr(module, name)) for module, name in sites]
    calls = 0

    def wrap(fn):
        def wrapper(*args, **kwargs):
            nonlocal calls
            try:
                return fn(*args, **kwargs)
            finally:
                calls += 1
                if calls % every == 0:
                    split()
        return wrapper

    for module, name, fn in originals:
        setattr(module, name, wrap(fn))
    try:
        yield
    finally:
        for module, name, fn in originals:
            setattr(module, name, fn)


class Workload:
    """Shared input generation and set-up; subclasses define the operation."""

    name = ""
    m0_amp = 0.02  # size of the seeded perturbation of m0
    ref_repeats: int  # FFT round trips of the reference computation: about 1 ms
    need_target = False

    def base_config(self) -> str:
        raise NotImplementedError

    def write_inputs(self, workdir: Path, seed: int) -> tuple[Path, dict]:
        text = self.base_config()
        cfg = config.parse_config_text(text)
        grid = Grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
        rng = np.random.default_rng([seed, 7401])
        m0 = config.realize_field(grid, cfg.m0_spec, cfg.seed, "init.m0")
        m0 = m0 + smooth_field(grid, rng, self.m0_amp)
        phi0 = config.realize_field(grid, cfg.phi0_spec, cfg.seed, "init.phi0")
        forward.InitData(m0=m0, phi0=phi0)  # raises if the perturbation broke admissibility
        m0_path = workdir / f"{self.name}-m0.mcf"
        fieldio.write_snapshot(m0_path, grid, 0.0, m0)
        cfg_path = workdir / f"{self.name}.cfg"
        cfg_path.write_text(
            text + f"\ninit.m0 = file:{m0_path}\nio.snapshot_stride = 0\n", encoding="utf-8"
        )
        return cfg_path, self.extra_inputs(grid, round(cfg.T / cfg.dt), rng)

    def extra_inputs(self, grid: Grid, nt: int, rng: np.random.Generator) -> dict:
        return {}

    def setup(self, cfg_path: Path):
        # The advisory dt warning fires on every config here by design; it
        # is not a failure, and other warnings still propagate.
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message=DT_WARNING, category=RuntimeWarning)
            cfg = config.load_config(cfg_path)
            return config.build_problem(cfg, need_target=self.need_target)

    def info(self, out) -> dict:
        return {}


def _model_config(n: int, nt: int, extra: str = "") -> str:
    return (
        f"grid.nx = {n}\ngrid.ny = {n}\ngrid.Lx = 1.0\ngrid.Ly = 1.0\n"
        f"time.T = {nt * 1e-4!r}\ntime.dt = 1e-4\n"
        "model.beta = 1.0\nmodel.alpha = 1.0\nkernel.radius = 0.1\n"
        "init.m0 = cosine:0.15,1,1,0.1\ninit.phi0 = constant:0.6\n" + extra
    )


class ForwardSolve(Workload):
    """solve_state with zero control: forward, kernel and grid layers only."""

    ref_repeats = 2

    def __init__(self, n: int = 256, nt: int = 100, name: str = "forward-256"):
        self.n, self.nt, self.name = n, nt, name

    def base_config(self) -> str:
        return _model_config(self.n, self.nt, "control.theta = constant:0\n")

    def run(self, problem, inputs, split=lambda: None):
        return forward.solve_state(problem.init, problem.theta, problem.params)

    def check(self, problem, traj) -> list[str]:
        failed = []
        mass = forward.mass_series(traj)
        drift = float(np.max(np.abs(mass - mass[0]))) / abs(float(mass[0]))
        if not drift <= MASS_TOL:
            failed.append(f"mass drift {drift:.3e} > {MASS_TOL}")
        balance = forward.phi_balance_defect(traj)
        if not balance <= BALANCE_TOL:
            failed.append(f"phi balance defect {balance:.3e} > {BALANCE_TOL}")
        # Slice by slice: forward.bounds_check would hold three full-history
        # temporaries and set the process's peak RSS instead of the solver.
        ordering = max(
            max(float(np.max(np.abs(m) - np.abs(p))), float(np.max(np.abs(p) - 1.0)))
            for m, p in zip(traj.m, traj.phi)
        )
        if not ordering <= ORDERING_TOL:
            failed.append(f"ordering violation {ordering:.3e} > {ORDERING_TOL}")
        return failed

    def digest(self, traj) -> dict[str, str]:
        return sha256_digests(m=traj.m, phi=traj.phi)

    def useful_cell_steps(self, problem, traj) -> int:
        return problem.grid.nx * problem.grid.ny * problem.params.nt


class Sensitivity(Workload):
    """One forward, one tangent along a seeded direction, one discrete adjoint."""

    need_target = True
    ref_repeats = 6

    def __init__(self, n: int = 128, nt: int = 200, name: str = "sensitivity-128"):
        self.n, self.nt, self.name = n, nt, name

    def base_config(self) -> str:
        return _model_config(
            self.n, self.nt,
            "control.theta = cosine:0.2,2,1,0.3\ntarget.phi_d = cosine:0.2,1,1,0.7\n",
        )

    def extra_inputs(self, grid, nt, rng) -> dict:
        a = smooth_field(grid, rng, 1.0)
        b = smooth_field(grid, rng, 1.0)
        ramp = np.cos(np.pi * np.arange(nt) / nt)[:, None, None]
        return {"h": a[None] + ramp * b[None]}

    def run(self, problem, inputs, split=lambda: None):
        # Each step of each sweep makes two implicit solves; a phase is 20 steps.
        sites = [(mod, "solve_implicit_diffusion") for mod in (forward, linearized, control)]
        with split_after(sites, split, every=40):
            traj = forward.solve_state(problem.init, problem.theta, problem.params)
            tan = linearized.solve_linearized(traj, inputs["h"])
            adj = control.solve_adjoint_discrete(traj, problem.phi_d)
        return traj, tan, adj, inputs["h"]

    def check(self, problem, out) -> list[str]:
        traj, tan, adj, h = out
        gap = control.duality_gap(traj, tan.phi2, adj, h, problem.phi_d)
        return [] if gap <= DUALITY_TOL else [f"duality gap {gap:.3e} > {DUALITY_TOL}"]

    def digest(self, out) -> dict[str, str]:
        traj, tan, adj, _h = out
        return sha256_digests(
            m=traj.m, phi=traj.phi, phi1=tan.phi1, phi2=tan.phi2,
            gamma1=adj.gamma1, gamma2=adj.gamma2,
        )

    def useful_cell_steps(self, problem, out) -> int:
        return 3 * problem.grid.nx * problem.grid.ny * problem.params.nt


class TwinPGD(Workload):
    """pgd_optimize on configs/twin.cfg with the given first trial step and tolerance."""

    need_target = True
    ref_repeats = 20

    def __init__(self, step0: float, tol: float, name: str, max_iters: int | None = None):
        self.step0, self.tol, self.name, self.max_iters = step0, tol, name, max_iters

    def base_config(self) -> str:
        text = (ROOT / "configs" / "twin.cfg").read_text(encoding="utf-8")
        text += f"\nopt.step0 = {self.step0!r}\nopt.tol = {self.tol!r}\n"
        if self.max_iters is not None:
            text += f"opt.max_iters = {self.max_iters}\n"
        return text

    def run(self, problem, inputs, split=lambda: None):
        cfg = problem.cfg
        opt = control.OptConfig(
            max_iters=cfg.max_iters, step0=cfg.step0, shrink=cfg.shrink, c1=cfg.c1, tol=cfg.tol
        )
        # Every forward and adjoint sweep of the optimization is a phase.
        with split_after([(control, "solve_state"), (control, "solve_adjoint_discrete")], split):
            return control.pgd_optimize(
                problem.init, problem.control(), problem.phi_d, problem.params, cfg.delta, opt
            )

    def check(self, problem, res) -> list[str]:
        failed = []
        if res.termination != "converged":
            failed.append(f"termination {res.termination!r}, not 'converged'")
        c = res.cost_history
        if any(b > a for a, b in zip(c, c[1:])):
            failed.append("cost increased between iterations")
        return failed

    def digest(self, res) -> dict[str, str]:
        return sha256_digests(
            theta=res.theta_opt, cost=res.cost_history, stationarity=res.stationarity_history
        )

    def useful_cell_steps(self, problem, res) -> int:
        # One forward and one adjoint sweep per iterate on the accepted path;
        # rejected line-search trials are not useful work.
        p = problem.params
        return 2 * (res.iterations + 1) * problem.grid.nx * problem.grid.ny * p.nt

    def info(self, res) -> dict:
        return {"iterations": res.iterations, "accepted": len(res.step_history)}


WORKLOADS = {
    w.name: w
    for w in (
        ForwardSolve(),
        Sensitivity(),
        TwinPGD(step0=1e5, tol=1e-10, name="twin-converge"),
        TwinPGD(step0=1e7, tol=3e-8, name="twin-backtrack"),
    )
}
