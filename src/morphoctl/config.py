"""Flat key = value run configuration and field realization.

The config format is intentionally trivial: one ``section.key = value``
pair per line, ``#`` starts a comment, blank lines ignored.  Field-valued
entries (initial data, target, control) use a small spec grammar:

    constant:<c>
    cosine:<a>,<kx>,<ky>[,<offset>]   a cos(2 pi kx x/Lx) cos(2 pi ky y/Ly) + offset
    noise:<amp>,<smooth_passes>       seeded uniform noise in [-amp, amp],
                                      then 3x3 periodic averaging passes
    file:<path>                       field snapshot file

The target additionally accepts ``twin:<control-spec>``: the target
trajectory is manufactured by a forward solve driven by the given
(time-constant) control, which makes the recovery experiment a
one-command reproduction.

Noise realization derives a per-field RNG stream from (seed, role) so two
noise fields in one config are independent but every run with the same
seed is bit-reproducible.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from .control import ControlField, OptConfig
from .errors import FormatError, ParameterError, ParseError, ValidationError
from .fieldio import read_snapshot
from .forward import DT_BOUND_WARNING, InitData, ModelParams, solve_state
from .grid import Grid, smooth_periodic
from .kernel import Kernel, build_kernel

_ROLE_STREAMS = {
    "init.m0": 1,
    "init.phi0": 2,
    "control.theta": 3,
    "target.phi_d": 4,
    "twin": 5,
}


@dataclass(frozen=True)
class RunConfig:
    nx: int
    ny: int
    Lx: float
    Ly: float
    T: float
    dt: float
    beta: float
    alpha: float
    radius: float
    theta_min: float
    theta_max: float
    delta: float
    theta_spec: str
    m0_spec: str
    phi0_spec: str
    phi_d_spec: str | None
    max_iters: int
    step0: float
    shrink: float
    c1: float
    tol: float | None
    snapshot_stride: int
    out_dir: str
    seed: int


_SCHEMA: dict[str, tuple] = {
    # key: (attr, type, required, default factory taking the raw dict)
    "grid.nx": ("nx", int, True, None),
    "grid.ny": ("ny", int, True, None),
    "grid.Lx": ("Lx", float, True, None),
    "grid.Ly": ("Ly", float, True, None),
    "time.T": ("T", float, True, None),
    "time.dt": ("dt", float, True, None),
    "model.beta": ("beta", float, True, None),
    "model.alpha": ("alpha", float, True, None),
    "kernel.radius": ("radius", float, False, None),  # default 0.1 min(Lx, Ly)
    "control.theta_min": ("theta_min", float, False, 0.0),
    "control.theta_max": ("theta_max", float, False, 1.0),
    "control.delta": ("delta", float, False, 1e-3),
    "control.theta": ("theta_spec", str, False, "constant:0"),
    "init.m0": ("m0_spec", str, True, None),
    "init.phi0": ("phi0_spec", str, True, None),
    "target.phi_d": ("phi_d_spec", str, False, None),
    "opt.max_iters": ("max_iters", int, False, 100),
    "opt.step0": ("step0", float, False, 1.0),
    "opt.shrink": ("shrink", float, False, 0.5),
    "opt.c1": ("c1", float, False, 1e-4),
    "opt.tol": ("tol", float, False, None),
    "io.snapshot_stride": ("snapshot_stride", int, False, 100),
    "io.out_dir": ("out_dir", str, False, "out"),
    "seed": ("seed", int, False, 0),
}
_ATTR_KEYS = {attr: key for key, (attr, *_rest) in _SCHEMA.items()}


def parse_config_text(text: str) -> RunConfig:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ParseError(lineno, f"expected 'key = value', got {body!r}")
        key, value = body.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(lineno, f"expected 'key = value', got {body!r}")
        raw[key] = value

    for key in raw:
        if key not in _SCHEMA:
            raise ValidationError(key, "unknown key")

    kwargs = {}
    for key, (attr, typ, required, default) in _SCHEMA.items():
        if key in raw:
            try:
                kwargs[attr] = typ(raw[key])
            except ValueError:
                raise ValidationError(key, f"expected {typ.__name__}, got {raw[key]!r}")
        elif required:
            raise ValidationError(key, "required")
        else:
            kwargs[attr] = default
    if kwargs["radius"] is None:
        kwargs["radius"] = 0.1 * min(kwargs["Lx"], kwargs["Ly"])
    return RunConfig(**kwargs)


@contextmanager
def _reported_as(key: str):
    """Turn a constructor's ValueError into a ValidationError under ``key``.

    A :class:`ParameterError` names the argument it rejects, and that
    argument's own key is reported instead.
    """
    try:
        yield
    except ParameterError as exc:
        raise ValidationError(_ATTR_KEYS[exc.name], str(exc)) from exc
    except ValueError as exc:
        raise ValidationError(key, str(exc)) from exc


def _assemble(cfg: RunConfig) -> tuple[Grid, Kernel, ModelParams, InitData, OptConfig]:
    """Build the objects a config describes; the one place its rules are checked.

    Each rule lives in the constructor that owns the value; this step only
    maps their errors to config keys.
    """
    with _reported_as("grid.nx"):
        grid = Grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    with _reported_as("kernel.radius"):
        kernel = build_kernel(grid, cfg.radius)
    with _reported_as("time.dt"):
        params = ModelParams(
            grid=grid, kernel=kernel, beta=cfg.beta, alpha=cfg.alpha, T=cfg.T, dt=cfg.dt
        )
    m0 = realize_field(grid, cfg.m0_spec, cfg.seed, "init.m0")
    phi0 = realize_field(grid, cfg.phi0_spec, cfg.seed, "init.phi0")
    with _reported_as("init.m0"):
        init = InitData(m0=m0, phi0=phi0)
    # Only the bounds are checked here; build_problem realizes the control.
    with _reported_as("control.theta_min"):
        ControlField(np.empty((0, *grid.shape)), cfg.theta_min, cfg.theta_max)
    # delta is an argument of pgd_optimize, not a field of any object.
    if cfg.delta < 0:
        raise ValidationError("control.delta", "requires delta >= 0")
    with _reported_as("opt.step0"):
        opt = OptConfig(
            max_iters=cfg.max_iters, step0=cfg.step0, shrink=cfg.shrink, c1=cfg.c1, tol=cfg.tol
        )
    return grid, kernel, params, init, opt


def load_config(path) -> RunConfig:
    """Parse a config file and check it by building the objects it describes.

    The advisory dt-bound warning is left to :func:`build_problem`, which
    every run calls, so a run shows it once.
    """
    with open(path, "r", encoding="utf-8") as fh:
        cfg = parse_config_text(fh.read())
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message=DT_BOUND_WARNING, category=RuntimeWarning)
        _assemble(cfg)
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; load(serialize(load(p))) == load(p)."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            continue
        lines.append(f"{_ATTR_KEYS[f.name]} = {value!r}" if isinstance(value, float)
                     else f"{_ATTR_KEYS[f.name]} = {value}")
    return "\n".join(lines) + "\n"


def _rng_for(seed: int, role: str) -> np.random.Generator:
    return np.random.default_rng([seed, _ROLE_STREAMS.get(role, 9)])


def realize_field(grid: Grid, spec: str, seed: int, role: str) -> np.ndarray:
    """Build a field from a spec string."""
    kind, _, rest = spec.partition(":")
    try:
        if kind == "constant":
            return np.full(grid.shape, float(rest))
        if kind == "cosine":
            parts = [float(v) for v in rest.split(",")]
            if len(parts) == 3:
                a, kx, ky = parts
                off = 0.0
            elif len(parts) == 4:
                a, kx, ky, off = parts
            else:
                raise ValueError("cosine needs a,kx,ky[,offset]")
            X, Y = grid.cell_centers()
            return (
                a
                * np.cos(2.0 * np.pi * kx * X / grid.Lx)
                * np.cos(2.0 * np.pi * ky * Y / grid.Ly)
                + off
            )
        if kind == "noise":
            amp_s, passes_s = rest.split(",")
            amp, passes = float(amp_s), int(passes_s)
            return smooth_periodic(_rng_for(seed, role).uniform(-amp, amp, size=grid.shape), passes)
        if kind == "file":
            nx, ny, _t, values = read_snapshot(rest)
            if (ny, nx) != grid.shape:
                raise ValueError(
                    f"snapshot is {nx}x{ny}, grid is {grid.nx}x{grid.ny}"
                )
            return values
    except (ValueError, OSError, FormatError) as exc:
        raise ValidationError(role, f"bad field spec {spec!r}: {exc}")
    raise ValidationError(role, f"unknown field spec kind {kind!r}")


@dataclass(frozen=True)
class Problem:
    """Everything realized and ready to run."""

    cfg: RunConfig
    grid: Grid
    kernel: Kernel
    params: ModelParams
    init: InitData
    theta: np.ndarray               # (nt, ny, nx) control from the config
    phi_d: np.ndarray | None        # (nt, ny, nx) target slices, or None
    theta_star: np.ndarray | None   # twin-experiment ground truth, if any
    opt: OptConfig                  # optimizer settings from the config

    def control(self, theta: np.ndarray | None = None) -> ControlField:
        return ControlField(
            theta=self.theta if theta is None else theta,
            theta_min=self.cfg.theta_min,
            theta_max=self.cfg.theta_max,
        )


def build_problem(cfg: RunConfig, need_target: bool = False) -> Problem:
    """Check and realize a config, including any overrides applied after loading."""
    grid, kernel, params, init, opt = _assemble(cfg)

    theta0 = realize_field(grid, cfg.theta_spec, cfg.seed, "control.theta")
    theta = np.broadcast_to(theta0, (params.nt, *grid.shape)).copy()

    phi_d = None
    theta_star = None
    if cfg.phi_d_spec is not None:
        kind, _, rest = cfg.phi_d_spec.partition(":")
        if kind == "twin":
            star0 = realize_field(grid, rest, cfg.seed, "twin")
            theta_star = np.broadcast_to(star0, (params.nt, *grid.shape)).copy()
            traj = solve_state(init, theta_star, params)
            phi_d = traj.phi[1:].copy()
        else:
            pd0 = realize_field(grid, cfg.phi_d_spec, cfg.seed, "target.phi_d")
            phi_d = np.broadcast_to(pd0, (params.nt, *grid.shape)).copy()
    elif need_target:
        raise ValidationError("target.phi_d", "required for optimization")

    return Problem(
        cfg=cfg,
        grid=grid,
        kernel=kernel,
        params=params,
        init=init,
        theta=theta,
        phi_d=phi_d,
        theta_star=theta_star,
        opt=opt,
    )


def coarsened(cfg: RunConfig, max_n: int = 32, max_nt: int = 100) -> RunConfig:
    """Shrink grid/time for budgeted verification sub-runs, preserving dt scaling."""
    nx = min(cfg.nx, max_n)
    ny = min(cfg.ny, max_n)
    nt = min(round(cfg.T / cfg.dt), max_nt)
    return replace(cfg, nx=nx, ny=ny, T=nt * cfg.dt)
