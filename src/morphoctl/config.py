"""Flat key = value run configuration and field realization.

The config format is intentionally trivial: one ``section.key = value``
pair per line, ``#`` starts a comment, blank lines ignored.  Field-valued
entries (initial data, target, control) use a small spec grammar:

    constant:<c>
    cosine:<a>,<kx>,<ky>[,<offset>]   a cos(2 pi kx x/Lx) cos(2 pi ky y/Ly) + offset
    noise:<amp>,<passes>              seeded uniform noise in [-amp, amp],
                                      then 3x3 periodic averaging passes (>= 0)
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

import itertools
import math
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import get_args, get_type_hints

import numpy as np

from .control import ControlField, OptConfig
from .errors import ParameterError, ParseError, ValidationError
from .fieldio import read_snapshot
from .forward import InitData, ModelParams, control_array, state_steps
from .grid import Grid, smooth_periodic
from .kernel import build_kernel, smallest_radius

_ROLE_STREAMS = {
    "init.m0": 1,
    "init.phi0": 2,
    "control.theta": 3,
    "target.phi_d": 4,
    "twin": 5,
}


def _key(key: str, default=MISSING):
    """A RunConfig field read from ``key``; without a default the key is required."""
    return field(default=default, metadata={"key": key})


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The one declaration of every config key: its attribute, type and default."""

    nx: int = _key("grid.nx")
    ny: int = _key("grid.ny")
    Lx: float = _key("grid.Lx")
    Ly: float = _key("grid.Ly")
    T: float = _key("time.T")
    dt: float = _key("time.dt")
    beta: float = _key("model.beta")
    alpha: float = _key("model.alpha")
    radius: float = _key("kernel.radius", None)  # None: 0.1 min(Lx, Ly)
    theta_min: float = _key("control.theta_min", ControlField.theta_min)
    theta_max: float = _key("control.theta_max", ControlField.theta_max)
    delta: float = _key("control.delta", 1e-3)
    theta_spec: str = _key("control.theta", "constant:0")
    m0_spec: str = _key("init.m0")
    phi0_spec: str = _key("init.phi0")
    phi_d_spec: str | None = _key("target.phi_d", None)
    max_iters: int = _key("opt.max_iters", OptConfig.max_iters)
    step0: float = _key("opt.step0", OptConfig.step0)
    shrink: float = _key("opt.shrink", OptConfig.shrink)
    c1: float = _key("opt.c1", OptConfig.c1)
    tol: float | None = _key("opt.tol", OptConfig.tol)
    snapshot_stride: int = _key("io.snapshot_stride", 100)
    out_dir: str = _key("io.out_dir", "out")
    seed: int = _key("seed", 0)


# key: (attribute, value type, default or MISSING), read off RunConfig once;
# the value type of a ``T | None`` field is T.
_HINTS = get_type_hints(RunConfig)
_FIELDS = {
    f.metadata["key"]: (f.name, (get_args(_HINTS[f.name]) or (_HINTS[f.name],))[0], f.default)
    for f in fields(RunConfig)
}
_ATTR_KEYS = {f.name: f.metadata["key"] for f in fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    """Check syntax, keys and types (a float may not be NaN); build_problem checks rules."""
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
        if key not in _FIELDS:
            raise ValidationError(key, "unknown key")

    kwargs = {}
    for key, (attr, typ, default) in _FIELDS.items():
        if key in raw:
            try:
                kwargs[attr] = typ(raw[key])
            except ValueError:
                raise ValidationError(key, f"expected {typ.__name__}, got {raw[key]!r}")
            if typ is float and math.isnan(kwargs[attr]):
                raise ValidationError(key, f"expected a number, got {raw[key]!r}")
        elif default is MISSING:
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


def load_config(path) -> RunConfig:
    """Read and parse a config file; :func:`build_problem` checks its rules."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def realize_field(grid: Grid, spec: str, seed: int, role: str) -> np.ndarray:
    """Build a finite field from a spec string; errors are reported under ``role``."""
    kind, _, rest = spec.partition(":")
    if kind not in ("constant", "cosine", "noise", "file"):
        raise ValidationError(role, f"unknown field spec kind {kind!r}")
    try:
        if kind == "constant":
            field = np.full(grid.shape, float(rest))
        elif kind == "cosine":
            parts = [float(v) for v in rest.split(",")]
            if len(parts) not in (3, 4):
                raise ValueError("cosine needs a,kx,ky[,offset]")
            a, kx, ky, off = parts if len(parts) == 4 else [*parts, 0.0]
            X, Y = grid.cell_centers()
            field = (
                a
                * np.cos(2.0 * np.pi * kx * X / grid.Lx)
                * np.cos(2.0 * np.pi * ky * Y / grid.Ly)
                + off
            )
        elif kind == "noise":
            amp_s, passes_s = rest.split(",")
            amp, passes = float(amp_s), int(passes_s)
            if passes < 0:
                raise ValueError("noise needs passes >= 0")
            rng = np.random.default_rng([seed, _ROLE_STREAMS[role]])
            field = smooth_periodic(rng.uniform(-amp, amp, size=grid.shape), passes)
        else:
            nx, ny, _t, field = read_snapshot(rest)
            if (ny, nx) != grid.shape:
                raise ValueError(f"snapshot is {nx}x{ny}, grid is {grid.nx}x{grid.ny}")
        if not np.isfinite(field).all():
            raise ValueError("field is not finite")
    except (ValueError, OverflowError, OSError) as exc:
        raise ValidationError(role, f"bad field spec {spec!r}: {exc}")
    return field


@dataclass(frozen=True)
class Problem:
    """Everything realized and ready to run; the target only for a command that reads one."""

    cfg: RunConfig
    grid: Grid
    params: ModelParams
    init: InitData
    control_field: ControlField     # theta: (nt, ny, nx) read-only view of one slice
    phi_d: np.ndarray | None        # (nt, ny, nx) target, built with need_target only: read-only
                                    # view of one slice or a twin's phi history from index 1
    theta_star: np.ndarray | None   # twin ground truth, read-only view of one slice
    opt: OptConfig                  # optimizer settings from the config

    @property
    def theta(self) -> np.ndarray:
        return self.control_field.theta

    def control(self) -> ControlField:
        """The configured control with its box, checked once by build_problem."""
        return self.control_field


def build_problem(cfg: RunConfig, need_target: bool = False) -> Problem:
    """Check every rule of a config, overrides included, and realize every field.

    The one path from a RunConfig to the objects of a run, and the one place a
    config is checked: each rule lives in the constructor that owns the value,
    and this step only maps their errors to config keys.  A target is checked on
    every build but realized, a twin's forward run included, only with ``need_target``.
    """
    with _reported_as("grid.nx"):
        grid = Grid(cfg.nx, cfg.ny, cfg.Lx, cfg.Ly)
    with _reported_as("kernel.radius"):
        kernel = build_kernel(grid, cfg.radius)
    with _reported_as("time.dt"):
        params = ModelParams(kernel=kernel, beta=cfg.beta, alpha=cfg.alpha, T=cfg.T, dt=cfg.dt)
    # delta is an argument of pgd_optimize, the stride one of simulate and the seed one
    # of realize_field, not fields of any object; the seed is checked before it is used.
    if not (0.0 <= cfg.delta < math.inf):
        raise ValidationError("control.delta", "requires 0 <= delta < inf")
    if cfg.snapshot_stride < 0:
        raise ValidationError("io.snapshot_stride", "requires snapshot_stride >= 0")
    if cfg.seed < 0:
        raise ValidationError("seed", "requires seed >= 0")
    m0 = realize_field(grid, cfg.m0_spec, cfg.seed, "init.m0")
    phi0 = realize_field(grid, cfg.phi0_spec, cfg.seed, "init.phi0")
    with _reported_as("init.m0"):
        init = InitData(m0=m0, phi0=phi0)
    theta = control_array(realize_field(grid, cfg.theta_spec, cfg.seed, "control.theta"), params)
    with _reported_as("control.theta_min"):
        control = ControlField(theta, cfg.theta_min, cfg.theta_max)
    with _reported_as("opt.step0"):  # each OptConfig field is the RunConfig field of that name
        opt = OptConfig(**{f.name: getattr(cfg, f.name) for f in fields(OptConfig)})

    phi_d = theta_star = None
    if cfg.phi_d_spec is not None:
        kind, _, rest = cfg.phi_d_spec.partition(":")
        if kind == "twin":
            # "twin" selects the ground truth's noise stream; errors name the key.
            try:
                star = realize_field(grid, rest, cfg.seed, "twin")
            except ValidationError as exc:
                raise ValidationError("target.phi_d", exc.reason) from exc
            theta_star = control_array(star, params)
            if need_target:  # phi_1..phi_nt of the run at theta_star, the one history stored
                phi_d = np.empty((params.nt, *grid.shape))
                for n, _, phi in itertools.islice(state_steps(init, theta_star, params), 1, None):
                    phi_d[n - 1] = phi
        else:
            pd = realize_field(grid, cfg.phi_d_spec, cfg.seed, "target.phi_d")
            phi_d = control_array(pd, params) if need_target else None
    elif need_target:
        raise ValidationError("target.phi_d", "required for optimization")

    return Problem(
        cfg=cfg,
        grid=grid,
        params=params,
        init=init,
        control_field=control,
        phi_d=phi_d,
        theta_star=theta_star,
        opt=opt,
    )


def coarsened(cfg: RunConfig) -> RunConfig:
    """Shrink grid/time for budgeted verification sub-runs, preserving dt scaling.

    The copy has at most 100 steps of the configured dt, and at most 32 cells per side or the
    fewest that resolve the radius (kernel.smallest_radius), unless a snapshot fixes the grid.
    """
    specs = (cfg.m0_spec, cfg.phi0_spec, cfg.theta_spec, cfg.phi_d_spec or "")
    reads_file = any(s.removeprefix("twin:").startswith("file:") for s in specs)
    nx, ny = (cfg.nx, cfg.ny) if reads_file else (min(cfg.nx, 32), min(cfg.ny, 32))
    while nx < cfg.nx and cfg.radius < smallest_radius(cfg.Lx / nx):
        nx += 1
    while ny < cfg.ny and cfg.radius < smallest_radius(cfg.Ly / ny):
        ny += 1
    nt = min(round(cfg.T / cfg.dt), 100)
    return replace(cfg, nx=nx, ny=ny, T=nt * cfg.dt)
