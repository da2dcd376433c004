import tracemalloc
import warnings

import numpy as np
import pytest

from morphoctl import config
from morphoctl.config import (
    _FIELDS,
    build_problem,
    coarsened,
    load_config,
    parse_config_text,
    realize_field,
)
from morphoctl.errors import FormatError, ParseError, SupportUnresolved, ValidationError
from morphoctl.fieldio import read_snapshot, write_snapshot
from morphoctl.grid import Grid
from morphoctl.kernel import build_kernel

MINIMAL = """
grid.nx = 16
grid.ny = 16
grid.Lx = 1.0
grid.Ly = 1.0
time.T = 0.01
time.dt = 1e-3
model.beta = 1.0
model.alpha = 1.0
kernel.radius = 0.25
init.m0 = constant:0.2
init.phi0 = constant:0.6
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_build_problem_is_silent_above_the_dt_bound(tmp_path):
    # The advisory drift bound is the command line's to print, not a library warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = build_problem(load_config(write_cfg(tmp_path, MINIMAL)))
    assert problem.params.dt > problem.params.dt_stability_bound()


def test_minimal_config_loads(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert cfg.nx == 16 and cfg.delta == 1e-3 and cfg.seed == 0
    assert cfg.theta_spec == "constant:0"


def test_missing_required_key(tmp_path):
    text = MINIMAL.replace("model.beta = 1.0", "")
    with pytest.raises(ValidationError) as exc:
        load_config(write_cfg(tmp_path, text))
    assert exc.value.key == "model.beta"
    assert exc.value.reason == "required"


def test_bad_bounds_rejected(tmp_path):
    text = MINIMAL + "control.theta_min = 2.0\ncontrol.theta_max = 1.0\n"
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert "theta_min <= theta_max" in exc.value.reason


def test_inadmissible_init_rejected(tmp_path):
    text = MINIMAL.replace("init.m0 = constant:0.2", "init.m0 = constant:0.8").replace(
        "init.phi0 = constant:0.6", "init.phi0 = constant:0.5"
    )
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert "|m0| <= |phi0|" in str(exc.value)


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValidationError):
        load_config(write_cfg(tmp_path, MINIMAL + "model.gamma = 3\n"))


def test_parse_error_has_line_number(tmp_path):
    with pytest.raises(ParseError) as exc:
        load_config(write_cfg(tmp_path, "grid.nx 16\n"))
    assert exc.value.line == 1


def test_comments_and_blank_lines(tmp_path):
    text = "# header\n\n" + MINIMAL + "  # trailing comment line\nseed = 7 # inline\n"
    cfg = load_config(write_cfg(tmp_path, text))
    assert cfg.seed == 7


def test_rule_keys_reported_at_build(tmp_path):
    # One case per owning constructor, plus the delta, stride and seed rules config keeps.
    # load_config only parses; build_problem checks every rule.
    cases = [
        ("grid.nx", "grid.nx = 16", "grid.nx = 3"),
        ("grid.ny", "grid.ny = 16", "grid.ny = 2"),
        ("grid.Lx", "grid.Lx = 1.0", "grid.Lx = 0.0"),
        ("grid.Ly", "grid.Ly = 1.0", "grid.Ly = -1.0"),
        ("kernel.radius", "kernel.radius = 0.25", "kernel.radius = 0.6"),
        ("model.beta", "model.beta = 1.0", "model.beta = -1.0"),
        ("model.alpha", "model.alpha = 1.0", "model.alpha = -0.5"),
        ("time.dt", "time.dt = 1e-3", "time.dt = 3e-3"),
        ("init.m0", "init.m0 = constant:0.2", "init.m0 = constant:0.8"),
        ("control.theta_min", "seed = 0", "control.theta_min = 2.0"),
        ("control.delta", "seed = 0", "control.delta = -1.0"),
        ("opt.shrink", "seed = 0", "opt.shrink = 1.0"),
        ("opt.step0", "seed = 0", "opt.step0 = inf"),
        ("opt.tol", "seed = 0", "opt.tol = -1.0"),
        ("opt.c1", "seed = 0", "opt.c1 = 0.0"),
        ("opt.max_iters", "seed = 0", "opt.max_iters = -1"),
        ("io.snapshot_stride", "seed = 0", "io.snapshot_stride = -5"),
        ("seed", "seed = 0", "seed = -1"),
    ]
    for key, old, new in cases:
        text = (MINIMAL + "seed = 0\n").replace(old, new)
        assert text != MINIMAL + "seed = 0\n", key
        cfg = load_config(write_cfg(tmp_path, text))
        with pytest.raises(ValidationError) as exc:
            build_problem(cfg)
        assert exc.value.key == key, exc.value


@pytest.mark.parametrize(
    "key", ["model.beta", "model.alpha", "control.delta", "grid.Lx", "grid.Ly"]
)
@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_infinite_model_constants_rejected(tmp_path, key, value):
    cfg = load_config(write_cfg(tmp_path, MINIMAL + f"{key} = {value}\n"))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert exc.value.key == key, exc.value


def test_load_config_only_parses(tmp_path):
    # A config whose only fault is a rule loads; building it names the key.
    cfg = load_config(write_cfg(tmp_path, MINIMAL.replace("grid.nx = 16", "grid.nx = 3")))
    assert cfg.nx == 3
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert exc.value.key == "grid.nx"


def test_load_then_build_assembles_once(tmp_path, monkeypatch):
    builds = []
    build_kernel = config.build_kernel
    monkeypatch.setattr(config, "build_kernel", lambda g, r: builds.append(r) or build_kernel(g, r))
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    assert builds == []
    build_problem(cfg)
    assert len(builds) == 1


def test_problem_holds_its_one_control(tmp_path):
    problem = build_problem(load_config(write_cfg(tmp_path, MINIMAL + "control.theta_max = 0.5\n")))
    control = problem.control()
    assert control is problem.control()
    assert control.theta is problem.theta
    assert (control.theta_min, control.theta_max) == (0.0, 0.5)


FLOAT_KEYS = [key for key, (_attr, typ, _default) in _FIELDS.items() if typ is float]


@pytest.mark.parametrize("key", FLOAT_KEYS)
def test_nan_float_is_a_config_error(key):
    with pytest.raises(ValidationError) as exc:
        parse_config_text(MINIMAL + f"{key} = nan\n")
    assert exc.value.key == key
    assert exc.value.reason == "expected a number, got 'nan'"


def test_inf_float_still_parses():
    # inf parses: an infinite upper bound is a valid box, an infinite horizon is not.
    problem = build_problem(parse_config_text(MINIMAL + "control.theta_max = inf\n"))
    assert problem.cfg.theta_max == float("inf")
    with pytest.raises(ValidationError) as exc:
        build_problem(parse_config_text(MINIMAL.replace("time.T = 0.01", "time.T = inf")))
    assert exc.value.key == "time.dt"


@pytest.mark.parametrize(
    "key,line",
    [
        ("init.m0", "init.m0 = constant:inf"),
        ("init.phi0", "init.phi0 = cosine:nan,1,1,0.6"),
        ("control.theta", "control.theta = constant:nan"),
        ("control.theta", "control.theta = noise:inf,1"),
        ("target.phi_d", "target.phi_d = constant:inf"),
        ("target.phi_d", "target.phi_d = twin:constant:nan"),
    ],
    ids=["m0", "phi0", "theta", "theta-noise", "phi_d", "twin"],
)
def test_non_finite_field_is_reported_under_its_key(key, line):
    with pytest.raises(ValidationError) as exc:
        build_problem(parse_config_text(MINIMAL + line + "\n"))
    assert exc.value.key == key
    assert "not finite" in exc.value.reason or "range exceeds" in exc.value.reason


def test_cosine_spec_realization():
    g = Grid(16, 16, 2.0, 1.0)
    f = realize_field(g, "cosine:0.5,1,2,0.25", 0, "init.m0")
    X, Y = g.cell_centers()
    expected = 0.5 * np.cos(2 * np.pi * X / 2.0) * np.cos(4 * np.pi * Y) + 0.25
    assert np.max(np.abs(f - expected)) < 1e-14


def test_noise_spec_seeded_and_bounded():
    g = Grid(16, 16, 1.0, 1.0)
    a = realize_field(g, "noise:0.3,2", 5, "init.m0")
    b = realize_field(g, "noise:0.3,2", 5, "init.m0")
    c = realize_field(g, "noise:0.3,2", 6, "init.m0")
    d = realize_field(g, "noise:0.3,2", 5, "init.phi0")
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)  # distinct stream per role
    assert np.max(np.abs(a)) <= 0.3


def test_file_spec_roundtrip(tmp_path):
    g = Grid(16, 16, 1.0, 1.0)
    rng = np.random.default_rng(40)
    f = rng.standard_normal(g.shape)
    path = tmp_path / "field.mcf"
    write_snapshot(path, g, 0.25, f)
    out = realize_field(g, f"file:{path}", 0, "init.m0")
    assert np.array_equal(out, f)
    with pytest.raises(ValidationError):
        realize_field(Grid(8, 8, 1.0, 1.0), f"file:{path}", 0, "init.m0")


def test_unknown_spec_kind():
    g = Grid(8, 8, 1.0, 1.0)
    with pytest.raises(ValidationError):
        realize_field(g, "sinc:1.0", 0, "init.m0")


def test_snapshot_bit_exact_roundtrip(tmp_path):
    g = Grid(12, 8, 1.5, 0.5)
    rng = np.random.default_rng(41)
    f = rng.standard_normal(g.shape)
    path = tmp_path / "snap.mcf"
    write_snapshot(path, g, 0.125, f)
    nx, ny, t, values = read_snapshot(path)
    assert (nx, ny, t) == (12, 8, 0.125)
    assert values.tobytes() == f.tobytes()


def test_snapshot_magic_mismatch(tmp_path):
    path = tmp_path / "bad.mcf"
    path.write_bytes(b"NOTAFIELD 1 4 4 0.0\n" + b"\x00" * 128)
    with pytest.raises(FormatError):
        read_snapshot(path)


def test_snapshot_truncated_payload(tmp_path):
    path = tmp_path / "short.mcf"
    path.write_bytes(b"MCFIELD 1 4 4 0.0\n" + b"\x00" * 12)
    with pytest.raises(FormatError):
        read_snapshot(path)


@pytest.mark.parametrize("extra", [1, 8 * 8 * 8 - 4 * 4 * 8])
def test_snapshot_bytes_after_payload(tmp_path, extra):
    # An 8x8 payload behind a 4x4 header must not read as a 4x4 field.
    path = tmp_path / "long.mcf"
    path.write_bytes(b"MCFIELD 1 4 4 0.0\n" + b"\x00" * (4 * 4 * 8 + extra))
    with pytest.raises(FormatError, match="payload of"):
        read_snapshot(path)


@pytest.mark.parametrize("size", [b"-4 -4", b"10000000000 10000000000"])
def test_snapshot_header_size_checked_before_read(tmp_path, size):
    path = tmp_path / "bad_size.mcf"
    path.write_bytes(b"MCFIELD 1 " + size + b" 0.0\n" + b"\x00" * 128)
    with pytest.raises(FormatError):
        read_snapshot(path)


@pytest.mark.parametrize("content, reason", [
    (b"MCFIELD 1 4 4", "unexpected end of file in header"),
    (b"MCFIELD 1 4 4 " + b"0" * 300 + b"\n", "header line too long"),
    (b"MCFIELD 1 4 4 " + b"0" * 241 + b".0\n" + b"\x00" * 128, "header line too long"),
    (b"MCFIELD 2 4 4 0.0\n" + b"\x00" * 128, "unsupported version 2"),
    (b"MCFIELD 1 four 4 0.0\n" + b"\x00" * 128, "bad header fields"),
], ids=["eof", "too-long", "257-bytes", "version", "non-numeric"])
def test_snapshot_header_rejections(tmp_path, content, reason):
    path = tmp_path / "bad_header.mcf"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=reason):
        read_snapshot(path)


def test_snapshot_header_of_256_bytes_accepted(tmp_path):
    header = b"MCFIELD 1 4 4 " + b"0" * 240 + b".0"
    assert len(header) == 256
    path = tmp_path / "long_header.mcf"
    path.write_bytes(header + b"\n" + b"\x00" * 128)
    assert read_snapshot(path)[:3] == (4, 4, 0.0)


def test_twin_target_manufactured(tmp_path):
    text = MINIMAL + "target.phi_d = twin:constant:0.4\n"
    cfg = load_config(write_cfg(tmp_path, text))
    problem = build_problem(cfg, need_target=True)
    assert problem.theta_star is not None
    assert np.all(problem.theta_star == 0.4)
    assert not problem.theta_star.flags.writeable
    assert problem.phi_d.shape == (problem.params.nt, 16, 16)
    # target must be exactly reachable by the manufacturing control
    from morphoctl.forward import solve_state

    traj = solve_state(problem.init, problem.theta_star, problem.params)
    assert np.array_equal(traj.phi[1:], problem.phi_d)


def test_twin_target_errors_name_the_key(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL + "target.phi_d = twin:bogus\n"))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert exc.value.key == "target.phi_d"
    assert str(exc.value) == "target.phi_d: unknown field spec kind 'bogus'"
    # The ground truth keeps the "twin" noise stream.
    cfg = load_config(write_cfg(tmp_path, MINIMAL + "target.phi_d = twin:noise:0.1,1\n"))
    problem = build_problem(cfg)
    assert np.array_equal(
        problem.theta_star[0], realize_field(problem.grid, "noise:0.1,1", cfg.seed, "twin")
    )


def test_time_constant_series_stay_one_slice(tmp_path):
    text = MINIMAL.replace("grid.nx = 16", "grid.nx = 32").replace(
        "grid.ny = 16", "grid.ny = 32"
    ).replace("time.T = 0.01", "time.T = 0.2") + (
        "control.theta = cosine:0.2,2,1,0.3\ntarget.phi_d = constant:0.6\n"
    )
    cfg = load_config(write_cfg(tmp_path, text))
    history = round(cfg.T / cfg.dt) * cfg.ny * cfg.nx * 8
    tracemalloc.start()
    try:
        problem = build_problem(cfg, need_target=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert problem.params.nt == 200
    assert problem.theta.shape == problem.phi_d.shape == (200, 32, 32)
    assert peak < history
    assert not problem.theta.flags.writeable
    assert not problem.phi_d.flags.writeable


def test_optimize_requires_target(tmp_path):
    cfg = load_config(write_cfg(tmp_path, MINIMAL))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg, need_target=True)
    assert exc.value.key == "target.phi_d"


def test_radius_validation(tmp_path):
    text = MINIMAL.replace("kernel.radius = 0.25", "kernel.radius = 0.6")
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert exc.value.key == "kernel.radius"
    text = MINIMAL.replace("kernel.radius = 0.25", "kernel.radius = 0.1")
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)  # under 3 cells at 16^2
    assert exc.value.key == "kernel.radius"


def test_default_radius(tmp_path):
    text = MINIMAL.replace("kernel.radius = 0.25\n", "")
    # 0.1 * min(L) = 0.1 < 3 h at 16^2, so validation must flag it
    cfg = load_config(write_cfg(tmp_path, text))
    with pytest.raises(ValidationError) as exc:
        build_problem(cfg)
    assert exc.value.key == "kernel.radius"
    big = text.replace("grid.nx = 16", "grid.nx = 64").replace("grid.ny = 16", "grid.ny = 64")
    cfg = load_config(write_cfg(tmp_path, big, name="big.cfg"))
    assert cfg.radius == pytest.approx(0.1)


@pytest.mark.parametrize("radius, Lx, cells", [
    ("0.1", "1.0", (32, 32)),
    ("0.09375", "1.0", (32, 32)),  # 3 / 32: 32 cells resolve it exactly
    ("0.06", "1.0", (50, 50)),     # 32 cells would not: the fewest that do
    ("0.06", "0.8", (40, 50)),     # each side on its own
])
def test_coarsened_grid_resolves_the_kernel_radius(radius, Lx, cells):
    # verify's projection row runs on the coarsened copy of a config valid at 64^2.
    text = MINIMAL.replace("grid.nx = 16", "grid.nx = 64").replace("grid.ny = 16", "grid.ny = 64")
    cfg = parse_config_text(text.replace("grid.Lx = 1.0", f"grid.Lx = {Lx}").replace(
        "kernel.radius = 0.25", f"kernel.radius = {radius}"))
    build_problem(cfg)
    sub = build_problem(coarsened(cfg))
    assert sub.grid.shape == cells[::-1]


@pytest.mark.parametrize("L, n", [(1.0, 34), (1.3, 41), (0.7, 35)])
def test_coarsened_and_build_kernel_agree_at_the_resolution_boundary(L, n):
    # At radius 3 (L / n) exactly, n cells resolve the kernel; at the next float below, n + 1.
    # In each case 3 L / n rounds to another float, so the rule's form is pinned too.
    exact = 3.0 * (L / n)
    for radius, cells in ((exact, n), (float(np.nextafter(exact, 0.0)), n + 1)):
        text = MINIMAL
        for old, new in (("nx = 16", "nx = 64"), ("ny = 16", "ny = 64"), ("Lx = 1.0", f"Lx = {L}"),
                         ("Ly = 1.0", f"Ly = {L}"), ("radius = 0.25", f"radius = {radius!r}")):
            text = text.replace(old, new)
        sub = coarsened(parse_config_text(text))
        assert (sub.nx, sub.ny, sub.radius) == (cells, cells, radius)
        build_kernel(Grid(cells, cells, L, L), radius)
        with pytest.raises(SupportUnresolved):
            build_kernel(Grid(cells - 1, cells - 1, L, L), radius)
