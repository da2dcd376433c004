import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoctl.errors import GridMismatch
from morphoctl.grid import (
    Grid,
    div,
    grad,
    h1,
    h_minus_1,
    inner,
    integral,
    irfft2,
    l2,
    norms,
    periodic_reverse,
    rfft2,
    solve_implicit_diffusion,
    _implicit_multiplier,
)

from conftest import full_laplacian_symbol, smooth_random
from oracles import circ_conv, laplacian


def test_grid_validates_size_and_lengths():
    with pytest.raises(ValueError):
        Grid(3, 8, 1.0, 1.0)
    with pytest.raises(ValueError):
        Grid(8, 8, 0.0, 1.0)
    g = Grid(8, 4, 2.0, 1.0)
    assert g.hx == pytest.approx(0.25)
    assert g.shape == (4, 8)


def test_grad_of_constant_is_zero(grid32):
    gx, gy = grad(grid32, np.full(grid32.shape, 3.7))
    assert np.max(np.abs(gx)) == 0.0
    assert np.max(np.abs(gy)) == 0.0


def test_grad_sine_eigenfunction():
    g = Grid(64, 64, 1.0, 1.0)
    X, _ = g.cell_centers()
    f = np.sin(2 * np.pi * X / g.Lx)
    gx, gy = grad(g, f)
    symbol = np.sin(2 * np.pi * g.hx / g.Lx) / g.hx
    assert np.max(np.abs(gx - symbol * np.cos(2 * np.pi * X / g.Lx))) < 1e-13
    assert np.max(np.abs(gy)) < 1e-14


def test_grad_sums_to_zero(grid32):
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid32.shape)
    gx, gy = grad(grid32, f)
    scale = np.sum(np.abs(gx)) + 1.0
    assert abs(np.sum(gx)) < 1e-12 * scale
    assert abs(np.sum(gy)) < 1e-12 * scale


def test_div_constant_zero_and_mean_free(grid32):
    z = div(grid32, np.full(grid32.shape, 1.5), np.full(grid32.shape, -2.5))
    assert np.max(np.abs(z)) == 0.0
    rng = np.random.default_rng(4)
    d = div(grid32, rng.standard_normal(grid32.shape), rng.standard_normal(grid32.shape))
    assert abs(integral(grid32, d)) < 1e-12 * (np.sum(np.abs(d)) * grid32.cell_area + 1.0)


def test_div_grad_is_wide_laplacian(grid32):
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid32.shape)
    composed = div(grid32, *grad(grid32, f))
    wide = (
        (np.roll(f, -2, axis=1) + np.roll(f, 2, axis=1) - 2 * f) / (4 * grid32.hx**2)
        + (np.roll(f, -2, axis=0) + np.roll(f, 2, axis=0) - 2 * f) / (4 * grid32.hy**2)
    )
    assert np.max(np.abs(composed - wide)) < 1e-13 * np.max(np.abs(wide))


def test_laplacian_constant_eigen_and_mean():
    g = Grid(64, 64, 1.0, 1.0)
    assert np.max(np.abs(laplacian(g, np.full(g.shape, 2.0)))) == 0.0
    X, _ = g.cell_centers()
    f = np.cos(2 * np.pi * X / g.Lx)
    lam = -(2.0 / g.hx**2) * (1.0 - np.cos(2 * np.pi * g.hx / g.Lx))
    assert np.max(np.abs(laplacian(g, f) - lam * f)) < 1e-10
    rng = np.random.default_rng(6)
    lf = laplacian(g, rng.standard_normal(g.shape))
    assert abs(integral(g, lf)) < 1e-12 * (np.sum(np.abs(lf)) * g.cell_area + 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_operators_linear(seed, a, b):
    g = Grid(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape)
    h = rng.standard_normal(g.shape)
    for op in (laplacian, lambda gg, ff: grad(gg, ff)[0], lambda gg, ff: grad(gg, ff)[1]):
        combined = op(g, a * f + b * h)
        split = a * op(g, f) + b * op(g, h)
        assert np.max(np.abs(combined - split)) < 1e-13 * (np.max(np.abs(split)) + 1.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_summation_by_parts_exact(seed):
    g = Grid(8, 12, 1.3, 0.7)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(g.shape)
    vx = rng.standard_normal(g.shape)
    vy = rng.standard_normal(g.shape)
    gx, gy = grad(g, f)
    lhs = inner(g, div(g, vx, vy), f)
    rhs = -(inner(g, vx, gx) + inner(g, vy, gy))
    assert abs(lhs - rhs) < 1e-12 * (abs(lhs) + abs(rhs) + 1.0)


def test_circ_conv_delta_identity():
    g = Grid(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(7)
    f = rng.standard_normal(g.shape)
    delta = np.zeros(g.shape)
    delta[0, 0] = 1.0 / g.cell_area
    out = circ_conv(g, delta, f)
    assert np.max(np.abs(out - f)) < 1e-12


def test_circ_conv_normalized_kernel_on_constant():
    g = Grid(8, 8, 2.0, 1.0)
    rng = np.random.default_rng(8)
    k = np.abs(rng.standard_normal(g.shape))
    k /= np.sum(k) * g.cell_area
    out = circ_conv(g, k, np.full(g.shape, 4.2))
    assert np.max(np.abs(out - 4.2)) < 1e-12


def test_circ_conv_matches_double_loop_oracle():
    g = Grid(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(9)
    k = rng.standard_normal(g.shape)
    f = rng.standard_normal(g.shape)

    oracle = np.zeros(g.shape)
    for pj in range(g.ny):
        for pi in range(g.nx):
            s = 0.0
            for qj in range(g.ny):
                for qi in range(g.nx):
                    s += k[(pj - qj) % g.ny, (pi - qi) % g.nx] * f[qj, qi]
            oracle[pj, pi] = s * g.cell_area

    out = circ_conv(g, k, f)
    assert np.max(np.abs(out - oracle)) < 1e-12


def test_circ_conv_grid_mismatch():
    g = Grid(8, 8, 1.0, 1.0)
    with pytest.raises(GridMismatch):
        circ_conv(g, np.zeros((8, 8)), np.zeros((8, 9)))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_conv_symmetry_transfer(seed):
    g = Grid(8, 8, 1.0, 1.0)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal(g.shape)
    k_even = 0.5 * (raw + periodic_reverse(raw))
    k_odd = 0.5 * (raw - periodic_reverse(raw))
    f = rng.standard_normal(g.shape)
    w = rng.standard_normal(g.shape)
    lhs_e = inner(g, circ_conv(g, k_even, f), w)
    rhs_e = inner(g, f, circ_conv(g, k_even, w))
    assert abs(lhs_e - rhs_e) < 1e-12 * (abs(lhs_e) + 1.0)
    lhs_o = inner(g, circ_conv(g, k_odd, f), w)
    rhs_o = inner(g, f, circ_conv(g, k_odd, w))
    assert abs(lhs_o + rhs_o) < 1e-12 * (abs(lhs_o) + 1.0)


def test_norms_zero_and_constant():
    g = Grid(16, 16, 1.0, 1.0)
    z = norms(g, np.zeros(g.shape))
    assert z == {"l2": 0.0, "h1": 0.0, "h_minus_1": 0.0}
    one = norms(g, np.ones(g.shape))
    assert one["l2"] == pytest.approx(1.0, abs=1e-14)
    assert one["h1"] == pytest.approx(1.0, abs=1e-14)
    assert one["h_minus_1"] == pytest.approx(1.0, abs=1e-14)


def test_h_minus_1_single_mode_multiplier():
    g = Grid(64, 64, 1.0, 1.0)
    X, _ = g.cell_centers()
    f = np.cos(2 * np.pi * X)
    n = norms(g, f)
    expected = n["l2"] / np.sqrt(1.0 + 4.0 * np.pi**2)
    assert n["h_minus_1"] == pytest.approx(expected, rel=0.01)


def test_implicit_solve_is_exact_per_mode():
    g = Grid(32, 32, 1.0, 1.0)
    X, _ = g.cell_centers()
    f = np.cos(2 * np.pi * X)
    lam = -(2.0 / g.hx**2) * (1.0 - np.cos(2 * np.pi * g.hx))
    dt = 1e-3
    out = irfft2(solve_implicit_diffusion(g, rfft2(f), dt), g.shape)
    assert np.max(np.abs(out - f / (1.0 - dt * lam))) < 1e-13


@pytest.mark.parametrize("nx, ny", [(4, 4), (7, 5), (15, 12), (24, 20)])
def test_implicit_solve_keeps_the_bits_of_the_division(nx, ny):
    # The solve multiplies by a cached 1 / (1 - dt lam); u must be the
    # division form byte for byte, on odd, non-square grids and on stacks.
    g = Grid(nx, ny, 1.3, 0.7)
    lam = full_laplacian_symbol(g)[:, : nx // 2 + 1]
    rng = np.random.default_rng(nx * ny)
    for dt in (1e-4, 1e-3, 0.37):
        for f in (rng.standard_normal(g.shape), rng.standard_normal((3, ny, nx))):
            f.flat[1] = -0.0
            u = irfft2(solve_implicit_diffusion(g, rfft2(f), dt), g.shape)
            expected = np.fft.irfft2(np.fft.rfft2(f) / (1.0 - dt * lam), s=g.shape)
            assert u.shape == f.shape and u.tobytes() == expected.tobytes()


@pytest.mark.parametrize("ny", [4, 5, 9, 16, 33])
@pytest.mark.parametrize("nx", [4, 7, 12, 31, 32])
def test_real_transforms_keep_numpys_bits(nx, ny):
    # grid.rfft2/irfft2 call the 1-D pocketfft gufuncs numpy.fft calls, with its
    # normalization, so their bytes are numpy's rfft2/irfft2(s=) of the float64 field,
    # on odd, even and non-square grids and stacks.
    rng = np.random.default_rng(100 * ny + nx)
    for f in (rng.standard_normal((ny, nx)), rng.standard_normal((3, ny, nx))):
        fh, np_fh = rfft2(f), np.fft.rfft2(f)
        assert fh.shape == np_fh.shape and fh.tobytes() == np_fh.tobytes()
        back, np_back = irfft2(np_fh, (ny, nx)), np.fft.irfft2(np_fh, s=(ny, nx))
        assert back.shape == np_back.shape and back.tobytes() == np_back.tobytes()
    # Into the first two slices of a step's spectra stack, as the forward and tangent
    # steps write their right-hand sides: the view comes back with numpy's bytes.
    f, spec = rng.standard_normal((2, ny, nx)), np.zeros((4, ny, nx // 2 + 1), complex)
    fh = rfft2(f, out=spec[:2])
    assert fh.base is spec and spec[:2].tobytes() == np.fft.rfft2(f).tobytes()
    assert not spec[2:].any()
    # A float32 field is transformed as float64 (numpy's own rfft2 would stay float32).
    f32 = f.astype(np.float32)
    assert rfft2(f32).tobytes() == np.fft.rfft2(f32.astype(float)).tobytes()


def test_real_2d_transforms_have_one_home():
    # Every transform goes through grid.py (rfft2/irfft2 and their stacks), so the
    # pass counts of test_fft_counts_per_step see every transform a sweep makes.
    src = Path(__file__).resolve().parents[1] / "src" / "morphoctl"
    direct = re.compile(r"np\.fft\.|numpy\.fft|from\s+numpy\s+import\s+fft")
    offenders = [
        f"{path.name}:{i}"
        for path in sorted(src.glob("*.py"))
        if path.name != "grid.py"
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if direct.search(line)
    ]
    assert offenders == []


def test_implicit_solve_reuses_its_multiplier():
    rhs = np.ones((5, 7))
    solve_implicit_diffusion(Grid(7, 5, 1.0, 1.0), rfft2(rhs), 1e-3)
    before = _implicit_multiplier.cache_info()
    solve_implicit_diffusion(Grid(7, 5, 1.0, 1.0), rfft2(rhs), 1e-3)
    after = _implicit_multiplier.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    assert _implicit_multiplier(Grid(7, 5, 1.0, 1.0), 1e-3) is _implicit_multiplier(
        Grid(7, 5, 1.0, 1.0), 1e-3
    )


def test_reductions_deterministic(grid32):
    rng = np.random.default_rng(11)
    f = smooth_random(rng, grid32)
    vals = {integral(grid32, f) for _ in range(5)}
    assert len(vals) == 1


def test_stack_reductions_match_slice_by_slice():
    g = Grid(24, 20, 1.3, 0.7)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((5, *g.shape))
    w = rng.standard_normal((5, *g.shape))
    for name, op in [
        ("integral", lambda a, b: integral(g, a)),
        ("inner", lambda a, b: inner(g, a, b)),
        ("l2", lambda a, b: l2(g, a)),
        ("h1", lambda a, b: h1(g, a)),
        ("h_minus_1", lambda a, b: h_minus_1(g, a)),
    ]:
        stacked = op(f, w)
        assert stacked.shape == (5,), name
        assert np.array_equal(stacked, [op(f[k], w[k]) for k in range(5)]), name
        assert type(op(f[0], w[0])) is float, name
    gx, gy = grad(g, f)
    for k in range(5):
        sx, sy = grad(g, f[k])
        assert np.array_equal(gx[k], sx) and np.array_equal(gy[k], sy)

    # grad and div slice into one output array; the np.roll expressions are
    # the same operations on rolled copies, so the bits must agree, also on
    # an odd non-square stack and on the smallest grid.
    def rolled(grid, a, axis):
        h = grid.hx if axis == -1 else grid.hy
        return (np.roll(a, -1, axis=axis) - np.roll(a, 1, axis=axis)) / (2.0 * h)

    for grid, a, b in [
        (g, f, w),
        (Grid(7, 5, 1.3, 0.7), *rng.standard_normal((2, 3, 5, 7))),
        (Grid(4, 4, 1.0, 1.0), *rng.standard_normal((2, 4, 4))),
    ]:
        ax, ay = grad(grid, a)
        assert np.array_equal(ax, rolled(grid, a, -1)) and np.array_equal(ay, rolled(grid, a, -2))
        assert np.array_equal(div(grid, a, b), rolled(grid, a, -1) + rolled(grid, b, -2))
