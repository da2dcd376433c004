import numpy as np
import pytest

from morphoctl.errors import SupportTooLarge, SupportUnresolved
from morphoctl.grid import Grid, circ_conv, periodic_reverse
from morphoctl.kernel import _signed_offsets, build_kernel, kernel_report


def test_build_rejects_bad_radii():
    g = Grid(64, 64, 1.0, 1.0)
    with pytest.raises(SupportTooLarge):
        build_kernel(g, 0.5)
    with pytest.raises(SupportUnresolved):
        build_kernel(g, 0.04)


def test_normalization_exact():
    g = Grid(64, 64, 1.0, 1.0)
    k = build_kernel(g, 0.1)
    assert np.sum(k.j) * g.cell_area == pytest.approx(1.0, abs=1e-12)
    assert np.all(k.j >= 0.0)


def test_center_value_closed_form():
    g = Grid(64, 64, 1.0, 1.0)
    k = build_kernel(g, 0.1)
    # The raw bump at zero offset is exp(-1); after normalization the
    # center sample is exp(-1) / (sum of raw samples * cell area).
    ox = _signed_offsets(g.nx, g.hx)
    oy = _signed_offsets(g.ny, g.hy)
    px, py = np.meshgrid(ox, oy)
    rho2 = (px**2 + py**2) / 0.1**2
    raw = np.where(rho2 < 1.0, np.exp(-1.0 / np.where(rho2 < 1.0, 1.0 - rho2, 1.0)), 0.0)
    expected = np.exp(-1.0) / (np.sum(raw) * g.cell_area)
    assert k.j[0, 0] == pytest.approx(expected, rel=1e-13)
    assert k.j[0, 0] == np.max(k.j)


def test_support_vanishes_outside_radius():
    g = Grid(64, 64, 1.0, 1.0)
    r = 0.1
    k = build_kernel(g, r)
    ox = _signed_offsets(g.nx, g.hx)
    oy = _signed_offsets(g.ny, g.hy)
    px, py = np.meshgrid(ox, oy)
    outside = px**2 + py**2 >= r**2
    assert np.max(np.abs(k.j[outside])) == 0.0
    assert np.max(np.abs(k.gjx[outside])) == 0.0


def test_symmetries_exact():
    g = Grid(48, 32, 1.0, 1.5)
    k = build_kernel(g, 0.2)
    assert np.max(np.abs(k.j - periodic_reverse(k.j))) == 0.0
    assert np.max(np.abs(k.gjx + periodic_reverse(k.gjx))) == 0.0
    assert np.max(np.abs(k.gjy + periodic_reverse(k.gjy))) == 0.0


def test_gradient_integrates_to_zero_and_kills_constants():
    g = Grid(64, 64, 1.0, 1.0)
    k = build_kernel(g, 0.1)
    assert abs(np.sum(k.gjx) * g.cell_area) < 1e-12
    assert abs(np.sum(k.gjy) * g.cell_area) < 1e-12
    const = np.full(g.shape, 2.3)
    assert np.max(np.abs(circ_conv(g, k.gjx, const))) < 1e-12
    gx, gy = k.grad_conv(const)
    assert np.max(np.abs(gx)) < 1e-12
    assert np.max(np.abs(gy)) < 1e-12


def test_report_fields():
    g = Grid(64, 64, 1.0, 1.0)
    k = build_kernel(g, 0.1)
    rep = kernel_report(k)
    assert rep["integral"] == pytest.approx(1.0, abs=1e-12)
    assert rep["even_residual"] == 0.0
    assert rep["odd_residual"] == 0.0
    assert rep["support_cells"] > 0
    assert rep["conv_const_max"] < 1e-12


def test_support_cell_count_matches_lattice_oracle():
    g = Grid(64, 64, 1.0, 1.0)
    r = 3.0 * g.hx  # delta-like limit
    k = build_kernel(g, r)
    ox = _signed_offsets(g.nx, g.hx)
    oy = _signed_offsets(g.ny, g.hy)
    count = sum(
        1
        for j in range(g.ny)
        for i in range(g.nx)
        if ox[i] ** 2 + oy[j] ** 2 < r**2
    )
    rep = kernel_report(k)
    assert rep["support_cells"] == count
    assert count >= 21


def test_gradient_antiderivative_recovers_kernel_section():
    # Trapezoid cumulative integral of gjx along the y = 0 offset row
    # should reproduce the j section up to a constant with O(h^2) error.
    def section_err(n):
        g = Grid(n, n, 1.0, 1.0)
        k = build_kernel(g, 0.3)
        row_g = np.fft.fftshift(k.gjx[0, :])
        row_j = np.fft.fftshift(k.j[0, :])
        anti = np.zeros_like(row_g)
        for i in range(1, n):
            anti[i] = anti[i - 1] + 0.5 * (row_g[i - 1] + row_g[i]) * g.hx
        anti -= anti[0] - row_j[0]  # both vanish far from the support
        return np.max(np.abs(anti - row_j))

    e64, e128 = section_err(64), section_err(128)
    assert e64 / e128 == pytest.approx(4.0, abs=1.5)


def test_grad_conv_consistent_with_differenced_conv():
    # Second-order agreement between conv(gjx, f) and the centered x
    # difference of conv(j, f): gap shrinks ~4x per refinement.
    def gap(n):
        g = Grid(n, n, 1.0, 1.0)
        X, Y = g.cell_centers()
        f = np.sin(2 * np.pi * X) * np.cos(2 * np.pi * Y)
        k = build_kernel(g, 0.4)
        ax = k.grad_conv(f)[0]
        cj = k.conv_j(f)
        d = (np.roll(cj, -1, axis=1) - np.roll(cj, 1, axis=1)) / (2 * g.hx)
        return np.max(np.abs(ax - d))

    g32, g64, g128 = gap(32), gap(64), gap(128)
    assert 3.5 <= g32 / g64 <= 4.5
    assert 3.5 <= g64 / g128 <= 4.5


def test_normalization_invariant_under_refinement():
    vals = []
    for n in (32, 64, 128):
        g = Grid(n, n, 1.0, 1.0)
        k = build_kernel(g, 0.25)
        assert np.sum(k.j) * g.cell_area == pytest.approx(1.0, abs=1e-12)
        vals.append(k.j[0, 0])
    # center sample converges; successive changes shrink
    assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])
