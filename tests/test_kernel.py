import numpy as np
import pytest

from morphoctl.errors import SupportTooLarge, SupportUnresolved
from morphoctl.grid import Grid, irfft2, periodic_reverse, rfft2
from morphoctl.kernel import _signed_offsets, build_kernel, kernel_report

from oracles import circ_conv


def test_build_rejects_bad_radii():
    g = Grid(64, 64, 1.0, 1.0)
    with pytest.raises(SupportTooLarge):
        build_kernel(g, 0.5)
    with pytest.raises(SupportUnresolved):
        build_kernel(g, 0.04)
    with pytest.raises(SupportUnresolved):
        build_kernel(g, float("nan"))


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
    gx, gy = k.grad_conv(np.fft.rfft2(const))
    assert np.max(np.abs(gx)) < 1e-12
    assert np.max(np.abs(gy)) < 1e-12
    const_hat = np.fft.rfft2(const)
    assert np.max(np.abs(np.fft.irfft2(k.grad_conv_sum(const_hat, const_hat), s=g.shape))) < 1e-12


@pytest.mark.parametrize("nx, ny", [(15, 21), (16, 21), (15, 22)])
def test_fft_convolutions_match_direct_sum(nx, ny):
    # Odd and non-square sizes: the rfft2 layout's Nyquist and Hermitian bins differ per axis.
    g = Grid(nx, ny, 1.0, 1.4)
    k = build_kernel(g, 0.3)
    rng = np.random.default_rng(nx * ny)
    f, vx, vy = rng.standard_normal((3, ny, nx))
    gx, gy = k.grad_conv(np.fft.rfft2(f))
    pairs = [
        (k.conv_j(f), circ_conv(g, k.j, f)),
        (gx, circ_conv(g, k.gjx, f)),
        (gy, circ_conv(g, k.gjy, f)),
        (
            np.fft.irfft2(k.grad_conv_sum(np.fft.rfft2(vx), np.fft.rfft2(vy)), s=g.shape),
            circ_conv(g, k.gjx, vx) + circ_conv(g, k.gjy, vy),
        ),
    ]
    for fast, direct in pairs:
        assert np.max(np.abs(direct)) > 0.1
        assert np.max(np.abs(fast - direct)) < 1e-12


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
        ax = k.grad_conv(np.fft.rfft2(f))[0]
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


@pytest.mark.parametrize("nx, ny", [(128, 128), (201, 183), (256, 256)])
@pytest.mark.parametrize("count", [2, 4])
def test_stacked_transforms_and_products_keep_the_per_field_bits(nx, ny, count, monkeypatch):
    # A step's stack is transformed in one call each way at every grid size, and the
    # kernel pair is one product per component; every byte must be the per-field form's.
    # Past 256 KiB numpy elides a temporary operand and multiplies in place, which for a
    # complex product can give other bits; every size holds stacks past that, and at
    # 201 x 183 and 256 x 256 one spectrum is past it too.  So every spectrum has a name
    # before it is multiplied, here as in the sweeps and in conv_j.
    g = Grid(nx, ny, 1.0, 1.3)
    k = build_kernel(g, 0.1)
    fields = np.random.default_rng(nx + count).standard_normal((count, ny, nx))
    per_field = [np.fft.rfft2(f) for f in fields]
    k._j_hat, k._gx_hat, k._gy_hat  # the cached kernel transforms are not the stack's calls
    calls = []
    for name in ("rfft", "irfft"):
        def counted(a, *args, _fn=getattr(np.fft, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    stacked = rfft2(fields)
    assert calls == ["rfft"] and len(stacked) == count
    assert all(a.tobytes() == b.tobytes() for a, b in zip(stacked, per_field))

    def per_field_pair(fh):
        return [gh * fh for gh in (k._gx_hat, k._gy_hat)]

    # The inverse stack of a forward or tangent step: its solved spectra, then the
    # kernel pair of the first, written into the stack's last two slices; the pair alone
    # when count is 2.
    spectra = np.empty_like(stacked)
    spectra[: count - 2] = stacked[: count - 2]
    k.grad_hat(stacked[0], spectra[count - 2 :])
    refs = [*per_field[: count - 2], *per_field_pair(per_field[0])]
    assert all(a.tobytes() == b.tobytes() for a, b in zip(spectra, refs))
    back = irfft2(spectra, g.shape)
    assert calls == ["rfft", "irfft"] and len(back) == count
    assert all(a.tobytes() == np.fft.irfft2(b, s=g.shape).tobytes() for a, b in zip(back, refs))

    def per_field_conv(fh):
        return [np.fft.irfft2(gh, s=g.shape) for gh in per_field_pair(fh)]

    calls.clear()
    for fh, ref in zip(stacked, per_field):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(k.grad_conv(fh), per_field_conv(ref)))
    assert calls == ["irfft"] * count  # one inverse call per pair
    # A stack of spectra gives a stack of pairs: each slice's pair keeps its bytes.
    pair_stack = k.grad_conv(rfft2(fields))
    for i, ref in enumerate(per_field):
        assert all(a[i].tobytes() == b.tobytes() for a, b in zip(pair_stack, per_field_conv(ref)))
    # The adjoint's contraction from views of the stack, against separate spectra.
    contraction = k.grad_conv_sum(stacked[0], stacked[1])
    assert contraction.tobytes() == (k._gx_hat * per_field[0] + k._gy_hat * per_field[1]).tobytes()
    # j * f from f's named spectrum.
    ref = np.fft.irfft2(k._j_hat * per_field[0], s=g.shape)
    assert k.conv_j(fields[0]).tobytes() == ref.tobytes()
