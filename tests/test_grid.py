"""Grid/DFT substrate tests: construction, derivatives, convolution."""

import math

import numpy as np
import pytest

from levymfg.errors import (
    GridMismatchError,
    UnsupportedOrderError,
)
from levymfg.grid import (
    Field,
    Grid,
    _nyquist_shell_max,
    boundary_shell_mass,
    periodic_convolve,
    spectral_derivative,
)


def gaussian_1d(grid, sigma, center=0.0, height=None):
    x = grid.axis(0)
    h = height if height is not None else 1.0 / (sigma * math.sqrt(2 * math.pi))
    return Field(grid, h * np.exp(-((x - center) ** 2) / (2 * sigma**2)))


class TestGridConstruction:
    def test_spacing_identity(self):
        g = Grid((64,), (3.0,))
        assert g.dx[0] * g.n[0] == 2 * g.half_width[0]

    def test_axis_endpoints(self):
        g = Grid((16,), (2.0,))
        x = g.axis(0)
        assert x[0] == -2.0
        assert x[-1] == pytest.approx(2.0 - g.dx[0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid((48,), (1.0,))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            Grid((4,), (1.0,))

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Grid((16,), (0.0,))

    def test_2d_shape(self):
        g = Grid((16, 32), (1.0, 2.0))
        assert g.shape == (16, 32)
        assert g.dims == 2
        assert g.cell_volume == pytest.approx(g.dx[0] * g.dx[1])

    def test_wavenumbers_are_pi_k_over_L(self):
        g = Grid((16,), (2.0,))
        xi = g.wavenumber(0)
        # FFT storage order: k = 0, 1, ..., 7, -8, ..., -1
        assert xi[1] == pytest.approx(math.pi / 2.0)
        assert xi[8] == pytest.approx(-8 * math.pi / 2.0)


class TestSpectralDerivative:
    def test_sine_first_derivative(self):
        L = 2.5
        g = Grid((64,), (L,))
        f = Field.from_function(g, lambda x: np.sin(math.pi * x / L))
        df = spectral_derivative(f, 1)
        expect = (math.pi / L) * np.cos(math.pi * g.axis(0) / L)
        assert np.max(np.abs(df.values - expect)) <= 1e-10

    def test_constant_derivative_zero(self):
        g = Grid((16,), (1.0,))
        f = Field.constant(g, 4.2)
        for beta in (1, 2, 3, 4):
            assert spectral_derivative(f, beta).max_norm <= 1e-12

    def test_gaussian_second_derivative_vs_finite_differences(self):
        # Oracle: centered second differences, O(dx^2) accurate.
        g = Grid((256,), (6.0,))
        f = gaussian_1d(g, sigma=0.8)
        d2 = spectral_derivative(f, 2)
        v = f.values
        dx = g.dx[0]
        fd = (np.roll(v, -1) - 2 * v + np.roll(v, 1)) / dx**2
        # FD error is dx^2 * ||f''''||/12 to leading order; spectral is
        # near-exact, so their gap must obey the classical FD bound.
        f4 = spectral_derivative(f, 4).max_norm
        assert np.max(np.abs(d2.values - fd)) <= dx**2 * f4

    def test_rejects_order_5(self):
        g = Grid((16,), (1.0,))
        f = Field.constant(g, 1.0)
        with pytest.raises(UnsupportedOrderError):
            spectral_derivative(f, 5)

    def test_2d_mixed_partial(self):
        g = Grid((32, 32), (2.0, 2.0))
        f = Field.from_function(
            g, lambda x, y: np.sin(math.pi * x / 2) * np.cos(math.pi * y / 2))
        dxy = spectral_derivative(f, (1, 1))
        x, y = g.meshgrid()
        expect = (math.pi / 2) ** 2 * np.cos(math.pi * x / 2) * (-np.sin(math.pi * y / 2))
        assert np.max(np.abs(dxy.values - expect)) <= 1e-10


class TestConvolution:
    def test_delta_identity(self):
        g = Grid((64,), (2.0,))
        rng = np.random.default_rng(7)
        f = Field(g, rng.standard_normal(64))
        delta = np.zeros(64)
        delta[g.nearest_index(0.0)[0]] = 1.0 / g.cell_volume  # mass-1 delta
        out = periodic_convolve(f, Field(g, delta))
        assert np.max(np.abs(out.values - f.values)) <= 1e-10

    def test_gaussian_variance_addition(self):
        # Oracle: Gaussian(s1) * Gaussian(s2) = Gaussian(sqrt(s1^2+s2^2)),
        # closed form cross-checked by direct quadrature at one point.
        g = Grid((512,), (8.0,))
        s1, s2 = 0.5, 0.7
        f = gaussian_1d(g, s1)
        h = gaussian_1d(g, s2)
        out = periodic_convolve(f, h)
        s3 = math.hypot(s1, s2)
        expect = gaussian_1d(g, s3)
        assert np.max(np.abs(out.values - expect.values)) <= 1e-8
        # quadrature cross-check of the closed form at a grid point
        idx = g.nearest_index(0.3)[0]
        x0 = g.axis(0)[idx]
        y = g.axis(0)
        h_exact = np.exp(-((x0 - y) ** 2) / (2 * s2**2)) / (s2 * math.sqrt(2 * math.pi))
        direct = g.cell_volume * float(np.sum(f.values * h_exact))
        assert abs(direct - expect.values[idx]) <= 1e-10
        assert abs(out.values[idx] - direct) <= 1e-8

    def test_commutativity_bitwise(self):
        g = Grid((32,), (1.0,))
        rng = np.random.default_rng(3)
        f = Field(g, rng.standard_normal(32))
        h = Field(g, rng.standard_normal(32))
        a = periodic_convolve(f, h)
        b = periodic_convolve(h, f)
        assert np.array_equal(a.values, b.values)

    def test_grid_mismatch_rejected(self):
        f = Field.constant(Grid((16,), (1.0,)), 1.0)
        h = Field.constant(Grid((32,), (1.0,)), 1.0)
        with pytest.raises(GridMismatchError):
            periodic_convolve(f, h)

    def test_derivative_commutes_with_convolution(self):
        g = Grid((128,), (4.0,))
        f = gaussian_1d(g, 0.5)
        h = gaussian_1d(g, 0.8, center=0.4)
        left = spectral_derivative(periodic_convolve(f, h), 1)
        right = periodic_convolve(spectral_derivative(f, 1), h)
        assert np.max(np.abs(left.values - right.values)) <= 1e-10


class TestNyquistShell:
    def test_batch_rows_match_single_spectra_2d(self):
        # rows reduce over the trailing grid axes only, in both layouts
        rng = np.random.default_rng(5)
        g = Grid((8, 16), (1.0, 2.0))
        values = rng.standard_normal((3, 2, 8, 16))
        for spec in (np.fft.rfftn(values, axes=(-2, -1)),
                     np.fft.fftn(values, axes=(-2, -1))):
            batch = _nyquist_shell_max(g, spec)
            assert batch.shape == (3, 2)
            for row in np.ndindex(3, 2):
                single = _nyquist_shell_max(g, spec[row])
                assert single.shape == ()
                assert batch[row] == single
                planes = np.concatenate([np.abs(spec[row][4]),
                                         np.abs(spec[row][:, 8])])
                assert single == np.max(planes)

    def test_single_spectrum_1d(self):
        g = Grid((16,), (2.0,))
        spec = np.arange(9.0) - 4.0j
        assert _nyquist_shell_max(g, spec) == abs(spec[8])


class TestBoundaryMonitor:
    def test_centered_bump_negligible(self):
        g = Grid((128,), (8.0,))
        f = gaussian_1d(g, 0.5)
        assert boundary_shell_mass(f) < 1e-6

    def test_edge_bump_flags(self):
        g = Grid((128,), (8.0,))
        f = gaussian_1d(g, 0.5, center=7.5)
        assert boundary_shell_mass(f) > 1e-3
