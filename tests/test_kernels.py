"""Heat-kernel synthesis, semigroup application, and L1 decay certification.

Oracles
-------
* closed-form Gaussian: for the Laplacian, K_t(x) = (4 pi t)^{-1/2} e^{-x^2/4t}.
* Cauchy quadrature: for the half-Laplacian (alpha = 1) the kernel is
  recovered independently as (1/pi) Int_0^inf e^{-t xi} cos(x xi) d xi via
  adaptive quadrature, alongside the closed form (t/pi) / (t^2 + x^2).
* derivative-norm quadrature: || d/dx K_1 ||_L1 for the Gaussian equals
  1/sqrt(pi) = 0.5641895835477563, re-derived here by grid quadrature of the
  differentiated closed form.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levymfg.errors import ResolutionError, SpectralResidueError
from levymfg.grid import Field, Grid
from levymfg.kernels import KernelCache, kernel_field, semigroup_apply, verify_K_assumption
from levymfg.levy import LevyTriplet, parse_operator, symbol_eval

INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi), frozen


def gaussian_kernel(x, t):
    """Closed-form heat kernel of the (full) Laplacian d^2/dx^2."""
    return np.exp(-(x ** 2) / (4.0 * t)) / np.sqrt(4.0 * np.pi * t)


def cauchy_quadrature_oracle(x, t):
    """Inverse Fourier integral of e^{-t|xi|} by adaptive quadrature."""
    val, err = quad(
        lambda xi: np.exp(-t * xi),
        0.0,
        np.inf,
        weight="cos",
        wvar=float(x),
        epsabs=1e-13,
        epsrel=1e-13,
        limit=400,
    )
    assert err < 1e-10
    return val / np.pi


class TestKernelSynthesis:
    def test_gaussian_closed_form(self):
        grid = Grid(1024, 20.0)
        cache = KernelCache(parse_operator("laplacian"), grid)
        k = kernel_field(cache, 1.0)
        exact = gaussian_kernel(grid.axis(0), 1.0)
        assert np.max(np.abs(k.values - exact)) <= 1e-8

    def test_cauchy_closed_form_and_quadrature(self):
        # Heavy tails need a huge box to beat periodic wrap-around below 1e-6.
        grid = Grid(65536, 2000.0)
        cache = KernelCache(parse_operator("frac{1.0}"), grid)
        k = kernel_field(cache, 1.0)
        x = grid.axis(0)
        closed = (1.0 / np.pi) / (1.0 + x ** 2)
        assert np.max(np.abs(k.values - closed)) <= 1e-6
        for target in (0.0, 0.5, 2.0, 10.0):
            idx = grid.nearest_index((target,))[0]
            x_node = float(x[idx])
            oracle = cauchy_quadrature_oracle(x_node, 1.0)
            assert abs(oracle - (1.0 / np.pi) / (1.0 + x_node ** 2)) <= 1e-9
            assert abs(k.values[idx] - oracle) <= 1e-6

    def test_mass_is_one(self):
        for name in ("laplacian", "frac{1.5}", "riesz_feller{1.6}", "cgmy{1,5,5,1.5}"):
            grid = Grid(1024, 20.0)
            cache = KernelCache(parse_operator(name), grid)
            k = kernel_field(cache, 0.5)
            assert abs(k.integral() - 1.0) <= 1e-10

    def test_ringing_bounded(self):
        grid = Grid(1024, 20.0)
        cache = KernelCache(parse_operator("frac{1.5}"), grid)
        k = kernel_field(cache, 0.25)
        assert float(np.min(k.values)) >= -1e-9 * float(np.max(k.values))

    def test_adjoint_kernel_is_reflection(self):
        # Riesz-Feller is genuinely asymmetric, so this is not vacuous.
        grid = Grid(1024, 20.0)
        cache = KernelCache(parse_operator("riesz_feller{1.6}"), grid)
        k = kernel_field(cache, 0.7)
        k_adj = kernel_field(cache, 0.7, adjoint=True)
        # x_j -> -x_j is index j -> (n - j) mod n on [-L, L)
        reflected = np.roll(k.values[::-1], 1)
        assert np.max(np.abs(k_adj.values - reflected)) <= 1e-12
        assert np.max(np.abs(k.values - reflected)) > 1e-3  # asymmetry sanity

    def test_unresolved_kernel_raises_with_required_n(self):
        grid = Grid(64, 3.0)
        cache = KernelCache(parse_operator("laplacian"), grid)
        with pytest.raises(ResolutionError) as exc:
            kernel_field(cache, 1e-4)
        msg = str(exc.value)
        assert "need n >=" in msg
        assert "1024" in msg

    def test_2d_kernel_matches_product_of_1d(self):
        grid2 = Grid((128, 128), (10.0, 10.0))
        cache2 = KernelCache(parse_operator("laplacian", dims=2), grid2)
        k2 = kernel_field(cache2, 0.5)
        grid1 = Grid(128, 10.0)
        cache1 = KernelCache(parse_operator("laplacian"), grid1)
        k1 = kernel_field(cache1, 0.5).values
        assert np.max(np.abs(k2.values - np.outer(k1, k1))) <= 1e-12


class TestSemigroupApply:
    def test_gaussian_variance_flow(self):
        grid = Grid(1024, 20.0)
        cache = KernelCache(parse_operator("laplacian"), grid)
        x = grid.axis(0)
        sigma0_sq, t = 0.25, 0.4
        f = Field(grid, np.exp(-((x - 0.3) ** 2) / (2 * sigma0_sq))
                  / np.sqrt(2 * np.pi * sigma0_sq))
        out = semigroup_apply(cache, t, f)
        sigma_sq = sigma0_sq + 2.0 * t
        exact = np.exp(-((x - 0.3) ** 2) / (2 * sigma_sq)) / np.sqrt(2 * np.pi * sigma_sq)
        assert np.max(np.abs(out.values - exact)) <= 1e-8

    @pytest.mark.parametrize(
        "name", ["laplacian", "frac{1.5}", "riesz_feller{1.6}", "cgmy{1,5,5,1.5}"]
    )
    def test_composition_identity(self, name):
        grid = Grid(512, 15.0)
        cache = KernelCache(parse_operator(name), grid)
        x = grid.axis(0)
        f = Field(grid, np.cos(np.pi * x / 15.0) + np.exp(-x ** 2))
        for s, t in ((0.1, 0.35), (0.07, 0.07), (0.4, 0.13)):
            two_step = semigroup_apply(cache, s, semigroup_apply(cache, t, f))
            one_step = semigroup_apply(cache, s + t, f)
            assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-12
        adj2 = semigroup_apply(cache, 0.2, semigroup_apply(cache, 0.1, f, adjoint=True),
                               adjoint=True)
        adj1 = semigroup_apply(cache, 0.3, f, adjoint=True)
        assert np.max(np.abs(adj2.values - adj1.values)) <= 1e-12

    def test_time_zero_is_identity(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(parse_operator("laplacian"), grid)
        f = Field.from_function(grid, np.sin)
        assert semigroup_apply(cache, 0.0, f) is f

    def test_negative_time_rejected(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(parse_operator("laplacian"), grid)
        f = Field.constant(grid, 1.0)
        with pytest.raises(ValueError):
            semigroup_apply(cache, -0.1, f)

    def test_batched_apply_matches_loop(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(parse_operator("frac{1.3}"), grid)
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((3, 256))
        smoothed = cache.apply_array(0.2, batch)
        for row in range(3):
            single = semigroup_apply(cache, 0.2, Field(grid, batch[row]))
            assert np.max(np.abs(smoothed[row] - single.values)) <= 1e-14

    def test_dc_multiplier_exactly_one(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(parse_operator("cgmy{0.7,3,6,1.3}"), grid)
        for t in (0.02, 0.17, 1.0):
            assert cache.multiplier(t)[0] == 1.0 + 0.0j

    def test_multiplier_memoized(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(parse_operator("laplacian"), grid)
        assert cache.multiplier(0.3) is cache.multiplier(0.3)

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(min_value=0.05, max_value=0.5),
           shift=st.floats(min_value=-3.0, max_value=3.0))
    def test_mass_conserved(self, t, shift):
        grid = Grid(256, 10.0)
        cache = KernelCache(parse_operator("frac{1.5}"), grid)
        f = Field.from_function(grid, lambda x: np.exp(-((x - shift) ** 2)))
        out = semigroup_apply(cache, t, f)
        assert abs(out.integral() - f.integral()) <= 1e-12


class TestResidueGuard:
    """An asymmetric symbol is not conjugate-symmetric on the Nyquist bin
    (xi = -pi/dx stands for both signs), so a real input with content there
    leaks an imaginary part that the apply must refuse.  Residues measured
    on Grid(64, 2.0) as max |Im| of the complex-FFT apply."""

    grid = Grid(64, 2.0)
    x = grid.axis(0)
    alternating = (-1.0) ** np.arange(64)
    cases = [
        # measured: 4.411e-4; the Nyquist bin alone, so exact
        ("riesz_feller{1.6}", "array", alternating, 4.410665455311339e-04, 1e-12),
        # measured: 2.678e-2
        ("cgmy{0.7,3,6,1.3}", "array", alternating, 2.6782130713610394e-02, 1e-12),
        # measured: 2.187e-5; the complex FFT adds rounding of the other
        # bins (1.5e-9 relative) to the Nyquist leak
        ("riesz_feller{1.6}", "generator", np.exp(-3.0 * x ** 2),
         2.186623038041399e-05, 1e-8),
    ]

    @staticmethod
    def _apply(name, how, values, t=0.0078125):
        cache = KernelCache(parse_operator(name), TestResidueGuard.grid)
        if how == "generator":
            return cache.apply_generator(values)
        return cache.apply_array(t, values)

    @pytest.mark.parametrize("name, how, values, residue, rel", cases)
    def test_nyquist_leak_raises_with_residue(self, name, how, values,
                                              residue, rel):
        with pytest.raises(SpectralResidueError,
                           match="imaginary residue") as exc:
            self._apply(name, how, values)
        reported = float(str(exc.value).split()[2])
        assert abs(reported - residue) <= rel * residue

    @pytest.mark.parametrize("how, values", [(how, values)
                                             for _, how, values, _, _ in cases])
    def test_symmetric_generator_never_raises(self, how, values):
        out = self._apply("frac{1.5}", how, values)
        assert np.all(np.isfinite(out))

    @pytest.mark.parametrize("name", ["riesz_feller{1.6}", "cgmy{0.7,3,6,1.3}"])
    def test_asymmetric_apply_on_resolved_inputs(self, name):
        rng = np.random.default_rng(5)
        noise = rng.standard_normal(64)
        for adjoint in (False, True):
            out = KernelCache(parse_operator(name), self.grid).apply_array(
                0.1, noise, adjoint)
            assert np.all(np.isfinite(out))

    def test_2d_leak_sums_full_spectrum_defect(self):
        # the half-layout sum, weighted by whether a bin's mirror is stored,
        # equals (1/N) sum_k |X(k)| |D(k)| over the full fftn layout and
        # bounds the imaginary part of the complex apply
        grid = Grid((8, 16), (2.0, 3.0))
        triplet = LevyTriplet(dims=2, drift=(0.7, -0.4),
                              diffusion=((1.0, 0.0), (0.0, 1.0)))
        values = np.random.default_rng(3).standard_normal(grid.shape)
        with pytest.raises(SpectralResidueError) as exc:
            KernelCache(triplet, grid).apply_array(0.05, values)
        reported = float(str(exc.value).split()[2])
        psi = symbol_eval(triplet, grid)
        psi[0, 0] = 0.0
        mult = np.exp(-0.05 * psi)
        mirror = np.roll(np.flip(mult), 1, axis=(0, 1))
        spec = np.fft.fftn(values)
        leak = np.sum(np.abs(spec) * np.abs(mult - np.conj(mirror)) / 2.0)
        assert abs(reported - leak / grid.node_count) <= 1e-12 * reported
        imaginary = np.max(np.abs(np.fft.ifftn(spec * mult).imag))
        assert imaginary <= reported

    def test_asymmetric_apply_on_narrow_bump(self):
        bump = np.exp(-8.0 * self.x ** 2)
        for how in ("array", "generator"):
            out = self._apply("riesz_feller{1.6}", how, bump)
            assert np.all(np.isfinite(out))


class TestDecayCertification:
    def test_gaussian_first_derivative_norm(self):
        grid = Grid(1024, 20.0)
        x = grid.axis(0)
        # Quadrature oracle: |d/dx K_1| for the closed-form Gaussian.  The
        # integrand has a kink at x = 0, so grid quadrature of the exact
        # closed form carries an O(dx^2) floor of ~3.6e-5 against 1/sqrt(pi);
        # the synthesized kernel must agree with the oracle far more tightly.
        oracle = grid.dx[0] * np.sum(np.abs(-x / 2.0 * gaussian_kernel(x, 1.0)))
        assert abs(oracle - INV_SQRT_PI) <= 5e-5
        report = verify_K_assumption(
            parse_operator("laplacian"), grid, (1,), [0.25, 0.5, 1.0]
        )
        norm_at_1 = report.norms[report.times.index(1.0)]
        assert abs(norm_at_1 - oracle) <= 1e-10
        assert abs(norm_at_1 - INV_SQRT_PI) <= 5e-5

    def test_laplacian_slope_beta1(self):
        grid = Grid(1024, 20.0)
        report = verify_K_assumption(
            parse_operator("laplacian"), grid, (1,), [0.0125, 0.05, 0.2, 0.8]
        )
        assert report.alpha == 2.0
        assert report.target_slope == -0.5
        assert abs(report.slope + 0.5) <= 0.02
        assert report.passed
        assert len(report.per_decade_slopes) == 3
        assert all(abs(s + 0.5) <= 0.05 for s in report.per_decade_slopes)

    def test_laplacian_slope_beta2(self):
        grid = Grid(1024, 20.0)
        report = verify_K_assumption(
            parse_operator("laplacian"), grid, (2,), [0.0125, 0.05, 0.2, 0.8]
        )
        assert abs(report.slope + 1.0) <= 0.02
        assert report.passed

    def test_fractional_slope(self):
        grid = Grid(2048, 40.0)
        report = verify_K_assumption(
            parse_operator("frac{1.5}"), grid, (1,), [0.05, 0.15, 0.45]
        )
        assert report.target_slope == pytest.approx(-2.0 / 3.0)
        assert abs(report.slope - report.target_slope) <= 0.02
        assert report.passed
        assert report.k_hat > 0.0

    def test_beta_zero_is_flat(self):
        grid = Grid(1024, 20.0)
        report = verify_K_assumption(
            parse_operator("frac{1.5}"), grid, (0,), [0.1, 0.4, 1.6]
        )
        assert abs(report.slope) <= 1e-8
        assert report.k_hat == pytest.approx(1.0, abs=1e-10)
        assert report.passed

    def test_unresolved_smallest_time_raises(self):
        grid = Grid(64, 3.0)
        with pytest.raises(ResolutionError):
            verify_K_assumption(parse_operator("laplacian"), grid, (1,), [1e-4, 1.0])

    def test_report_dict_round_trip(self):
        grid = Grid(512, 15.0)
        report = verify_K_assumption(
            parse_operator("laplacian"), grid, (1,), [0.1, 0.4]
        )
        d = report.to_dict()
        assert set(d) == {"alpha", "beta", "times", "l1_norms", "K_hat",
                          "slope", "target_slope", "per_decade_slopes", "pass"}
        assert d["pass"] is True
