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

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levymfg.errors import ResolutionError
from levymfg.grid import Field, Grid
from levymfg.kernels import KernelCache, kernel_field, verify_K_assumption
from levymfg.levy import (CGMY, FractionalLaplacian, LevyTriplet, RieszFeller,
                          symbol_eval)
from oracles import laplacian_triplet, semigroup_apply

INV_SQRT_PI = 0.5641895835477563  # 1/sqrt(pi), frozen

# one generator of each family, keyed by a short name
OPERATORS = {
    "laplacian": laplacian_triplet(),
    "frac{1.5}": LevyTriplet(jumps=FractionalLaplacian(1.5)),
    "riesz_feller{1.6}": LevyTriplet(jumps=RieszFeller(1.6)),
    "cgmy{1,5,5,1.5}": LevyTriplet(jumps=CGMY(1.0, 5.0, 5.0, 1.5)),
}


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
        cache = KernelCache(laplacian_triplet(), grid)
        k = kernel_field(cache, 1.0)
        exact = gaussian_kernel(grid.axis(0), 1.0)
        assert np.max(np.abs(k.values - exact)) <= 1e-8

    def test_cauchy_closed_form_and_quadrature(self):
        # Heavy tails need a huge box to beat periodic wrap-around below 1e-6.
        grid = Grid(65536, 2000.0)
        cache = KernelCache(LevyTriplet(jumps=FractionalLaplacian(1.0)), grid)
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
        for triplet in OPERATORS.values():
            grid = Grid(1024, 20.0)
            cache = KernelCache(triplet, grid)
            k = kernel_field(cache, 0.5)
            assert abs(k.integral() - 1.0) <= 1e-10

    def test_ringing_bounded(self):
        grid = Grid(1024, 20.0)
        cache = KernelCache(LevyTriplet(jumps=FractionalLaplacian(1.5)), grid)
        k = kernel_field(cache, 0.25)
        assert float(np.min(k.values)) >= -1e-9 * float(np.max(k.values))

    def test_adjoint_kernel_is_reflection(self):
        # Riesz-Feller is genuinely asymmetric, so this is not vacuous.
        grid = Grid(1024, 20.0)
        cache = KernelCache(LevyTriplet(jumps=RieszFeller(1.6)), grid)
        k = kernel_field(cache, 0.7)
        k_adj = kernel_field(cache, 0.7, adjoint=True)
        # x_j -> -x_j is index j -> (n - j) mod n on [-L, L)
        reflected = np.roll(k.values[::-1], 1)
        assert np.max(np.abs(k_adj.values - reflected)) <= 1e-12
        assert np.max(np.abs(k.values - reflected)) > 1e-3  # asymmetry sanity

    def test_unresolved_kernel_raises_with_required_n(self):
        grid = Grid(64, 3.0)
        cache = KernelCache(laplacian_triplet(), grid)
        with pytest.raises(ResolutionError) as exc:
            kernel_field(cache, 1e-4)
        msg = str(exc.value)
        assert "need n >=" in msg
        assert "1024" in msg

    def test_orderless_flat_symbol_asks_for_a_sixteenfold_grid(self):
        # Psi = 0 everywhere: the Nyquist multiplier is 1, so the decay
        # estimate has no log to scale and the triplet no order; the
        # estimate falls back to 16 times the nodes at order 1
        cache = KernelCache(LevyTriplet(), Grid(16, 2.0))
        with pytest.raises(ResolutionError, match="need n >= 256 per axis$"):
            kernel_field(cache, 0.1)

    @pytest.mark.parametrize("t", [0.0, -0.5])
    def test_nonpositive_time_rejected(self, t):
        cache = KernelCache(laplacian_triplet(), Grid(64, 3.0))
        with pytest.raises(ValueError, match="^kernel time must be positive$"):
            kernel_field(cache, t)

    def test_triplet_and_grid_dimensions_must_agree(self):
        with pytest.raises(ValueError,
                           match="^triplet dimension 2 != grid dimension 1$"):
            KernelCache(laplacian_triplet(2), Grid(64, 3.0))

    def test_2d_kernel_matches_product_of_1d(self):
        grid2 = Grid((128, 128), (10.0, 10.0))
        cache2 = KernelCache(laplacian_triplet(2), grid2)
        k2 = kernel_field(cache2, 0.5)
        grid1 = Grid(128, 10.0)
        cache1 = KernelCache(laplacian_triplet(), grid1)
        k1 = kernel_field(cache1, 0.5).values
        assert np.max(np.abs(k2.values - np.outer(k1, k1))) <= 1e-12


class TestSemigroupApply:
    def test_gaussian_variance_flow(self):
        grid = Grid(1024, 20.0)
        cache = KernelCache(laplacian_triplet(), grid)
        x = grid.axis(0)
        sigma0_sq, t = 0.25, 0.4
        f = Field(grid, np.exp(-((x - 0.3) ** 2) / (2 * sigma0_sq))
                  / np.sqrt(2 * np.pi * sigma0_sq))
        out = semigroup_apply(cache, t, f)
        sigma_sq = sigma0_sq + 2.0 * t
        exact = np.exp(-((x - 0.3) ** 2) / (2 * sigma_sq)) / np.sqrt(2 * np.pi * sigma_sq)
        assert np.max(np.abs(out.values - exact)) <= 1e-8

    @pytest.mark.parametrize("triplet", OPERATORS.values(),
                             ids=OPERATORS.keys())
    def test_composition_identity(self, triplet):
        grid = Grid(512, 15.0)
        cache = KernelCache(triplet, grid)
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
        cache = KernelCache(laplacian_triplet(), grid)
        f = Field.from_function(grid, np.sin)
        assert semigroup_apply(cache, 0.0, f) is f

    def test_negative_time_rejected(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(laplacian_triplet(), grid)
        f = Field.constant(grid, 1.0)
        with pytest.raises(ValueError):
            semigroup_apply(cache, -0.1, f)

    def test_batched_apply_matches_loop(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(LevyTriplet(jumps=FractionalLaplacian(1.3)), grid)
        rng = np.random.default_rng(11)
        batch = rng.standard_normal((3, 256))
        smoothed = cache.apply_array(0.2, batch)
        for row in range(3):
            single = semigroup_apply(cache, 0.2, Field(grid, batch[row]))
            assert np.max(np.abs(smoothed[row] - single.values)) <= 1e-14

    def test_dc_multiplier_exactly_one(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(LevyTriplet(jumps=CGMY(0.7, 3.0, 6.0, 1.3)), grid)
        for t in (0.02, 0.17, 1.0):
            assert cache.multiplier(t)[0] == 1.0 + 0.0j

    def test_multiplier_memoized(self):
        grid = Grid(256, 10.0)
        cache = KernelCache(laplacian_triplet(), grid)
        assert cache.multiplier(0.3) is cache.multiplier(0.3)

    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(min_value=0.05, max_value=0.5),
           shift=st.floats(min_value=-3.0, max_value=3.0))
    def test_mass_conserved(self, t, shift):
        grid = Grid(256, 10.0)
        cache = KernelCache(LevyTriplet(jumps=FractionalLaplacian(1.5)), grid)
        f = Field.from_function(grid, lambda x: np.exp(-((x - shift) ** 2)))
        out = semigroup_apply(cache, t, f)
        assert abs(out.integral() - f.integral()) <= 1e-12


def projected_symbol(triplet: LevyTriplet, grid: Grid) -> np.ndarray:
    """Full fftn-layout symbol, Hermitian part (Psi(k) + conj Psi(-k))/2 on
    the Nyquist planes, zero at DC."""
    axes = tuple(range(grid.dims))
    psi = symbol_eval(triplet, grid)
    psi[(0,) * grid.dims] = 0.0
    mirror = np.conj(np.roll(np.flip(psi), 1, axis=axes))
    plane = np.zeros(grid.shape, dtype=bool)
    for ax in axes:
        plane |= np.abs(grid.wavenumber_grids()[ax]) == np.pi / grid.dx[ax]
    return np.where(plane, 0.5 * (psi + mirror), psi)


class TestResidueGuard:
    """An asymmetric symbol is not conjugate-symmetric on the Nyquist planes
    (xi = -pi/dx stands for both signs).  The cache stores its Hermitian
    part there, so every apply is a real operator: the half-spectrum apply
    equals the complex ``fftn`` apply of the projected symbol, whose
    imaginary part is rounding only.  Unit-normal noise and a narrow bump
    as inputs; one ulp of the O(1) outputs is 2.2e-16."""

    grid = Grid(64, 2.0)
    x = grid.axis(0)
    alternating = (-1.0) ** np.arange(64)
    asymmetric = [
        (LevyTriplet(jumps=RieszFeller(1.6)), grid),
        (LevyTriplet(jumps=CGMY(0.7, 3.0, 6.0, 1.3)), grid),
        (LevyTriplet(dims=2, drift=(0.7, -0.4),
                     diffusion=((1.0, 0.0), (0.0, 1.0))),
         Grid((8, 16), (2.0, 3.0))),
        # the cross term xi_0 xi_1 is odd on each Nyquist plane
        (LevyTriplet(dims=2, diffusion=((1.0, 0.3), (0.3, 2.0))),
         Grid((8, 16), (2.0, 3.0))),
    ]
    asymmetric_ids = ["riesz_feller", "cgmy", "drift_2d", "cross_diffusion_2d"]

    @staticmethod
    def _inputs(grid):
        noise = np.random.default_rng(5).standard_normal(grid.shape)
        bump = np.exp(-8.0 * sum(axis ** 2 for axis in grid.meshgrid()))
        return noise, bump

    @staticmethod
    def _complex_apply(mult, values):
        out = np.fft.ifftn(np.fft.fftn(values) * mult)
        # measured: 1.6e-15 relative
        assert np.max(np.abs(out.imag)) <= 1e-14 * np.max(np.abs(out.real))
        return out.real

    @pytest.mark.parametrize("triplet, grid", asymmetric, ids=asymmetric_ids)
    def test_half_apply_matches_complex_projected_apply(self, triplet, grid):
        cache = KernelCache(triplet, grid)
        psi = projected_symbol(triplet, grid)
        for t in (0.05, 0.1, 1.0 / 128.0):
            for values in self._inputs(grid):
                for adjoint in (False, True):
                    mult = np.exp(-t * (np.conj(psi) if adjoint else psi))
                    want = self._complex_apply(mult, values)
                    got = cache.apply_array(t, values, adjoint)
                    # measured: 2.2e-16 at t = 0.05 and 0.1, 4.4e-16 at 1/128
                    assert np.max(np.abs(got - want)) <= 5e-16

    @pytest.mark.parametrize("triplet, grid", asymmetric, ids=asymmetric_ids)
    def test_semigroup_composes(self, triplet, grid):
        cache = KernelCache(triplet, grid)
        for values in self._inputs(grid):
            for adjoint in (False, True):
                twice = cache.apply_array(
                    0.03, cache.apply_array(0.02, values, adjoint), adjoint)
                once = cache.apply_array(0.05, values, adjoint)
                # measured: 3.2e-16
                assert np.max(np.abs(twice - once)) <= 6e-16

    @pytest.mark.parametrize("triplet, grid", asymmetric, ids=asymmetric_ids)
    def test_generator_matches_complex_projected_apply(self, triplet, grid):
        cache = KernelCache(triplet, grid)
        psi = projected_symbol(triplet, grid)
        for values in self._inputs(grid):
            got = cache.apply_generator(values)
            want = self._complex_apply(-psi, values)
            scale = np.max(np.abs(got))
            # measured: 5.5e-15 relative, on the bump under cgmy
            assert np.max(np.abs(got - want)) <= 1e-14 * scale

    @pytest.mark.parametrize("triplet, grid", [
        (LevyTriplet(jumps=RieszFeller(1.6)), grid),
        (LevyTriplet(drift=(0.3,), jumps=FractionalLaplacian(1.5)), grid),
        (LevyTriplet(dims=2, drift=(0.3, -0.2),
                     jumps=FractionalLaplacian(1.5)),
         Grid((8, 16), (2.0, 3.0))),
    ], ids=["riesz_feller", "drift_frac", "drift_frac_2d"])
    def test_adjoint_generator_is_the_transpose(self, triplet, grid):
        cache = KernelCache(triplet, grid)
        a, b = np.random.default_rng(3).standard_normal((2,) + grid.shape)
        adj_a = cache.apply_generator(a, adjoint=True)
        lhs = float(np.sum(adj_a * b))
        rhs = float(np.sum(a * cache.apply_generator(b)))
        # measured: at most 4.9e-17 of sum |L^T a * b| (2D)
        assert abs(lhs - rhs) <= 1e-15 * float(np.sum(np.abs(adj_a * b)))
        # and L^T is not L: measured 0.082 (drift_frac) to 0.90 (riesz)
        gap = np.max(np.abs(adj_a - cache.apply_generator(a)))
        assert gap >= 0.05 * np.max(np.abs(cache.apply_generator(a)))

    @pytest.mark.parametrize("triplet, grid", [
        (LevyTriplet(jumps=FractionalLaplacian(1.5)), grid),
        (LevyTriplet(diffusion=np.eye(1), jumps=FractionalLaplacian(1.5)),
         grid),
        (LevyTriplet(jumps=CGMY(1.0, 5.0, 5.0, 1.5)), grid),
        (LevyTriplet(dims=2, diffusion=((1.0, 0.0), (0.0, 2.0))),
         Grid((8, 16), (2.0, 3.0))),
    ], ids=["frac", "mix", "cgmy_symmetric", "diffusion_2d"])
    def test_symmetric_symbol_is_not_projected(self, triplet, grid):
        full = symbol_eval(triplet, grid)
        full[(0,) * grid.dims] = 0.0
        half = full[..., :grid.n[-1] // 2 + 1]
        assert np.array_equal(KernelCache(triplet, grid).symbol, half)

    @pytest.mark.parametrize("how, values", [
        ("array", alternating),
        ("array", np.random.default_rng(5).standard_normal(64)),
        ("generator", np.exp(-3.0 * x ** 2)),
    ])
    def test_symmetric_generator_never_raises(self, how, values):
        cache = KernelCache(LevyTriplet(jumps=FractionalLaplacian(1.5)), self.grid)
        if how == "generator":
            out = cache.apply_generator(values)
        else:
            out = cache.apply_array(0.0078125, values)
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
            laplacian_triplet(), grid, (1,), [0.25, 0.5, 1.0]
        )
        norm_at_1 = report.norms[report.times.index(1.0)]
        assert abs(norm_at_1 - oracle) <= 1e-10
        assert abs(norm_at_1 - INV_SQRT_PI) <= 5e-5

    def test_laplacian_slope_beta1(self):
        grid = Grid(1024, 20.0)
        report = verify_K_assumption(
            laplacian_triplet(), grid, (1,), [0.0125, 0.05, 0.2, 0.8]
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
            laplacian_triplet(), grid, (2,), [0.0125, 0.05, 0.2, 0.8]
        )
        assert abs(report.slope + 1.0) <= 0.02
        assert report.passed

    def test_fractional_slope(self):
        grid = Grid(2048, 40.0)
        report = verify_K_assumption(
            LevyTriplet(jumps=FractionalLaplacian(1.5)), grid, (1,), [0.05, 0.15, 0.45]
        )
        assert report.target_slope == pytest.approx(-2.0 / 3.0)
        assert abs(report.slope - report.target_slope) <= 0.02
        assert report.passed
        assert report.k_hat > 0.0

    def test_beta_zero_is_flat(self):
        grid = Grid(1024, 20.0)
        report = verify_K_assumption(
            LevyTriplet(jumps=FractionalLaplacian(1.5)), grid, (0,), [0.1, 0.4, 1.6]
        )
        assert abs(report.slope) <= 1e-8
        assert report.k_hat == pytest.approx(1.0, abs=1e-10)
        assert report.passed

    def test_unresolved_smallest_time_raises(self):
        grid = Grid(64, 3.0)
        with pytest.raises(ResolutionError):
            verify_K_assumption(laplacian_triplet(), grid, (1,), [1e-4, 1.0])

    def test_report_dict_round_trip(self):
        grid = Grid(512, 15.0)
        report = verify_K_assumption(
            laplacian_triplet(), grid, (1,), [0.1, 0.4]
        )
        d = report.to_dict()
        assert set(d) == {"alpha", "beta", "times", "l1_norms", "K_hat",
                          "slope", "target_slope", "per_decade_slopes", "pass"}
        assert d["pass"] is True

    def test_numpy_integer_beta_is_a_scalar_order(self):
        grid = Grid(512, 2.0)
        times = [0.05, 0.1, 0.2]
        report = verify_K_assumption(laplacian_triplet(), grid, np.int64(1),
                                     times)
        assert report.beta == (1,)
        assert report.to_dict() == verify_K_assumption(
            laplacian_triplet(), grid, 1, times).to_dict()
        # a fractional order is refused, not truncated to 1
        for beta in (1.5, (1.5,)):
            with pytest.raises(TypeError, match=r"^beta must be an integer, "
                                                r"got 1\.5$"):
                verify_K_assumption(laplacian_triplet(), grid, beta, times)

    @pytest.mark.parametrize("grid, beta, times, message", [
        (Grid((16, 16), (2.0, 2.0)), 1, [0.1, 0.2],
         "beta must give one order per axis in d > 1"),
        (Grid(64, 3.0), (1, 0), [0.1, 0.2],
         "beta must be a nonnegative multi-index, one entry per axis"),
        (Grid(64, 3.0), (-1,), [0.1, 0.2],
         "beta must be a nonnegative multi-index, one entry per axis"),
        (Grid(64, 3.0), (1,), [0.1],
         "need at least two times to fit a decay slope"),
        (Grid(64, 3.0), (1,), [0.0, 0.2], "kernel times must be positive"),
    ], ids=["scalar-in-2d", "too-long", "negative", "one-time", "zero-time"])
    def test_argument_checks(self, grid, beta, times, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            verify_K_assumption(laplacian_triplet(grid.dims), grid, beta,
                                times)
