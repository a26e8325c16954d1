"""Levy symbol tests: catalog closed forms vs quadrature oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levymfg.errors import QuadratureError, UnsupportedOrderError
from levymfg.grid import Grid
from levymfg.levy import (
    CGMY,
    AnisotropicStable,
    FractionalLaplacian,
    LevyTriplet,
    NumericDensity,
    RieszFeller,
    order_alpha,
    symbol_eval,
)
from oracles import laplacian_triplet, nan_core_triplet


def lk_quadrature_oracle(density_pos, density_neg, u, tail=np.inf):
    """Adaptive quadrature of Int (1 - e^{iuz} + iuz 1_{|z|<1}) nu(dz).

    Written independently of the closed forms: real and imaginary parts are
    integrated separately, oscillatory tails with QUADPACK cos/sin weights.
    """
    if u == 0.0:
        return 0.0 + 0.0j

    def one_minus_cos(x):
        s = math.sin(0.5 * x)
        return 2.0 * s * s

    def x_minus_sin(x):
        if abs(x) < 1e-3:  # series avoids cancellation
            return x**3 / 6.0 * (1.0 - x * x / 20.0 * (1.0 - x * x / 42.0))
        return x - math.sin(x)

    def one_side(nu, sgn):
        # z runs over (0, inf); the actual jump is sgn*z. The substitution
        # z = s^2 removes the algebraic endpoint singularity at 0.
        re_inner, _ = quad(
            lambda s: one_minus_cos(u * sgn * s * s) * nu(s * s) * 2 * s,
            0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-12)
        im_inner, _ = quad(
            lambda s: x_minus_sin(u * sgn * s * s) * nu(s * s) * 2 * s,
            0.0, 1.0, limit=200, epsabs=1e-13, epsrel=1e-12)
        re_t1, _ = quad(nu, 1.0, tail, limit=200)
        if np.isinf(tail):
            re_t2, _ = quad(nu, 1.0, np.inf, weight="cos", wvar=u * sgn,
                            limit=200)
            im_t, _ = quad(nu, 1.0, np.inf, weight="sin", wvar=u * sgn,
                           limit=200)
        else:
            re_t2, _ = quad(lambda z: math.cos(u * sgn * z) * nu(z), 1.0, tail,
                            weight=None, limit=400)
            im_t, _ = quad(lambda z: math.sin(u * sgn * z) * nu(z), 1.0, tail,
                           limit=400)
        return (re_inner + re_t1 - re_t2) + 1j * (im_inner - im_t)

    total = one_side(density_pos, +1)
    if density_neg is not None:
        total += one_side(density_neg, -1)
    return total


class TestCatalogSymbols:
    def test_laplacian(self):
        g = Grid((64,), (3.0,))
        t = laplacian_triplet()
        psi = symbol_eval(t, g)
        xi = g.wavenumber(0)
        assert np.max(np.abs(psi - xi**2)) <= 1e-12 * np.max(xi**2)

    def test_fractional(self):
        g = Grid((64,), (3.0,))
        t = LevyTriplet(jumps=FractionalLaplacian(1.5))
        psi = symbol_eval(t, g)
        xi = g.wavenumber(0)
        assert np.max(np.abs(psi - np.abs(xi) ** 1.5)) <= 1e-12 * np.max(np.abs(xi) ** 1.5)

    def test_anisotropic_2d(self):
        g = Grid((16, 16), (2.0, 2.0))
        t = LevyTriplet(dims=2, jumps=AnisotropicStable((1.4, 1.8)))
        psi = symbol_eval(t, g)
        x1, x2 = g.wavenumber_grids()
        expect = np.abs(x1) ** 1.4 + np.abs(x2) ** 1.8
        assert np.max(np.abs(psi - expect)) <= 1e-12 * np.max(expect)

    def test_cgmy_vs_quadrature_oracle(self):
        spec = CGMY(C=1.0, G=5.0, M=5.0, Y=1.5)
        trip = LevyTriplet(dims=1, jumps=spec)
        g = Grid((64,), (10.0,))
        psi = symbol_eval(trip, g)
        xi = g.wavenumber(0)
        for u in (0.5, 1.7, 4.3, 12.9):
            k = int(np.argmin(np.abs(xi - u)))
            oracle = lk_quadrature_oracle(
                lambda z: math.exp(-5.0 * z) * z ** (-2.5),
                lambda z: math.exp(-5.0 * z) * z ** (-2.5),
                float(xi[k]))
            assert abs(psi[k] - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_cgmy_asymmetric_vs_oracle(self):
        spec = CGMY(C=0.7, G=3.0, M=6.0, Y=1.3)
        trip = LevyTriplet(dims=1, jumps=spec)
        g = Grid((64,), (10.0,))
        psi = symbol_eval(trip, g)
        xi = g.wavenumber(0)
        k = int(np.argmin(np.abs(xi - 2.0)))
        oracle = lk_quadrature_oracle(
            lambda z: 0.7 * math.exp(-6.0 * z) * z ** (-2.3),
            lambda z: 0.7 * math.exp(-3.0 * z) * z ** (-2.3),
            float(xi[k]))
        assert abs(psi[k] - oracle) <= 1e-8 * max(1.0, abs(oracle))

    def test_riesz_feller_vs_quadrature_oracle(self):
        a = 1.6
        trip = LevyTriplet(dims=1, jumps=RieszFeller(a))
        g = Grid((64,), (10.0,))
        psi = symbol_eval(trip, g)
        xi = g.wavenumber(0)
        for u in (0.9, 3.1):
            k = int(np.argmin(np.abs(xi - u)))
            oracle = lk_quadrature_oracle(
                lambda z: z ** (-1 - a), None, float(xi[k]))
            assert abs(psi[k] - oracle) <= 1e-7 * max(1.0, abs(oracle))

    def test_numeric_density_matches_cgmy(self):
        cg = CGMY(C=1.0, G=5.0, M=5.0, Y=1.5)
        numeric = NumericDensity(density=cg.density, z_min=1e-10, z_max=40.0,
                                 nodes_inner=2000, nodes_tail=2000,
                                 alpha_low=1.5)
        g = Grid((32,), (4.0,))
        psi_closed = symbol_eval(LevyTriplet(dims=1, jumps=cg), g)
        psi_num = symbol_eval(LevyTriplet(dims=1, jumps=numeric), g)
        # log-trapezoid floor ~2e-4 relative (z_min truncation dominates)
        scale = np.maximum(1.0, np.abs(psi_closed))
        assert np.max(np.abs(psi_num - psi_closed) / scale) <= 5e-4

    def test_numeric_density_fat_tail_rejected(self):
        bad = NumericDensity(density=lambda z: np.abs(z) ** -2.5,
                             z_max=50.0, alpha_low=1.5)
        g = Grid((32,), (4.0,))
        with pytest.raises(QuadratureError):
            symbol_eval(LevyTriplet(dims=1, jumps=bad), g)

    def test_symbol_that_does_not_vanish_at_the_origin_rejected(self):
        class UnitSymbol:
            """A jump part whose symbol is 1 everywhere, xi = 0 included."""

            order = 1.5

            def symbol(self, xi):
                return np.ones(xi[0].shape, dtype=complex)

        with pytest.raises(QuadratureError,
                           match="^symbol does not vanish at xi=0: "):
            symbol_eval(LevyTriplet(jumps=(UnitSymbol(),)), Grid(32, 4.0))

    def test_negative_density_rejected(self):
        # a negative density gives Re Psi < 0: measured -1.448e+02
        bad = NumericDensity(
            density=lambda z: -np.exp(-z * z) * np.abs(z) ** -2.5,
            alpha_low=1.5)
        with pytest.raises(QuadratureError,
                           match="^symbol has negative real part: -"):
            symbol_eval(LevyTriplet(jumps=bad), Grid(32, 4.0))

    def test_non_finite_symbol_rejected(self):
        # NaN compares false, so the Psi(0) and Re Psi checks alone let
        # this symbol through: all 16 entries are NaN
        with pytest.raises(QuadratureError,
                           match="^symbol has 16 non-finite entries of 16$"):
            symbol_eval(nan_core_triplet(), Grid(16, 2.0))

    def test_drift_symbol(self):
        g = Grid((32,), (2.0,))
        t = LevyTriplet(dims=1, drift=(0.7,), diffusion=((1.0,),))
        psi = symbol_eval(t, g)
        xi = g.wavenumber(0)
        assert np.max(np.abs(psi - (xi**2 - 1j * 0.7 * xi))) <= 1e-12 * np.max(xi**2)


class TestSymbolInvariants:
    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(0.3, 1.95))
    def test_symmetric_symbols_real(self, alpha):
        g = Grid((32,), (2.0,))
        t = LevyTriplet(dims=1, jumps=FractionalLaplacian(alpha))
        psi = symbol_eval(t, g)
        assert np.max(np.abs(psi.imag)) <= 1e-12 * max(1.0, np.max(np.abs(psi)))

    def test_stable_scaling(self):
        # Psi(lambda xi) = lambda^alpha Psi(xi) across nested grids
        a = 1.5
        t = LevyTriplet(dims=1, jumps=FractionalLaplacian(a))
        g1 = Grid((32,), (4.0,))
        g2 = Grid((32,), (2.0,))  # wavenumbers are doubled
        p1 = symbol_eval(t, g1)
        p2 = symbol_eval(t, g2)
        assert np.allclose(p2, 2.0**a * p1, rtol=1e-13, atol=0)

    def test_origin_and_positivity(self):
        g = Grid((64,), (5.0,))
        for triplet in (laplacian_triplet(),
                        LevyTriplet(jumps=FractionalLaplacian(1.2)),
                        LevyTriplet(jumps=RieszFeller(1.7)),
                        LevyTriplet(jumps=CGMY(1, 5, 5, 1.5)),
                        LevyTriplet(diffusion=np.eye(1),
                                    jumps=FractionalLaplacian(1.5))):
            psi = symbol_eval(triplet, g)
            assert abs(psi[0]) <= 1e-12 * max(1.0, np.max(np.abs(psi)))
            assert np.min(psi.real) >= -1e-12 * max(1.0, np.max(np.abs(psi)))


class TestOrderAlpha:
    def test_laplacian_is_two(self):
        assert order_alpha(laplacian_triplet()) == 2.0

    def test_empty_triplet_has_no_order(self):
        with pytest.raises(UnsupportedOrderError,
                           match="^triplet has no derivable regularity "
                                 "order$"):
            order_alpha(LevyTriplet())

    def test_aniso_minimum(self):
        t = LevyTriplet(dims=2, jumps=AnisotropicStable((1.4, 1.8)))
        assert order_alpha(t) == pytest.approx(1.4)

    def test_mix_with_laplacian_forces_two(self):
        t = LevyTriplet(diffusion=np.eye(1), jumps=FractionalLaplacian(1.5))
        assert order_alpha(t) == 2.0

    def test_pure_jump_mix_takes_minimum(self):
        t = LevyTriplet(jumps=(FractionalLaplacian(1.3),
                               FractionalLaplacian(1.9)))
        assert order_alpha(t) == pytest.approx(1.3)

    def test_numeric_density_requires_declared_order(self):
        nd = NumericDensity(density=lambda z: np.exp(-np.abs(z)) / np.abs(z) ** 2.2)
        with pytest.raises(UnsupportedOrderError):
            LevyTriplet(dims=1, jumps=nd)

    def test_numeric_density_declared_order_enters_the_minimum(self):
        def declared(alpha):
            return NumericDensity(
                density=lambda z: np.exp(-np.abs(z)) / np.abs(z) ** 2.2,
                alpha_low=alpha)

        for alpha, want in ((1.2, 1.2), (1.8, 1.5)):
            t = LevyTriplet(jumps=(declared(alpha), FractionalLaplacian(1.5)))
            assert order_alpha(t) == want
        for alpha in (0.0, 2.5):
            with pytest.raises(ValueError, match="alpha_low"):
                declared(alpha)


class TestTripletValidation:
    @pytest.mark.parametrize("kwargs, message", [
        (dict(dims=3), "only d in {1, 2}"),
        (dict(drift=(1.0, 2.0)), "drift must be a length-d vector"),
        (dict(diffusion=np.eye(2)), "diffusion must be d x d"),
    ], ids=["dims", "drift-length", "diffusion-shape"])
    def test_shape_errors(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LevyTriplet(**kwargs)

    @pytest.mark.parametrize("dims", [1.7, "1"], ids=["float", "str"])
    def test_dimension_must_be_an_integer(self, dims):
        # 1.7 is refused, not truncated to 1
        with pytest.raises(TypeError, match=f"^dims must be an integer, "
                                            f"got {re.escape(repr(dims))}$"):
            LevyTriplet(dims=dims)

    def test_numpy_integer_dimension_is_the_int_dimension(self):
        got = LevyTriplet(dims=np.int64(2), diffusion=np.eye(2))
        assert got == LevyTriplet(dims=2, diffusion=np.eye(2))
        assert type(got.dims) is int

    def test_catalog_parameter_errors(self):
        with pytest.raises(ValueError, match=r"^anisotropic orders must lie "
                                             r"in \(1, 2\)$"):
            AnisotropicStable((1.5, 0.9))
        with pytest.raises(ValueError, match="^C, G, M must be positive$"):
            CGMY(C=1.0, G=0.0, M=3.0, Y=1.5)
        with pytest.raises(ValueError, match=r"^Y must lie in \(1, 2\) for "
                                             r"solver-grade orders$"):
            CGMY(C=1.0, G=2.0, M=3.0, Y=0.5)

    @pytest.mark.parametrize("jumps, message", [
        (RieszFeller(1.5), "one-sided stable jumps are one-dimensional"),
        (CGMY(C=1.0, G=2.0, M=3.0, Y=1.5), "CGMY jumps are one-dimensional"),
        (NumericDensity(lambda z: np.exp(-z * z), alpha_low=1.5),
         "numeric densities are one-dimensional")],
        ids=["riesz-feller", "cgmy", "numeric"])
    def test_line_families_refuse_a_plane(self, jumps, message):
        plane = LevyTriplet(dims=2, jumps=jumps)
        with pytest.raises(ValueError, match=f"^{message}$"):
            symbol_eval(plane, Grid((8, 8), (1.0, 1.0)))

    def test_symbol_needs_the_grid_dimension(self):
        with pytest.raises(ValueError,
                           match="^grid/triplet dimension mismatch$"):
            symbol_eval(laplacian_triplet(), Grid((8, 8), (1.0, 1.0)))

    def test_asymmetric_diffusion_rejected(self):
        with pytest.raises(ValueError):
            LevyTriplet(dims=2, diffusion=((1.0, 0.3), (0.0, 1.0)))

    def test_indefinite_diffusion_rejected(self):
        with pytest.raises(ValueError):
            LevyTriplet(dims=1, diffusion=((-0.5,),))

    def test_bad_catalog_names(self):
        with pytest.raises(ValueError):
            FractionalLaplacian(2.5)
        with pytest.raises(ValueError):
            RieszFeller(0.5)
        aniso = LevyTriplet(dims=2, jumps=AnisotropicStable((1.5,)))
        with pytest.raises(ValueError,
                           match="anisotropic spec dimension mismatch"):
            symbol_eval(aniso, Grid((8, 8), (1.0, 1.0)))
