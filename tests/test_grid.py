"""Grid/DFT substrate tests: construction, derivatives, convolution,
and the record format every report shares."""

import json
import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from levymfg.errors import (
    GridMismatchError,
    UnsupportedOrderError,
)
from levymfg.grid import (
    Field,
    Grid,
    _Record,
    _gradient_multipliers,
    _half_period_shift,
    _irfft,
    _nyquist_shell_max,
    _rfft,
    _value_gradient_rows,
    boundary_shell_mass,
    spectral_derivative,
)
from oracles import periodic_convolve


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

    @pytest.mark.parametrize("half_width", [
        float("inf"), float("-inf"), (2.0, float("inf"))],
        ids=["inf", "minus-inf", "inf-axis"])
    def test_rejects_non_finite_width(self, half_width):
        # an infinite box has dx == inf and NaN nodes
        with pytest.raises(ValueError,
                           match="^half_width must be positive and finite$"):
            Grid((16, 16) if isinstance(half_width, tuple) else 16,
                 half_width)

    @pytest.mark.parametrize("n, half_width, dims, message", [
        ((16, 16), (2.0,), None, "expected 2 per-axis entries, got 1"),
        ((16, 16), 2.0, 1, "expected 1 per-axis entries, got 2"),
        (16, 2.0, 3, "only d in {1, 2} is supported")],
        ids=["short-width", "long-n", "three-axes"])
    def test_rejects_bad_axis_counts(self, n, half_width, dims, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Grid(n, half_width, dims)

    @pytest.mark.parametrize("n, dims, message", [
        (16.9, None, "n must be an integer, got 16.9"),
        ("16", None, "n must be an integer, got '16'"),
        ((16, 16.0), None, "n must be an integer, got 16.0"),
        (16, 1.5, "dims must be an integer, got 1.5")],
        ids=["float", "str", "float-axis", "float-dims"])
    def test_counts_must_be_integers(self, n, dims, message):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Grid(n, 2.0, dims)

    @pytest.mark.parametrize("half_width, message", [
        ("2.0", "half_width must be a real number, got '2.0'"),
        (True, "half_width must be a real number, got True"),
        ((2.0, "2.0"), "half_width must be a real number, got '2.0'")],
        ids=["str", "bool", "str-axis"])
    def test_half_widths_must_be_real_numbers(self, half_width, message):
        # a string is refused, not parsed; a bool is refused, not read as 1
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Grid((16, 16) if isinstance(half_width, tuple) else 16,
                 half_width)

    @pytest.mark.parametrize("half_width", [
        2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2), (2, 2.0)],
        ids=["int", "float", "float64", "float32", "int64", "mixed-axes"])
    def test_real_half_widths_build_the_same_grid(self, half_width):
        dims = 2 if isinstance(half_width, tuple) else 1
        g = Grid(16, half_width, dims)
        assert g == Grid(16, 2.0, dims)
        assert all(type(li) is float for li in g.half_width)

    def test_numpy_integer_counts_build_the_same_grid(self):
        g = Grid(np.int64(16), 2.0, np.int64(1))
        assert g == Grid(16, 2.0)
        assert type(g.n[0]) is int

    def test_2d_shape(self):
        g = Grid((16, 32), (1.0, 2.0))
        assert g.shape == (16, 32)
        assert g.dims == 2
        assert g.cell_volume == pytest.approx(g.dx[0] * g.dx[1])

    @pytest.mark.parametrize("point, index", [
        (0.2, (9,)), ((0.2,), (9,)), (np.array([-2.0]), (0,)),
        (1.99, (0,))], ids=["scalar", "tuple", "array", "wraps"])
    def test_nearest_index_1d(self, point, index):
        assert Grid(16, 2.0).nearest_index(point) == index

    def test_nearest_index_2d(self):
        assert Grid(8, 1.0, dims=2).nearest_index((0.1, 0.2)) == (4, 5)

    @pytest.mark.parametrize("grid, point", [
        (Grid(16, 2.0), (0.1, 5.0)),
        (Grid(8, 1.0, dims=2), (0.1, 0.2, 0.3)),
        (Grid(8, 1.0, dims=2), (0.5,)),
        (Grid(8, 1.0, dims=2), 0.5)],
        ids=["extra-1d", "extra-2d", "short-2d", "scalar-2d"])
    def test_nearest_index_needs_one_coordinate_per_axis(self, grid, point):
        message = (f"point {point!r} does not have one coordinate per axis "
                   f"of a {grid.dims}D grid")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.nearest_index(point)

    @pytest.mark.parametrize("grid, point", [
        (Grid(16, 2.0), float("nan")),
        (Grid(16, 2.0), (float("inf"),)),
        (Grid(8, 1.0, dims=2), (0.1, float("-inf")))],
        ids=["nan-1d", "inf-1d", "inf-2d"])
    def test_nearest_index_refuses_non_finite_points(self, grid, point):
        message = f"point {point!r} has a non-finite coordinate"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            grid.nearest_index(point)

    def test_wavenumbers_are_pi_k_over_L(self):
        g = Grid((16,), (2.0,))
        xi = g.wavenumber(0)
        # FFT storage order: k = 0, 1, ..., 7, -8, ..., -1
        assert xi[1] == pytest.approx(math.pi / 2.0)
        assert xi[8] == pytest.approx(-8 * math.pi / 2.0)


GRID_CONSTANT_CASES = [Grid(16, 2.0), Grid((8, 16), (1.0, 2.0))]


class TestGridConstants:
    """Per-grid constants are built once, read-only, bit for bit."""

    @pytest.mark.parametrize("grid", GRID_CONSTANT_CASES, ids=["1d", "2d"])
    def test_meshgrid_is_cached_and_read_only(self, grid):
        mesh = grid.meshgrid()
        # an equal grid built anew shares the arrays
        again = Grid(grid.n, grid.half_width).meshgrid()
        assert all(a is b for a, b in zip(mesh, again))
        want = np.meshgrid(*[grid.axis(i) for i in range(grid.dims)],
                           indexing="ij")
        assert len(mesh) == grid.dims
        for got, ref in zip(mesh, want):
            assert np.array_equal(got, ref) and got.dtype == ref.dtype
            assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mesh[0][0] = 1.0

    @pytest.mark.parametrize("grid", GRID_CONSTANT_CASES, ids=["1d", "2d"])
    def test_value_gradient_rows_are_cached_and_read_only(self, grid):
        rows = _value_gradient_rows(grid)
        assert rows is _value_gradient_rows(grid)
        assert not rows.flags.writeable
        mults = _gradient_multipliers(grid)
        assert np.array_equal(rows, np.stack((np.ones(mults[0].shape),)
                                             + mults))

    @pytest.mark.parametrize("grid", GRID_CONSTANT_CASES, ids=["1d", "2d"])
    def test_spacing_constants_are_computed_once(self, grid):
        names = ("dims", "dx", "cell_volume", "node_count")
        first = [getattr(grid, name) for name in names]
        assert all(getattr(grid, name) is value
                   for name, value in zip(names, first))
        assert grid.dims == len(grid.n)
        assert grid.dx == tuple(2.0 * L / ni
                                for ni, L in zip(grid.n, grid.half_width))
        assert grid.cell_volume == math.prod(grid.dx)
        assert grid.node_count == math.prod(grid.n)
        # the kept values stay out of equality and hashing, so an equal
        # grid built anew still hits the caches keyed on a grid
        fresh = Grid(grid.n, grid.half_width)
        assert fresh == grid and hash(fresh) == hash(grid)
        assert _gradient_multipliers(fresh) is _gradient_multipliers(grid)


# (grid, leading batch axes): 1D shapes (n,), (k, n) and (k, d, n), and 2D;
# the smallest grids Grid admits, n = 8 and 8x8, last
TRANSFORM_CASES = [(Grid(16, 2.0), ()), (Grid(16, 2.0), (3,)),
                   (Grid(16, 2.0), (3, 2)),
                   (Grid((8, 16), (1.0, 2.0)), ()),
                   (Grid((8, 16), (1.0, 2.0)), (3,)),
                   (Grid(8, 1.0), (2,)), (Grid(8, 1.0, dims=2), (2,))]
TRANSFORM_IDS = ["1d", "1d-rows", "1d-vector-rows", "2d", "2d-rows",
                 "1d-n8", "2d-8x8"]


def _strided_last(a: np.ndarray) -> np.ndarray:
    """``a`` as every other entry of a wider buffer's last axis."""
    buffer = np.zeros(a.shape[:-1] + (2 * a.shape[-1],), dtype=a.dtype)
    view = buffer[..., ::2]
    view[...] = a
    return view


# How each transform input is laid out in memory: as drawn, reversed on its
# first axis (the march's ``[::-1]`` output), every other row of a doubled
# stack, or strided on the last axis (the complex half spectrum included).
LAYOUTS = {
    "contiguous": lambda a: a,
    "reversed": lambda a: a[::-1],
    "every-other-row": lambda a: np.repeat(a, 2, axis=0)[::2],
    "strided-last": _strided_last,
}


class TestTransformPair:
    """The grid's transform pair is numpy's n-dimensional pair, bitwise."""

    @pytest.mark.parametrize("layout", list(LAYOUTS))
    @pytest.mark.parametrize("grid, lead", TRANSFORM_CASES,
                             ids=TRANSFORM_IDS)
    def test_pair_matches_nd_transforms(self, grid, lead, layout):
        rng = np.random.default_rng(3)
        axes = tuple(range(-grid.dims, 0))
        view = LAYOUTS[layout]
        values = view(rng.standard_normal(lead + grid.shape))
        assert layout == "contiguous" or not values.flags.c_contiguous
        spec = _rfft(grid, values)
        assert np.array_equal(
            spec, np.fft.rfftn(values, s=grid.shape, axes=axes))
        # the 2D forward transform runs in place on its own output, which
        # must be a new array
        assert spec.flags.c_contiguous and not np.shares_memory(spec, values)
        # an arbitrary half spectrum too, not only a transformed field
        noise = spec + 1j * rng.standard_normal(spec.shape)
        for half in (view(spec), view(noise)):
            want = np.fft.irfftn(half, s=grid.shape, axes=axes)
            got = _irfft(grid, half)
            assert got.shape == want.shape and np.array_equal(got, want)
            assert got.flags.c_contiguous and not np.shares_memory(got, half)

    @pytest.mark.parametrize("grid, lead", TRANSFORM_CASES,
                             ids=TRANSFORM_IDS)
    def test_half_period_shift_is_the_roll(self, grid, lead):
        values = np.random.default_rng(4).standard_normal(lead + grid.shape)
        want = np.roll(values, [ni // 2 for ni in grid.n],
                       axis=tuple(range(-grid.dims, 0)))
        assert np.array_equal(_half_period_shift(grid, values), want)


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

    @pytest.mark.parametrize("beta", [(1, 0), (-1,)],
                             ids=["too-long", "negative"])
    def test_rejects_bad_multi_index(self, beta):
        f = Field.constant(Grid(16, 1.0), 1.0)
        with pytest.raises(UnsupportedOrderError, match=re.escape(
                f"bad multi-index {beta!r} for d=1")):
            spectral_derivative(f, beta)

    def test_order_zero_returns_the_field(self):
        f = gaussian_1d(Grid(16, 2.0), sigma=0.5)
        assert spectral_derivative(f, 0) is f
        assert spectral_derivative(f, (0,)) is f

    @pytest.mark.parametrize("beta, message", [
        (1.5, "beta must be an integer, got 1.5"),
        ("1", "beta must be an integer, got '1'"),
        ((1.0,), "beta must be an integer, got 1.0")],
        ids=["float", "str", "float-entry"])
    def test_orders_must_be_integers(self, beta, message):
        # a fractional order is refused, not truncated
        f = gaussian_1d(Grid(16, 2.0), sigma=0.5)
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            spectral_derivative(f, beta)

    def test_numpy_integer_order_is_the_int_order(self):
        f = gaussian_1d(Grid(64, 2.0), sigma=0.5)
        want = spectral_derivative(f, 1).values
        for beta in (np.int64(1), (np.int32(1),)):
            assert np.array_equal(spectral_derivative(f, beta).values, want)

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
            batch = _nyquist_shell_max(g, np.abs(spec))
            assert batch.shape == (3, 2)
            for row in np.ndindex(3, 2):
                single = _nyquist_shell_max(g, np.abs(spec[row]))
                assert single.shape == ()
                assert batch[row] == single
                planes = np.concatenate([np.abs(spec[row][4]),
                                         np.abs(spec[row][:, 8])])
                assert single == np.max(planes)

    def test_single_spectrum_1d(self):
        g = Grid((16,), (2.0,))
        spec = np.arange(9.0) - 4.0j
        assert _nyquist_shell_max(g, np.abs(spec)) == abs(spec[8])


class TestBoundaryMonitor:
    def test_centered_bump_negligible(self):
        g = Grid((128,), (8.0,))
        f = gaussian_1d(g, 0.5)
        assert boundary_shell_mass(f) < 1e-6

    def test_edge_bump_flags(self):
        g = Grid((128,), (8.0,))
        f = gaussian_1d(g, 0.5, center=7.5)
        assert boundary_shell_mass(f) > 1e-3


@dataclass(frozen=True)
class SampleReport(_Record):
    curve: np.ndarray
    rows: tuple
    term_sups: dict
    scale: np.float64
    bulk: Field
    passed: bool
    norms: tuple

    _record_keys = {"norms": "l1_norms"}


class TestRecord:
    def test_record_rule(self):
        g = Grid((8,), (1.0,))
        report = SampleReport(
            curve=np.array([0.5, 1.5]),
            rows=((0.2, 1e-7), (0.1, 3e-8)),
            term_sups={"hjb": np.float64(0.25), "pairs": ((1, 2),)},
            scale=np.float64(2.0),
            bulk=Field.constant(g, 1.0),
            passed=np.bool_(True),
            norms=(np.float64(3.0), 4.0),
        )
        expected = {
            "curve": [0.5, 1.5],
            "rows": [[0.2, 1e-7], [0.1, 3e-8]],
            "term_sups": {"hjb": 0.25, "pairs": [[1, 2]]},
            "scale": 2.0,
            "pass": True,
            "l1_norms": [3.0, 4.0],
        }
        record = report.to_dict()
        assert record == expected
        assert list(record) == list(expected)
        assert type(record["scale"]) is float
        assert type(record["pass"]) is bool
        assert type(record["term_sups"]["hjb"]) is float
        assert json.loads(json.dumps(record)) == expected
