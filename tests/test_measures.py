"""Measures, the bounded-Lipschitz metric, mollification, and tightness.

Oracles
-------
* dense LP: the metric's defining program with one constraint per node pair
  (built independently, dense matrix) cross-checks the 1D chain and the 2D
  near-pair formulations.
* HiGHS on 1D grids of 8 to 1024 nodes (the dense program up to 64 nodes, a
  sparse chain program above): the 1D metric agrees to 1e-12 relative.
* adaptive quadrature: the tightness moment of the uniform law on [-1, 1]
  equals 0.5 * Int_{-1}^{1} psi = 0.0695999934791408 (frozen; quad err ~1e-15).
* closed-form deltas: d0 between two point masses is min(distance, 2).
* interleaved chain: the dynamic program on both sub-lattices interleaved,
  with a window of two points per side, on every dx; the chain must match
  it bitwise, whichever lattice it runs on.

SciPy is imported only inside the functions that call it; a fresh
interpreter checks that 1D solves load none of it and the 2D LP loads it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import linprog
from scipy.sparse import diags, vstack

from levymfg.errors import (GridMismatchError, NonFiniteFieldError,
                            ResolutionError)
from levymfg import measures as measures_module
from levymfg.grid import Field, Grid
from levymfg.levy import CGMY, FractionalLaplacian, LevyTriplet
from levymfg.measures import (
    Measure,
    SUBADDITIVITY_SLACK,
    TightnessFn,
    _chain_lattice,
    _PathSups,
    _chain_sup,
    _sup_bracket,
    d0_distance,
    d0_interval,
    mollifier_field,
    path_metric,
    psi_profile,
    signed_dual_norm,
    verify_psi_jump_moment,
)
from oracles import (generalized_moment, laplacian_triplet, mollify,
                     periodic_convolve, point_mass, tv_distance,
                     uncapped_chain_sup, uniform_measure, w1_distance_1d)

UNIFORM_PSI_MOMENT = 0.0695999934791408  # 0.5 * quad(psi, -1, 1), frozen
SOURCE = Path(__file__).resolve().parents[1] / "src"

# Imports every levymfg module, runs a 1D coupled solve and a 1D master
# residual (jumps plus Brownian part), reports the SciPy modules loaded,
# then takes one 2D metric between the densities saved in argv[1].
LAZY_SCIPY_SCRIPT = """
import importlib, json, pkgutil, sys
import numpy as np
import levymfg
for info in pkgutil.iter_modules(levymfg.__path__):
    importlib.import_module("levymfg." + info.name)
from levymfg.coupling import Conv, Zero
from levymfg.grid import Field, Grid
from levymfg.hjb import QuadraticHamiltonian
from levymfg.kernels import KernelCache
from levymfg.levy import FractionalLaplacian, LevyTriplet
from levymfg.master import Scenario, master_residual
from levymfg.measures import Measure, d0_distance
from levymfg.mfg import MfgProblem, solve_mfg

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

grid = Grid(16, 2.0)
kernel = KernelCache(LevyTriplet(diffusion=0.1 * np.eye(1),
                                 jumps=FractionalLaplacian(1.5)), grid)
bump = Field.from_function(grid, lambda x: np.where(
    x * x < 1.0, 0.25 * np.exp(-1.0 / np.maximum(1.0 - x * x, 1e-300)),
    0.0))
m0 = Measure.normalized(Field.from_function(grid, lambda x: np.exp(-2 * x * x)))
solution = solve_mfg(MfgProblem(kernel, QuadraticHamiltonian(0.5), Conv(bump),
                                Zero(), m0, 0.0, 0.5, 16))
scenario = Scenario(kernel, QuadraticHamiltonian(0.5), Conv(bump), Zero(),
                    0.5, 0.03125)
report = master_residual(scenario, 0.25, m0, [(0.0,), (0.5,)])
after_1d = scipy_modules()
pair = np.load(sys.argv[1])
plane = Grid((8, 8), (1.0, 1.0))
d0 = d0_distance(Measure(Field(plane, pair[0])), Measure(Field(plane, pair[1])))
print(json.dumps({"converged": solution.converged,
                  "residual": report.sup_grid, "after_1d": after_1d,
                  "optimize": "scipy.optimize" in sys.modules, "d0": d0}))
"""


def dense_lp_oracle(grid, a_vals, b_vals):
    """All-pairs LP for the metric, built densely and independently.

    Every node pair of any grid gets the constraint |phi_j - phi_k| <= its
    Euclidean distance; nothing is dropped at the cap 2.
    """
    pts = np.stack([x.ravel() for x in grid.meshgrid()], axis=1)
    n = pts.shape[0]
    w = grid.cell_volume * (np.ravel(b_vals) - np.ravel(a_vals))
    rows = []
    rhs = []
    for j in range(n):
        for k in range(j + 1, n):
            r = np.zeros(n)
            r[j], r[k] = 1.0, -1.0
            dist = float(np.sqrt(np.sum((pts[j] - pts[k]) ** 2)))
            rows.append(r)
            rhs.append(dist)
            rows.append(-r)
            rhs.append(dist)
    res = linprog(-w, A_ub=np.array(rows), b_ub=np.array(rhs),
                  bounds=(-1.0, 1.0), method="highs")
    assert res.success
    return float(-res.fun)


def chain_lp_oracle(grid, weights):
    """HiGHS on the 1D program with chain constraints only, built sparsely.

    The objective is scaled to unit maximum first, so the solver's dual
    tolerance cannot stop it at a suboptimal vertex.
    """
    n = grid.n[0]
    scale = float(np.max(np.abs(weights)))
    diff = diags([np.ones(n - 1), -np.ones(n - 1)], [1, 0], shape=(n - 1, n))
    res = linprog(-np.asarray(weights) / scale, A_ub=vstack([diff, -diff]),
                  b_ub=np.full(2 * (n - 1), grid.dx[0]),
                  bounds=(-1.0, 1.0), method="highs")
    assert res.success
    return scale * float(-res.fun)


def highs_oracle_1d(grid, a_vals, b_vals):
    """sup (b - a).phi by HiGHS: all pairs up to 64 nodes, the chain above."""
    w = grid.cell_volume * (np.ravel(b_vals) - np.ravel(a_vals))
    if grid.n[0] > 64:
        return chain_lp_oracle(grid, w)
    scale = float(np.max(np.abs(w)))
    return scale * dense_lp_oracle(grid, np.ravel(a_vals) / scale,
                                   np.ravel(b_vals) / scale)


def interleaved_chain_oracle(weights, dx):
    """The chain program on the interleaved lattice {1 - k dx} u {-1 + k dx}.

    Slices first, as ``_chain_sup`` takes them.  Sorted, the two
    sub-lattices alternate, so the points within dx of a lattice point are
    the two on either side of it, even where the sub-lattices coincide.
    """
    k = np.arange(int(2.0 / dx) + 1)
    lattice = np.empty(2 * k.size)
    lattice[0::2] = np.minimum(-1.0 + k * dx, 1.0)
    lattice[1::2] = np.maximum(1.0 - k[::-1] * dx, -1.0)
    best = np.full((weights.shape[0], lattice.size + 4), -np.inf)
    core = best[:, 2:-2]
    np.multiply(weights[:, :1], lattice, out=core)
    for j in range(1, weights.shape[1]):
        pair = np.maximum(best[:, :-1], best[:, 1:])
        triple = np.maximum(pair[:, :-1], pair[:, 1:])
        np.maximum(triple[:, :-2], triple[:, 2:], out=core)
        core += weights[:, j:j + 1] * lattice
    return core.max(axis=1)


def random_measure(grid, seed, smooth=False):
    rng = np.random.default_rng(seed)
    vals = rng.random(grid.shape) + 0.1
    if smooth:
        x = grid.meshgrid()[0]
        vals = vals * 0.1 + np.exp(-x ** 2)
    vals /= vals.sum() * grid.cell_volume
    return Measure(Field(grid, vals))


class TestMeasureType:
    def test_tiny_negatives_clamped(self):
        grid = Grid(64, 2.0)
        vals = np.full(grid.shape, 1.0 / 4.0)
        vals[3] = -5e-15
        vals[4] += 0.25 + 5e-15  # keep the mass budget
        m = Measure(Field(grid, vals))
        assert m.values[3] == 0.0
        assert float(np.min(m.values)) >= 0.0

    def test_negative_density_rejected(self):
        grid = Grid(64, 2.0)
        vals = np.full(grid.shape, 1.0 / 4.0)
        vals[0] = -1e-6
        with pytest.raises(ValueError):
            Measure(Field(grid, vals))

    def test_wrong_mass_rejected(self):
        grid = Grid(64, 2.0)
        with pytest.raises(ValueError):
            Measure(Field.constant(grid, 1.0))  # mass 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_density_rejected(self, bad):
        # a NaN node used to pass: the sign and mass checks compare false
        grid = Grid(16, 2.0)
        vals = np.full(grid.shape, 0.25)
        vals[5] = bad
        with pytest.raises(NonFiniteFieldError,
                           match="density has 1 non-finite"):
            Measure.from_values(grid, vals)

    def test_delta_and_uniform(self):
        grid = Grid(64, 2.0)
        d = point_mass(grid, (0.5,))
        assert d.density.integral() == pytest.approx(1.0, abs=1e-12)
        assert int(np.count_nonzero(d.values)) == 1
        u = uniform_measure(grid, -1.0, 1.0)
        assert u.density.integral() == pytest.approx(1.0, abs=1e-12)

    def test_normalized(self):
        grid = Grid(64, 2.0)
        m = Measure.normalized(Field.from_function(grid, lambda x: np.exp(-x ** 2)))
        assert abs(m.density.integral() - 1.0) <= 1e-12

    def test_normalized_rejects_a_massless_field(self):
        with pytest.raises(ValueError, match="^cannot normalize a field "
                                             "with nonpositive mass$"):
            Measure.normalized(Field.constant(Grid(16, 2.0), 0.0))


class TestD0Distance:
    def test_identical_measures(self):
        grid = Grid(64, 2.0)
        m = random_measure(grid, 0)
        assert d0_distance(m, m) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_a_bare_array(self):
        m = random_measure(Grid(16, 2.0), 0)
        with pytest.raises(TypeError, match="^expected a Measure or Field$"):
            d0_distance(m.values, m)

    def test_deltas_1d(self):
        grid = Grid(128, 4.0)
        close = d0_distance(point_mass(grid, (-0.5,)),
                            point_mass(grid, (0.75,)))
        assert close == pytest.approx(1.25, abs=1e-7)
        far = d0_distance(point_mass(grid, (-3.0,)), point_mass(grid, (3.0,)))
        assert far == pytest.approx(2.0, abs=1e-7)

    def test_chain_matches_dense_oracle(self):
        grid = Grid(32, 2.0)
        rng = np.random.default_rng(7)
        a = rng.random(32) + 0.1
        a /= a.sum() * grid.cell_volume
        b = rng.random(32) + 0.1
        b /= b.sum() * grid.cell_volume
        mine = d0_distance(Field(grid, a), Field(grid, b))
        oracle = dense_lp_oracle(grid, a, b)
        assert abs(mine - oracle) <= 1e-9

    def test_mass_mismatch_rejected(self):
        grid = Grid(64, 2.0)
        with pytest.raises(ValueError, match="mass"):
            d0_distance(Field.constant(grid, 0.25), Field.constant(grid, 0.5))

    def test_grid_mismatch_rejected(self):
        with pytest.raises(GridMismatchError):
            d0_distance(Field.constant(Grid(64, 2.0), 0.25),
                        Field.constant(Grid(128, 2.0), 0.125))

    def test_symmetry(self):
        grid = Grid(64, 2.0)
        a, b = random_measure(grid, 1), random_measure(grid, 2)
        assert abs(d0_distance(a, b) - d0_distance(b, a)) <= 1e-9

    def test_signed_difference_norm(self):
        grid = Grid(64, 2.0)
        a, b = random_measure(grid, 3), random_measure(grid, 4)
        delta = Field(grid, b.values - a.values)
        zero = Field.constant(grid, 0.0)
        assert abs(d0_distance(delta, zero) - d0_distance(a, b)) <= 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seeds=st.tuples(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                           st.integers(0, 10 ** 6)))
    def test_triangle_inequality(self, seeds):
        grid = Grid(64, 2.0)
        a, b, c = (random_measure(grid, s) for s in seeds)
        assert d0_distance(a, c) <= d0_distance(a, b) + d0_distance(b, c) + 1e-9

    def test_homogeneous_at_tiny_amplitude(self):
        # Differences near a solver's dual tolerance must not collapse to
        # zero: the metric is positively homogeneous in the signed
        # difference, so d0(m, m + s*w) / s is scale-free.
        grid = Grid(64, 2.0)
        base = np.exp(-grid.axis(0) ** 2)
        base /= base.sum() * grid.cell_volume
        pert = np.sin(np.pi * grid.axis(0) / 2.0)
        pert -= pert.mean()
        gaps = []
        for amp in (1e-6, 1e-2):
            gaps.append(d0_distance(
                Field(grid, base), Field(grid, base + amp * pert)) / amp)
        assert gaps[0] > 1e-7
        assert abs(gaps[0] - gaps[1]) <= 1e-9 * gaps[1]

    def test_dominated_by_tv_and_w1(self):
        grid = Grid(128, 4.0)
        a, b = random_measure(grid, 5), random_measure(grid, 6)
        d0 = d0_distance(a, b)
        assert d0 <= 2.0 * tv_distance(a, b) + 1e-9
        assert d0 <= w1_distance_1d(a, b) + 1e-9

    def test_deltas_2d_exact(self):
        grid = Grid((16, 16), (1.0, 1.0))
        a = point_mass(grid, (-0.5, -0.25))
        b = point_mass(grid, (0.25, 0.5))
        expected = np.hypot(0.75, 0.75)
        assert d0_distance(a, b) == pytest.approx(expected, abs=1e-7)

    def test_deltas_2d_capped(self):
        grid = Grid((16, 16), (1.0, 1.0))
        a = point_mass(grid, (-0.875, -0.875))
        b = point_mass(grid, (0.875, 0.875))
        assert d0_distance(a, b) == pytest.approx(2.0, abs=1e-7)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_2d_pairs_match_dense_oracle(self, seed):
        # 8x8 nodes on half-width 1: the corner pairs lie beyond the cap 2,
        # so the oracle also checks that dropping them loses nothing.
        grid = Grid((8, 8), (1.0, 1.0))
        a, b = random_measure(grid, seed), random_measure(grid, seed + 100)
        oracle = dense_lp_oracle(grid, a.values, b.values)
        assert abs(d0_distance(a, b) - oracle) <= 1e-9
        rng = np.random.default_rng(seed)
        f = Field(grid, rng.standard_normal(grid.shape))
        zero = np.zeros(grid.shape)
        assert abs(signed_dual_norm(f) - dense_lp_oracle(
            grid, zero, f.values)) <= 1e-9

    def test_2d_fine_grid_interval(self):
        grid = Grid((64, 64), (1.0, 1.0))
        xg, yg = grid.meshgrid()
        a = Measure.normalized(Field(grid, np.exp(-4 * ((xg + 0.3) ** 2 + yg ** 2))))
        b = Measure.normalized(Field(grid, np.exp(-4 * ((xg - 0.3) ** 2 + yg ** 2))))
        lo, hi = d0_interval(a, b)
        assert 0.0 <= lo <= hi
        assert hi <= 2.0 * tv_distance(a, b) + 1e-9
        # translated bumps are certifiably far apart, and the bracket is tight
        # measured: 0.55882 (uncentred coarse nodes gave 0.55828, the
        # periodic lift 0.0360)
        assert lo >= 0.5585
        assert hi - lo <= 8e-4  # measured: 7.20e-4 (uncentred: 1.26e-3)
        assert d0_distance(a, b) == pytest.approx(hi)

    @pytest.mark.parametrize("grid", [Grid(64, 2.0), Grid((8, 8), (1.0, 1.0))],
                             ids=["1d", "8x8"])
    def test_exact_configurations_give_a_degenerate_bracket(self, grid):
        # the chain program (1D) and the linear program (8x8) are exact, so
        # the bracket is (d, d) with d the distance itself, bit for bit
        a, b = random_measure(grid, 3), random_measure(grid, 4)
        d = d0_distance(a, b)
        assert d > 0.0
        assert [np.float64(v).tobytes() for v in d0_interval(a, b)] \
            == [np.float64(d).tobytes()] * 2


CHAIN_SIZES = [8, 16, 64, 256, 1024]
# 0.9, 1.7 and 3.0 give spacings dx that do not divide 2, so the two
# sub-lattices differ; at 2.0 they coincide bitwise
CHAIN_HALF_WIDTHS = [0.9, 1.7, 2.0, 3.0]


@pytest.mark.parametrize("half_width", CHAIN_HALF_WIDTHS)
@pytest.mark.parametrize("n", CHAIN_SIZES)
class TestChainAgainstHighs:
    """The 1D metric against HiGHS to 1e-12 relative on every grid size."""

    def test_random_pair(self, n, half_width):
        grid = Grid(n, half_width)
        a, b = random_measure(grid, n), random_measure(grid, n + 1)
        oracle = highs_oracle_1d(grid, a.values, b.values)
        assert abs(d0_distance(a, b) - oracle) <= 1e-12 * oracle

    def test_signed_field_at_every_scale(self, n, half_width):
        # 1e-7 and 1e-12 sit at and far below the solver's tolerances
        grid = Grid(n, half_width)
        f = np.random.default_rng(n).standard_normal(n)
        oracle = highs_oracle_1d(grid, np.zeros(n), f)
        for scale in (1.0, 1e-7, 1e-12):
            norm = signed_dual_norm(Field(grid, scale * f))
            assert abs(norm - scale * oracle) <= 1e-12 * scale * oracle

    def test_delta_pair(self, n, half_width):
        grid = Grid(n, half_width)
        x = grid.axis(0)
        a = point_mass(grid, (x[n // 8],))
        b = point_mass(grid, (x[n - 1],))
        oracle = highs_oracle_1d(grid, a.values, b.values)
        assert abs(d0_distance(a, b) - oracle) <= 1e-12 * oracle
        closed_form = min(x[n - 1] - x[n // 8], 2.0)
        assert d0_distance(a, b) == pytest.approx(closed_form, rel=1e-12)

    def test_zero_weights(self, n, half_width):
        grid = Grid(n, half_width)
        m = random_measure(grid, n)
        assert d0_distance(m, m) == 0.0
        assert signed_dual_norm(Field.constant(grid, 0.0)) == 0.0

    def test_batch_bitwise_matches_interleaved_oracle(self, n, half_width):
        grid = Grid(n, half_width)
        rng = np.random.default_rng(n)
        weights = rng.standard_normal((4, n)) * [[1.0], [1e-7], [1e-12], [0]]
        assert np.array_equal(_chain_sup(weights, grid.dx[0]),
                              interleaved_chain_oracle(weights, grid.dx[0]))


def narrow_box_weights(n):
    """Signed rows at three scales, a zero row, a delta pair, a smooth gap."""
    rng = np.random.default_rng(n)
    weights = rng.standard_normal((7, n)) * [[1.0], [1e-7], [1e-12], [0],
                                             [0], [1.0], [0]]
    weights[4, [0, -1]] = [1.0, -1.0]
    x = np.linspace(-1.0, 1.0, n)
    weights[6] = np.exp(-8.0 * (x - 0.2) ** 2) - np.exp(-8.0 * (x + 0.3) ** 2)
    return weights


class TestNarrowBoxChain:
    """Half-widths below 1, where the lattice outgrows the nodes.

    There 2/dx > n - 1 lattice steps, so most lattice points lie farther
    from +-1 than a test function can climb over the chain.  The program
    still runs on the whole lattice, about 4/dx points, and must equal the
    node-by-node oracle bitwise.
    """

    # dx = 1/128, 1/512 and 1/64 are dyadic: one lattice copy.  At 0.3,
    # 0.75 and 0.6 the sorted sub-lattices interleave.  At 0.1 and 0.05,
    # 2/dx is whole but dx is not dyadic: each value has two copies that
    # differ by rounding.
    @pytest.mark.parametrize("n, half_width", [
        (64, 0.25), (256, 0.25), (64, 0.5), (64, 0.3), (64, 0.75),
        (256, 0.6), (64, 0.1), (256, 0.05)])
    def test_matches_uncapped_program(self, n, half_width):
        dx = Grid(n, half_width).dx[0]
        lattice, reach = _chain_lattice(dx)
        assert lattice.size == reach * (int(2.0 / dx) + 1) > 2 * n
        weights = narrow_box_weights(n)
        assert np.array_equal(_chain_sup(weights, dx),
                              uncapped_chain_sup(weights, dx))

    @pytest.mark.parametrize("half_width", [0.25, 0.75])
    def test_narrow_box_against_highs(self, half_width):
        grid = Grid(64, half_width)
        a, b = random_measure(grid, 64), random_measure(grid, 65)
        oracle = highs_oracle_1d(grid, a.values, b.values)
        assert abs(d0_distance(a, b) - oracle) <= 1e-12 * oracle

    def test_benchmark_sized_grids_keep_the_whole_lattice(self):
        # half-width 2: dx = 1/16 and 1/4 are dyadic, one lattice copy
        for n in (64, 16):
            dx = Grid(n, 2.0).dx[0]
            lattice, reach = _chain_lattice(dx)
            assert reach == 1 and lattice.size == int(2.0 / dx) + 1


class TestPathMetric:
    """One call for every slice of a path, equal to the per-slice calls."""

    @pytest.mark.parametrize(
        "grid", [Grid(64, 1.7), Grid(64, 2.0), Grid((8, 8), (1.0, 1.0))],
        ids=["1d", "1d-dyadic", "2d"])
    def test_rows_bitwise_match_single_calls(self, grid):
        path = np.stack([random_measure(grid, s).values for s in range(5)])
        ref = np.stack([random_measure(grid, s + 50).values for s in range(5)])
        distances = path_metric(grid, path, ref)
        norms = path_metric(grid, path - ref)
        for k in range(5):
            assert distances[k] == d0_distance(Field(grid, path[k]),
                                               Field(grid, ref[k]))
            assert norms[k] == signed_dual_norm(Field(grid, path[k] - ref[k]))

    def test_bad_slice_mass_rejected(self):
        grid = Grid(64, 2.0)
        path = np.stack([random_measure(grid, s).values for s in range(4)])
        ref = path[::-1].copy()
        ref[2] *= 1.5
        with pytest.raises(ValueError, match="total masses differ by"):
            path_metric(grid, path, ref)

    def test_grid_mismatch_rejected(self):
        grid = Grid(64, 2.0)
        path = np.full((3, 64), 0.25)
        with pytest.raises(GridMismatchError):
            path_metric(Grid(128, 2.0), path)
        with pytest.raises(GridMismatchError):
            path_metric(grid, path, path[:2])


# (nodes, half-width): dyadic, non-dyadic, and a narrow box where the
# chain lattice outgrows the nodes (2/dx = 256 points against n = 64)
SUP_GRIDS = [(64, 2.0), (16, 1.7), (64, 0.25)]


def sup_case(grid, seed, slices, scale, reference, equal, zero_tail,
             mass_gap):
    """A random 1D path (and reference) for ``path_sup``.

    Slices are signed noise plus a random bump times ``scale``; ``equal``
    repeats slice 0, ``zero_tail`` makes the last slices' weights exactly
    0, and with a reference every slice's mass gap is ``mass_gap`` times
    the 1e-8 tolerance.
    """
    rng = np.random.default_rng(seed)
    x = grid.axis(0)
    rows = [rng.normal(size=grid.shape) * rng.uniform(0.0, 1.0)
            + np.exp(-((x - rng.uniform(-1.0, 1.0)) / rng.uniform(0.05, 1.0))
                     ** 2) for _ in range(slices)]
    path = scale * np.stack(rows)
    if equal:
        path[:] = path[0]
    tail = slice(slices - zero_tail, slices)
    if reference is None:
        path[tail] = 0.0
        return path, None
    # the reference keeps each slice's mass up to the gap
    ref = path[::-1] + (path.sum(axis=1) - path[::-1].sum(axis=1))[:, None] \
        / grid.n[0]
    ref += mass_gap * 1e-8 / (grid.n[0] * grid.cell_volume)
    ref[tail] = path[tail]
    return path, ref


def path_sup(grid, path) -> float:
    """The sup of one path, recorded alone in a ``_PathSups``."""
    sups = _PathSups(grid)
    return sups.sup(sups.add(path))


def difference(path, ref):
    """``path - ref``, or ``path`` without a reference.

    The chain lattice is symmetric, so the dual norms of the difference
    are bitwise ``path_metric(grid, path, ref)``.
    """
    return path if ref is None else path - ref


class TestPathSup:
    """A path's sup is the maximum of ``path_metric``, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=st.sampled_from(SUP_GRIDS), seed=st.integers(0, 10 ** 6),
           slices=st.integers(1, 9), exponent=st.integers(-12, 1),
           reference=st.booleans(), equal=st.booleans(),
           zero_tail=st.integers(0, 3),
           mass_gap=st.sampled_from([0.0, -0.99, 0.99]),
           bounded=st.booleans())
    def test_bitwise_max_of_path_metric(self, case, seed, slices, exponent,
                                        reference, equal, zero_tail,
                                        mass_gap, bounded):
        grid = Grid(*case)
        path, ref = sup_case(grid, seed, slices, 10.0 ** exponent,
                             reference or None, equal,
                             min(zero_tail, slices), mass_gap)
        want = np.max(path_metric(grid, path, ref))
        # bounded: every path takes the bounds, however small
        with mock.patch.object(measures_module, "_BOUNDS_WORK",
                               0 if bounded else measures_module._BOUNDS_WORK):
            got = path_sup(grid, difference(path, ref))
        assert np.float64(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("slices, rows", [(33, 1), (9, 9)])
    def test_runs_the_program_on_the_rows_it_cannot_rule_out(
            self, chain_sup_rows, slices, rows):
        # slice k is a mix 2^(k-32) of the way from a to b: the last slice
        # alone holds the maximum, and the bounds of 33 slices of 64 nodes
        # rule out the rest; 9 slices are too few for the bounds to pay
        grid = Grid(64, 2.0)
        a, b = random_measure(grid, 1).values, random_measure(grid, 2).values
        mix = 2.0 ** np.arange(1 - slices, 1)[:, None]
        path = a + mix * (b - a)
        ref = np.broadcast_to(a, path.shape)
        got = path_sup(grid, path - ref)
        assert chain_sup_rows == [rows]
        assert got == np.max(path_metric(grid, path, ref)) > 0.0

    @pytest.mark.parametrize("reference", [False, True])
    def test_non_finite_slice_raises_as_path_metric(self, reference,
                                                    monkeypatch):
        monkeypatch.setattr(measures_module, "_BOUNDS_WORK", 0)
        grid = Grid(64, 2.0)
        path = np.stack([random_measure(grid, s).values for s in range(4)])
        ref = path[::-1].copy() if reference else None
        for bad in (np.nan, np.inf, -np.inf):
            broken = path.copy()
            broken[2, 7] = bad
            with pytest.raises(ValueError) as want:
                path_metric(grid, difference(broken, ref))
            with pytest.raises(ValueError) as got:
                path_sup(grid, difference(broken, ref))
            assert str(got.value) == str(want.value)

    def test_2d_is_the_plain_maximum(self):
        grid = Grid((8, 8), (1.0, 1.0))
        path = np.stack([random_measure(grid, s).values for s in range(3)])
        ref = path[::-1].copy()
        assert path_sup(grid, path - ref) == np.max(path_metric(grid, path,
                                                                ref))


_EPS = np.finfo(float).eps


def rival_rows(grid: Grid, first: str, second: str, ulps: int) -> np.ndarray:
    """Two slices of (nearly) equal value but very different sum |w|.

    An adjacent dipole and an alternating oscillation have value dx/2 per
    unit of sum |w|, a dipole two or more apart has 1, so at equal value
    their slacks differ up to 2/dx times (32 at dx 1/16).  The second
    slice is scaled to the first's value, off by ``ulps`` units of 2^-52.
    """
    n = grid.n[0]
    shapes = {"adjacent": np.zeros(n), "far": np.zeros(n),
              "oscillation": (-1.0) ** np.arange(n)}
    shapes["adjacent"][[20, 21]] = 1.0, -1.0
    shapes["far"][[10, 50]] = 1.0, -1.0
    rows = np.stack([shapes[first], shapes[second]])
    values = _chain_sup(grid.cell_volume * rows, grid.dx[0])
    rows[1] *= values[0] / values[1] * (1.0 + ulps * _EPS)
    return rows


class TestSupBracket:
    """``_sup_bracket`` contains the exact sup, and its rows give it."""

    @settings(max_examples=200, deadline=None)
    @given(case=st.sampled_from(SUP_GRIDS), seed=st.integers(0, 10 ** 6),
           slices=st.integers(1, 9), exponent=st.integers(-12, 1),
           reference=st.booleans(), equal=st.booleans(),
           mass_gap=st.sampled_from([0.0, -0.99, 0.99]))
    def test_contains_the_exact_sup(self, case, seed, slices, exponent,
                                    reference, equal, mass_gap):
        grid = Grid(*case)
        path, ref = sup_case(grid, seed, slices, 10.0 ** exponent,
                             reference or None, equal, 0, mass_gap)
        want = np.max(path_metric(grid, path, ref))
        with mock.patch.object(measures_module, "_BOUNDS_WORK", 0):
            lo, hi, rows = _sup_bracket(grid, difference(path, ref))
        assert 0.0 <= lo <= want <= hi
        assert np.max(_chain_sup(rows, grid.dx[0])) == want

    @pytest.mark.parametrize("ulps", [-8, -1, 0, 1, 8])
    @pytest.mark.parametrize("first, second", [
        ("adjacent", "oscillation"), ("oscillation", "adjacent"),
        ("far", "oscillation"), ("oscillation", "far")])
    def test_rivals_of_unequal_slack(self, monkeypatch, first, second, ulps):
        # the floor is widened by its own row's slack, so a row whose
        # slack is 32 times the other's cannot prune the other by rounding
        monkeypatch.setattr(measures_module, "_BOUNDS_WORK", 0)
        grid = Grid(64, 2.0)
        for scale in (1e-9, 1.0, 1e3):
            path = scale * rival_rows(grid, first, second, ulps)
            want = np.max(path_metric(grid, path))
            lo, hi, rows = _sup_bracket(grid, path)
            assert lo <= want <= hi
            assert path_sup(grid, path) == want

    def test_small_paths_and_2d_are_exact_at_once(self):
        for grid in (Grid(16, 2.0), Grid((8, 8), (1.0, 1.0))):
            path = np.stack([random_measure(grid, s).values
                             for s in range(3)])
            want = np.max(path_metric(grid, path, path[::-1]))
            lo, hi, rows = _sup_bracket(grid, path - path[::-1])
            assert lo == hi == want and len(rows) == 0


class TestPathSups:
    """Decisions on brackets equal the decisions on exact sups."""

    def test_sups_and_decisions_match_the_exact_values(self, monkeypatch):
        monkeypatch.setattr(measures_module, "_BOUNDS_WORK", 0)
        grid = Grid(64, 2.0)
        paths = [sup_case(grid, seed, 6, 10.0 ** -(seed % 4), None, False,
                          0, 0.0)[0] for seed in range(12)]
        exact = [np.max(path_metric(grid, p)) for p in paths]
        scales = [0.5 ** (k % 3) for k in range(len(paths))]
        sups = _PathSups(grid)
        for k, path in enumerate(paths):
            assert sups.add(path, scale=scales[k]) == k
            for bound in (0.0, scales[k] * exact[k], 1.0):
                assert sups.less(k, bound=bound) == (
                    scales[k] * exact[k] < bound)
        assert [sups.sup(k) for k in range(len(paths))] == exact

    def test_pending_rows_of_every_path_resolve_in_one_call(
            self, monkeypatch, chain_sup_rows):
        monkeypatch.setattr(measures_module, "_BOUNDS_WORK", 0)
        grid = Grid(64, 2.0)
        # equal slices: the bounds keep every row of both paths
        first, second = (sup_case(grid, seed, 4, 1.0, None, True, 0, 0.0)[0]
                         for seed in (1, 2))
        sups = _PathSups(grid)
        sups.add(first)
        sups.add(second)
        assert chain_sup_rows == []
        got = [sups.sup(0), sups.sup(1)]
        assert chain_sup_rows == [8]
        assert got == [np.max(path_metric(grid, p)) for p in (first, second)]


class TestSignedDualNorm:
    def test_zero_field(self):
        assert signed_dual_norm(Field.constant(Grid(64, 2.0), 0.0)) == 0.0

    def test_nonnegative_density_norm_is_mass(self):
        # All weights nonnegative, so phi = 1 everywhere is optimal and the
        # Lipschitz constraints never bind: the norm is the total mass.
        grid = Grid(64, 2.0)
        m = random_measure(grid, 3)
        assert signed_dual_norm(m.density) == pytest.approx(1.0, abs=1e-9)
        half = Field(grid, 0.5 * m.values)
        assert signed_dual_norm(half) == pytest.approx(0.5, abs=1e-9)

    def test_matches_metric_on_equal_mass_differences(self):
        grid = Grid(128, 2.0)
        a = random_measure(grid, 4, smooth=True)
        b = random_measure(grid, 5, smooth=True)
        diff = Field(grid, b.values - a.values)
        assert signed_dual_norm(diff) == pytest.approx(
            d0_distance(a, b), abs=1e-12)

    def test_negation_symmetric(self):
        grid = Grid(64, 2.0)
        f = Field.from_function(grid, lambda x: np.sin(np.pi * x) - 0.2)
        assert signed_dual_norm(f) == pytest.approx(
            signed_dual_norm(Field(grid, -f.values)), abs=1e-12)

    def test_non_finite_field_rejected(self):
        vals = np.zeros(64)
        vals[5] = np.nan
        with pytest.raises(ValueError):
            signed_dual_norm(Field(Grid(64, 2.0), vals))

    def test_2d_delta(self):
        grid = Grid((16, 16), (1.0, 1.0))
        assert signed_dual_norm(
            point_mass(grid, (0.0, 0.0)).density
        ) == pytest.approx(1.0, abs=1e-9)


class TestMollify:
    def test_delta_support_and_mass(self):
        grid = Grid(256, 2.0)
        out = mollify(point_mass(grid, (0.0,)), 0.1)
        assert abs(out.density.integral() - 1.0) <= 1e-9
        x = grid.axis(0)
        support = np.abs(x[np.abs(out.values) > 1e-13])
        assert float(np.max(support)) <= 0.1 + grid.dx[0]

    def test_d0_bound(self):
        grid = Grid(256, 2.0)
        m = random_measure(grid, 8)
        out = mollify(m, 0.1)
        assert d0_distance(out, m) <= 0.1 + grid.dx[0]

    def test_double_mollify_associativity(self):
        grid = Grid(256, 2.0)
        m = random_measure(grid, 9)
        eps = 0.1
        twice = mollify(mollify(m, eps), eps)
        eta = mollifier_field(grid, eps)
        once = periodic_convolve(m.density, periodic_convolve(eta, eta))
        assert np.max(np.abs(twice.values - once.values)) <= 1e-12

    def test_unresolvable_radius_rejected(self):
        grid = Grid(64, 2.0)  # dx = 0.0625
        with pytest.raises(ResolutionError):
            mollify(random_measure(grid, 10), 0.1)


class TestTightness:
    def test_pointwise_properties(self):
        grid = Grid(128, 8.0)
        fn = TightnessFn.on_grid(grid)
        vals = fn.psi.values
        assert float(np.min(vals)) >= 0.0
        origin = grid.nearest_index((0.0,))
        assert vals[origin] == 0.0
        x = grid.axis(0)
        right = vals[x >= 0.0]
        assert np.all(np.diff(right) >= -1e-15)  # radially nondecreasing
        assert 0.0 < fn.grad_bound < 0.5
        assert 0.0 < fn.hess_bound < 1.0

    def test_approximate_subadditivity_on_grid_pairs(self):
        grid = Grid(64, 8.0)
        x = grid.axis(0)[::4]
        xs, ys = np.meshgrid(x, x)
        deficit = psi_profile(np.abs(xs + ys)) - psi_profile(np.abs(xs)) \
            - psi_profile(np.abs(ys))
        worst = float(np.max(deficit))
        assert worst <= SUBADDITIVITY_SLACK
        assert worst > 0.05  # the slack covers a real deficit

    def test_moment_of_delta_is_zero(self):
        grid = Grid(128, 8.0)
        fn = TightnessFn.on_grid(grid)
        assert generalized_moment(point_mass(grid, (0.0,)), fn) == 0.0

    def test_moment_matches_quadrature_oracle(self):
        # Node spacing 2^-19 puts the Riemann-sum error near 1e-13, far
        # below the 1e-10 gate against adaptive quadrature.
        grid = Grid(2 ** 21, 2.0)
        fn = TightnessFn.on_grid(grid)
        m = uniform_measure(grid, -1.0, 1.0)
        live, err = quad(psi_profile, -1.0, 1.0, epsabs=1e-14, epsrel=1e-14)
        assert err < 1e-12
        assert abs(0.5 * live - UNIFORM_PSI_MOMENT) <= 1e-12
        assert abs(generalized_moment(m, fn) - UNIFORM_PSI_MOMENT) <= 1e-10

    def test_translation_subadditivity(self):
        grid = Grid(256, 8.0)
        fn = TightnessFn.on_grid(grid)
        m = Measure.normalized(
            Field.from_function(grid, lambda x: np.exp(-4 * x ** 2))
        )
        shift = 2.0
        nodes = int(round(shift / grid.dx[0]))
        shifted = Measure(Field(grid, np.roll(m.values, nodes)))
        assert generalized_moment(shifted, fn) <= generalized_moment(m, fn) \
            + float(psi_profile(shift)) + SUBADDITIVITY_SLACK

    def test_big_jump_moment_finite(self):
        assert verify_psi_jump_moment(laplacian_triplet()) == 0.0
        assert verify_psi_jump_moment(
            LevyTriplet(jumps=FractionalLaplacian(1.5))) > 0.0
        assert verify_psi_jump_moment(
            LevyTriplet(jumps=CGMY(1.0, 5.0, 5.0, 1.5))) > 0.0
        mixed = verify_psi_jump_moment(LevyTriplet(
            diffusion=np.eye(1), jumps=FractionalLaplacian(1.2)))
        assert np.isfinite(mixed) and mixed > 0.0


class TestLazyScipy:
    def test_1d_solves_load_no_scipy_and_the_2d_lp_loads_it(self, tmp_path):
        grid = Grid((8, 8), (1.0, 1.0))
        a, b = random_measure(grid, 0), random_measure(grid, 100)
        np.save(tmp_path / "pair.npy", np.stack([a.values, b.values]))
        env = dict(os.environ, PYTHONPATH=str(SOURCE))
        proc = subprocess.run(
            [sys.executable, "-c", LAZY_SCIPY_SCRIPT,
             str(tmp_path / "pair.npy")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["converged"]
        assert 0.0 < out["residual"] < 1e-3  # measured: 4.28e-4
        assert out["after_1d"] == []
        assert out["optimize"]
        oracle = dense_lp_oracle(grid, a.values, b.values)
        assert abs(out["d0"] - oracle) <= 1e-9
