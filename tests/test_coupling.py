"""Coupling maps, their measure derivatives, and monotonicity validators.

Oracles
-------
* double convolution: the composite coupling at the identity nonlinearity
  must coincide with smoothing the density twice.
* direct quadrature: composite-derivative kernel entries recomputed as an
  explicit grid sum over the intermediate variable.
* Toeplitz structure: the smoothing coupling's derivative matrix is the
  translated kernel, checked entry-by-entry with independent index algebra.
"""

import numpy as np
import pytest

from levymfg import coupling as coupling_module
from levymfg.errors import GridMismatchError, NonFiniteFieldError
from levymfg.grid import Field, Grid, gradient, periodic_convolve
from levymfg.coupling import (
    Conv,
    LocalComposite,
    Zero,
    apply_dmF,
    check_M1,
    check_M2,
    eval_F,
    eval_dmF,
    require_smooth,
    resolved_derivatives,
)
from levymfg.coupling import _action_weight, _action_weights, _eval_F_path
from levymfg.measures import Measure, mollify


def gauss_kernel(grid, sigma=0.25):
    mesh = grid.meshgrid()
    r_sq = sum(x ** 2 for x in mesh)
    return Field(grid, np.exp(-r_sq / (2.0 * sigma ** 2)))


def odd_kernel(grid, width=0.5):
    mesh = grid.meshgrid()
    r_sq = sum(x ** 2 for x in mesh) / width ** 2
    window = np.where(r_sq < 1.0,
                      np.exp(-1.0 / np.maximum(1.0 - r_sq, 1e-300)), 0.0)
    return Field(grid, np.sin(np.pi * mesh[0] / width) * window)


def power_maps(p):
    return (lambda mesh, s: np.sign(s) * np.abs(s) ** p / p,
            lambda mesh, s: np.abs(s) ** (p - 1.0))


def random_measure(grid, seed):
    rng = np.random.default_rng(seed)
    mesh = grid.meshgrid()
    vals = 0.05 + rng.random() * np.exp(
        -sum((x - rng.uniform(-0.5, 0.5)) ** 2 for x in mesh) / 0.18
    )
    return Measure.normalized(Field(grid, vals))


class TestEvalF:
    def test_zero_coupling(self):
        grid = Grid(64, 2.0)
        out = eval_F(Zero(), random_measure(grid, 0))
        assert out.max_norm == 0.0

    def test_conv_of_near_delta_recovers_kernel(self):
        grid = Grid(256, 2.0)
        phi = gauss_kernel(grid)
        coupling = Conv(phi)
        eps = 0.05
        x0 = 0.375
        m = mollify(Measure.delta(grid, (x0,)), eps)
        out = eval_F(coupling, m)
        shift_nodes = int(round(x0 / grid.dx[0]))
        translated = np.roll(phi.values, shift_nodes)
        lip = gradient(phi)[0].max_norm
        slack = lip * (eps + grid.dx[0]) * 1.05 + 1e-12
        assert np.max(np.abs(out.values - translated)) <= slack

    def test_identity_nonlinearity_is_double_convolution(self):
        grid = Grid(128, 2.0)
        phi2 = gauss_kernel(grid, 0.2)
        coupling = LocalComposite(phi2, *power_maps(1))
        m = random_measure(grid, 1)
        out = eval_F(coupling, m)
        oracle = periodic_convolve(phi2, periodic_convolve(phi2, m.density))
        assert np.max(np.abs(out.values - oracle.values)) <= 1e-10

    def test_conv_memo_keeps_eval_bitwise(self, transform_calls):
        # the first pricing transforms the kernel and keeps its spectrum,
        # so a repeat pricing transforms the density and inverts, 2 calls
        grid = Grid(64, 2.0)
        coupling = Conv(gauss_kernel(grid))
        calls = []
        for seed in (2, 2, 3):
            m = random_measure(grid, seed)
            want = periodic_convolve(m.density, coupling.phi).values
            transform_calls["n"] = 0
            got = eval_F(coupling, m).values
            calls.append(transform_calls["n"])
            assert np.array_equal(got, want)
        assert calls == [3, 2, 2]

    @pytest.mark.parametrize("kind", ["conv", "composite"])
    def test_non_finite_kernel_fails_every_pricing(self, kind):
        # after the grid and density checks, on a repeat call too
        grid = Grid(64, 2.0)
        vals = gauss_kernel(grid, 0.2).values.copy()
        vals[10] = np.nan
        kernel = Field(grid, vals)
        coupling = (Conv(kernel) if kind == "conv"
                    else LocalComposite(kernel, *power_maps(2)))
        m = random_measure(grid, 4)
        for _ in range(2):
            with pytest.raises(NonFiniteFieldError, match="left operand"):
                eval_F(coupling, m)
        negative = m.values.copy()
        negative[3] = -1e-3
        with pytest.raises(ValueError, match="negative values"):
            _eval_F_path(coupling, grid, negative[None])
        with pytest.raises(GridMismatchError):
            eval_F(coupling, random_measure(Grid(32, 2.0), 4))

    def test_conv_requires_compact_support(self):
        grid = Grid(64, 2.0)
        with pytest.raises(ValueError, match="compact"):
            Conv(Field.constant(grid, 1.0))

    def test_local_rejects_odd_or_negative_inner_kernel(self):
        grid = Grid(64, 2.0)
        x = grid.axis(0)
        off_center = Field(grid, np.exp(-(x - 0.5) ** 2 / 0.05))
        with pytest.raises(ValueError, match="even"):
            LocalComposite(off_center, *power_maps(2))
        bad = Field(grid, -gauss_kernel(grid).values)
        with pytest.raises(ValueError, match="nonnegative"):
            LocalComposite(bad, *power_maps(2))


def path_coupling(kind, grid):
    if kind == "conv":
        return Conv(gauss_kernel(grid))
    return LocalComposite(gauss_kernel(grid, 0.2), *power_maps(2))


def random_path(grid, slices=5):
    """Density slices with a few entries under the 1e-14 clamp."""
    path = np.stack([random_measure(grid, s).values for s in range(slices)])
    flat = path.reshape(slices, -1)
    flat[1, :3] = [4e-15, -6e-15, 0.0]
    flat[1] /= grid.cell_volume * np.sum(flat[1])
    return path


def per_slice_F(coupling, grid, path):
    return np.stack([eval_F(coupling, Measure.from_values(grid, row)).values
                     for row in path])


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


PATH_GRIDS = {1: Grid(64, 2.0), 2: Grid(16, 2.0, dims=2)}


class TestPathPricing:
    """``_eval_F_path`` against the per-slice ``eval_F`` loop it replaces."""

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("kind", ["conv", "composite"])
    def test_rows_match_per_slice_bitwise(self, kind, dims):
        grid = PATH_GRIDS[dims]
        coupling = path_coupling(kind, grid)
        path = random_path(grid)
        assert np.array_equal(_eval_F_path(coupling, grid, path),
                              per_slice_F(coupling, grid, path))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_action_weights_match_per_slice_bitwise(self, dims):
        grid = PATH_GRIDS[dims]
        coupling = path_coupling("composite", grid)
        path = random_path(grid)
        want = np.stack([
            _action_weight(coupling, Measure.from_values(grid, row))
            for row in path])
        assert np.array_equal(_action_weights(coupling, grid, path), want)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("kind", ["conv", "composite"])
    @pytest.mark.parametrize("defect, error, message", [
        ("negative", ValueError, "density has negative values down to "
                                 "-1.000e-03"),
        ("mass", ValueError, "density mass 1.01"),
        ("nan", NonFiniteFieldError, "density has 1 non-finite"),
    ])
    def test_one_bad_slice_raises_as_alone(self, kind, dims, defect, error,
                                           message):
        grid = PATH_GRIDS[dims]
        coupling = path_coupling(kind, grid)
        path = random_path(grid)
        bad = path[3].reshape(-1)
        if defect == "negative":
            bad[5] = -1e-3
        elif defect == "mass":
            bad *= 1.01
        else:
            bad[5] = np.nan
        got = raised(lambda: _eval_F_path(coupling, grid, path))
        assert got == raised(lambda: per_slice_F(coupling, grid, path))
        assert got[0] is error and got[1].startswith(message)

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("kind", ["conv", "composite"])
    def test_budget_breach_on_one_slice(self, kind, dims, monkeypatch):
        # No valid measure can push a convolution past its budget, so the
        # convolution is inflated on the rows whose right operand is slice
        # 3's: its density for Conv, Phi of its smoothed density for the
        # composite (power_maps(2) gives s^2 / 2).
        grid = PATH_GRIDS[dims]
        coupling = path_coupling(kind, grid)
        path = random_path(grid)
        if kind == "conv":
            marked = path[3]
        else:
            smoothed = periodic_convolve(coupling.phi2, Field(grid, path[3]))
            marked = coupling.Phi(None, smoothed.values)
        mark = marked.reshape(-1)[0]

        def inflate(real):
            def inflated(grid, f, g):
                out = real(grid, f, g)
                first = g.reshape(g.shape[:g.ndim - grid.dims] + (-1,))[..., 0]
                hit = (first == mark).reshape(first.shape + (1,) * grid.dims)
                return np.where(hit, 1e3 * out, out)
            return inflated

        # Conv convolves with its kernel's kept spectrum, the composite
        # with the kernel's values
        for name in ("_convolve_spectrum", "_convolve_values"):
            monkeypatch.setattr(coupling_module, name,
                                inflate(getattr(coupling_module, name)))
        got = raised(lambda: _eval_F_path(coupling, grid, path))
        assert got == raised(lambda: per_slice_F(coupling, grid, path))
        assert got[0] is AssertionError and "sup-norm budget" in got[1]
        # the healthy slices alone stay within budget
        assert np.array_equal(
            _eval_F_path(coupling, grid, np.delete(path, 3, axis=0)),
            per_slice_F(coupling, grid, np.delete(path, 3, axis=0)))


class TestDerivativeKernel:
    def test_conv_matrix_is_translated_kernel(self):
        grid = Grid(64, 2.0)
        phi = gauss_kernel(grid)
        m = random_measure(grid, 2)
        matrix = eval_dmF(Conv(phi), m)
        n = grid.n[0]
        expected = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                expected[i, j] = phi.values[(i - j + n // 2) % n]
        assert np.array_equal(matrix, expected)

    def test_conv_matrix_is_measure_independent(self):
        grid = Grid(64, 2.0)
        coupling = Conv(gauss_kernel(grid))
        a = eval_dmF(coupling, random_measure(grid, 3))
        b = eval_dmF(coupling, random_measure(grid, 4))
        assert np.array_equal(a, b)

    def test_zero_matrix(self):
        grid = Grid(64, 2.0)
        matrix = eval_dmF(Zero(), random_measure(grid, 5))
        assert not np.any(matrix)

    def test_local_matrix_matches_direct_quadrature(self):
        grid = Grid(64, 2.0)
        phi2 = gauss_kernel(grid, 0.2)
        coupling = LocalComposite(phi2, *power_maps(2))
        m = random_measure(grid, 6)
        matrix = eval_dmF(coupling, m)
        smoothed = periodic_convolve(phi2, m.density).values
        n = grid.n[0]
        dx = grid.dx[0]
        for i, j in ((0, 0), (10, 41), (32, 32), (55, 7)):
            total = 0.0
            for z in range(n):
                total += phi2.values[(i - z + n // 2) % n] * smoothed[z] \
                    * phi2.values[(z - j + n // 2) % n]
            assert abs(matrix[i, j] - dx * total) <= 1e-9

    def test_local_matrix_symmetric(self):
        grid = Grid(64, 2.0)
        coupling = LocalComposite(gauss_kernel(grid, 0.2), *power_maps(2))
        matrix = eval_dmF(coupling, random_measure(grid, 7))
        assert np.max(np.abs(matrix - matrix.T)) <= 1e-14

    def test_2d_matrix_entries(self):
        grid = Grid((8, 8), (1.0, 1.0))
        mesh = grid.meshgrid()
        phi = Field(grid, np.exp(-(mesh[0] ** 2 + mesh[1] ** 2) / 0.02))
        m = Measure.normalized(Field.constant(grid, 1.0))
        matrix = eval_dmF(Conv(phi), m)
        n0, n1 = grid.n
        for (a, b, c, d) in ((0, 0, 3, 5), (7, 2, 1, 1), (4, 4, 4, 4)):
            expected = phi.values[(a - c + n0 // 2) % n0, (b - d + n1 // 2) % n1]
            assert matrix[a * n1 + b, c * n1 + d] == expected

    def test_materialization_guard(self):
        grid = Grid(512, 2.0)
        coupling = Conv(gauss_kernel(grid, 0.1))
        m = random_measure(grid, 8)
        with pytest.raises(ValueError, match="materialization guard"):
            eval_dmF(coupling, m)


class TestDerivativeConsistency:
    @pytest.mark.parametrize("h", [1e-2, 1e-3])
    def test_conv_directional_derivative_exact(self, h):
        grid = Grid(64, 2.0)
        coupling = Conv(gauss_kernel(grid))
        m, m_prime = random_measure(grid, 10), random_measure(grid, 11)
        mixed = Measure(Field(grid, (1 - h) * m.values + h * m_prime.values))
        lhs = eval_F(coupling, mixed).values - eval_F(coupling, m).values
        matrix = eval_dmF(coupling, m)
        delta = (m_prime.values - m.values).ravel() * grid.cell_volume
        predicted = h * (matrix @ delta).reshape(grid.shape)
        assert np.max(np.abs(lhs - predicted)) <= 1e-13

    def test_local_directional_derivative_second_order(self):
        grid = Grid(64, 2.0)
        coupling = LocalComposite(gauss_kernel(grid, 0.2), *power_maps(2))
        m, m_prime = random_measure(grid, 12), random_measure(grid, 13)
        matrix = eval_dmF(coupling, m)
        delta = (m_prime.values - m.values).ravel() * grid.cell_volume
        base = eval_F(coupling, m).values

        def residual(h):
            mixed = Measure(Field(grid, (1 - h) * m.values + h * m_prime.values))
            lhs = eval_F(coupling, mixed).values - base
            return float(np.max(np.abs(
                lhs - h * (matrix @ delta).reshape(grid.shape)
            )))

        r_small = residual(1e-3)
        r_big = residual(1e-2)
        curvature = r_small / 1e-6
        assert r_big <= 1.25 * curvature * 1e-4
        assert 80.0 <= r_big / r_small <= 125.0

    def test_fundamental_theorem_of_calculus(self):
        grid = Grid(64, 2.0)
        coupling = LocalComposite(gauss_kernel(grid, 0.2), *power_maps(3))
        m, m_prime = random_measure(grid, 14), random_measure(grid, 15)
        delta = (m_prime.values - m.values).ravel() * grid.cell_volume
        nodes, weights = np.polynomial.legendre.leggauss(16)
        lam = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        accum = np.zeros(grid.node_count)
        for lam_k, w_k in zip(lam, w):
            mixed = Measure(
                Field(grid, (1 - lam_k) * m.values + lam_k * m_prime.values)
            )
            accum += w_k * (eval_dmF(coupling, mixed) @ delta)
        gap = eval_F(coupling, m_prime).values - eval_F(coupling, m).values
        assert np.max(np.abs(gap.ravel() - accum)) <= 1e-8


class TestDerivativeAction:
    """apply_dmF must agree with pairing the dense kernel against rho*vol."""

    def dense_action(self, coupling, m, rho):
        matrix = eval_dmF(coupling, m)
        return (matrix @ (rho.values.ravel() * m.grid.cell_volume)
                ).reshape(m.grid.shape)

    def test_conv_matches_dense_kernel(self):
        grid = Grid(64, 2.0)
        coupling = Conv(gauss_kernel(grid))
        m = random_measure(grid, 20)
        rho = Field(grid, random_measure(grid, 21).values - m.values)
        out = apply_dmF(coupling, m, rho)
        assert np.max(np.abs(out.values - self.dense_action(coupling, m, rho))) \
            <= 1e-13

    def test_composite_matches_dense_kernel(self):
        grid = Grid(64, 2.0)
        coupling = LocalComposite(gauss_kernel(grid, 0.2), *power_maps(3))
        m = random_measure(grid, 22)
        rho = Field(grid, random_measure(grid, 23).values - m.values)
        out = apply_dmF(coupling, m, rho)
        assert np.max(np.abs(out.values - self.dense_action(coupling, m, rho))) \
            <= 1e-12

    def test_zero_coupling_zero_action(self):
        grid = Grid(64, 2.0)
        m = random_measure(grid, 24)
        out = apply_dmF(Zero(), m, m.density)
        assert np.array_equal(out.values, np.zeros(grid.shape))

    def test_grid_mismatch_rejected(self):
        grid = Grid(64, 2.0)
        m = random_measure(grid, 25)
        with pytest.raises(GridMismatchError):
            apply_dmF(Conv(gauss_kernel(grid)), m,
                      Field.constant(Grid(32, 2.0), 0.0))


class TestMonotonicityChecks:
    def test_m1_positive_definite_kernel(self):
        grid = Grid(64, 2.0)
        coupling = Conv(gauss_kernel(grid))
        assert coupling.is_positive_semidefinite
        report = check_M1(coupling, trials=6, seed=0)
        assert report.passed
        assert report.min_value >= -1e-10

    def test_m1_odd_kernel_pairs_to_zero(self):
        grid = Grid(64, 2.0)
        coupling = Conv(odd_kernel(grid))
        assert not coupling.is_positive_semidefinite
        report = check_M1(coupling, trials=6, seed=1)
        assert report.passed
        assert report.max_abs <= 1e-10

    def test_m1_zero_coupling(self):
        report = check_M1(Zero(), trials=3, seed=2)
        assert report.min_value == 0.0 and report.passed

    def test_m1_deterministic_in_seed(self):
        grid = Grid(64, 2.0)
        coupling = Conv(gauss_kernel(grid))
        a = check_M1(coupling, trials=4, seed=9)
        b = check_M1(coupling, trials=4, seed=9)
        assert a == b

    def test_m2_positive_semidefinite_kernel_passes(self):
        grid = Grid(32, 2.0)
        coupling = Conv(gauss_kernel(grid))
        report = check_M2(coupling, random_measure(grid, 16))
        assert report.passed
        assert report.min_eig >= -1e-10
        assert report.version == "as_provided"

    def test_m2_local_composite_passes(self):
        grid = Grid(32, 2.0)
        coupling = LocalComposite(gauss_kernel(grid, 0.2), *power_maps(2))
        report = check_M2(coupling, random_measure(grid, 17))
        assert report.passed

    def test_m2_odd_kernel_raw_symmetrizes_away(self):
        # The raw kernel of an odd transformation is antisymmetric, so its
        # symmetrization vanishes: the raw check cannot see the defect.
        grid = Grid(32, 2.0)
        coupling = Conv(odd_kernel(grid))
        report = check_M2(coupling, random_measure(grid, 18))
        assert report.passed
        assert abs(report.min_eig) <= 1e-12

    def test_m2_odd_kernel_normalized_fails(self):
        grid = Grid(32, 2.0)
        phi = odd_kernel(grid)
        coupling = Conv(phi)
        m = mollify(Measure.delta(grid, (0.0,)), 2.5 * grid.dx[0])
        report = check_M2(coupling, m, version="normalized")
        assert not report.passed
        assert report.min_eig_operator < 0.0
        # point-mass probe at x0: the diagonal of the normalized kernel is
        # phi(0) - (phi * m)(x0) which is about -phi(x0)
        x0_idx = grid.nearest_index((0.25,))[0]
        matrix = eval_dmF(coupling, m)
        c = matrix @ (m.values.ravel() * grid.cell_volume)
        normalized_diag = matrix[x0_idx, x0_idx] - c[x0_idx]
        smoothed_phi = periodic_convolve(phi, m.density).values[x0_idx]
        assert normalized_diag == pytest.approx(-smoothed_phi, abs=1e-12)
        assert normalized_diag < -0.1  # genuinely negative probe value

    def test_m2_zero_coupling(self):
        grid = Grid(32, 2.0)
        report = check_M2(Zero(), random_measure(grid, 19))
        assert report.passed and report.min_eig == 0.0

    def test_m2_rejects_unknown_version(self):
        grid = Grid(32, 2.0)
        with pytest.raises(ValueError):
            check_M2(Conv(gauss_kernel(grid)), random_measure(grid, 20),
                     version="other")


class TestSmoothnessBudget:
    def test_gaussian_resolves_four_derivatives(self):
        grid = Grid(128, 2.0)
        assert resolved_derivatives(gauss_kernel(grid)) == 4
        require_smooth(Conv(gauss_kernel(grid)))  # should not raise

    def test_rough_kernel_fails(self):
        grid = Grid(128, 2.0)
        rng = np.random.default_rng(21)
        mesh = grid.meshgrid()
        window = np.exp(-mesh[0] ** 2 / 0.08)
        rough = Field(grid, rng.standard_normal(grid.shape) * window)
        assert resolved_derivatives(rough) < 4
        with pytest.raises(ValueError, match="derivatives"):
            require_smooth(Conv(rough))
