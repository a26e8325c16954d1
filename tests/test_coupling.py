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
from levymfg.grid import Field, Grid, _rfft, gradient
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
from levymfg.coupling import _action_weights, _price_path
from levymfg.measures import Measure
from oracles import mollify, periodic_convolve, point_mass


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


def bump_kernel(grid, amplitude):
    """Compactly supported radius-1 bump, as the benchmark's couplings."""
    r_sq = sum(x ** 2 for x in grid.meshgrid())
    return Field(grid, np.where(
        r_sq < 1.0,
        amplitude * np.exp(-1.0 / np.maximum(1.0 - r_sq, 1e-300)), 0.0))


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


@pytest.mark.parametrize("grid, centre, axis, side", [
    (Grid(64, 2.0), (-1.9,), 0, 0),
    (Grid(64, 2.0), (1.9,), 0, -1),
    (Grid(16, 2.0, dims=2), (-1.75, 0.0), 0, 0),
    (Grid(16, 2.0, dims=2), (1.75, 0.0), 0, -1),
    (Grid(16, 2.0, dims=2), (0.0, -1.75), 1, 0),
    (Grid(16, 2.0, dims=2), (0.0, 1.75), 1, -1),
], ids=["1d-lower", "1d-upper", "2d-lower-x", "2d-upper-x", "2d-lower-y",
        "2d-upper-y"])
def test_conv_rejects_a_kernel_at_each_edge(grid, centre, axis, side):
    # The periodic box wraps a kernel that reaches node n - 1 round to node
    # 0 as surely as one that reaches node 0, so the guard reads both edge
    # slices of every axis.  Each kernel sits at one edge slice and leaves
    # the others clean.  1D upper: node 63 holds 0.945 of the peak 0.975;
    # the weakest named edge (2D lower) holds 0.082 of the peak.
    phi = Field.from_function(grid, lambda *xs: np.exp(
        -40.0 * sum((x - c) ** 2 for x, c in zip(xs, centre))))
    for ax in range(grid.dims):
        for end in (0, -1):
            edge = float(np.max(np.abs(np.take(phi.values, end, axis=ax))))
            if (ax, end) == (axis, side):
                assert edge > 0.05 * phi.max_norm
            else:
                assert edge < 1e-8 * phi.max_norm
    with pytest.raises(ValueError, match="not compactly supported"):
        Conv(phi)


def test_zero_kernel_has_no_edge_to_guard():
    # the edge guard compares against the peak; a zero kernel has none and
    # prices every measure at zero
    grid = Grid(16, 2.0)
    cost = Conv(Field.constant(grid, 0.0))
    assert not np.any(eval_F(cost, random_measure(grid, 0)).values)


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
        m = mollify(point_mass(grid, (x0,)), eps)
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
            _price_path(Zero(), coupling, grid, negative[None])
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


def running_F(coupling, grid, path):
    """The running slot of ``_price_path``: F of every slice of the path."""
    return _price_path(coupling, Zero(), grid, path)[0]


def raised(fn):
    with pytest.raises(Exception) as info:
        fn()
    return type(info.value), str(info.value)


PATH_GRIDS = {1: Grid(64, 2.0), 2: Grid(16, 2.0, dims=2)}


class TestPathPricing:
    """``_price_path`` against the per-slice ``eval_F`` loop."""

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("kind", ["conv", "composite"])
    def test_rows_match_per_slice_bitwise(self, kind, dims):
        grid = PATH_GRIDS[dims]
        coupling = path_coupling(kind, grid)
        path = random_path(grid)
        assert np.array_equal(running_F(coupling, grid, path),
                              per_slice_F(coupling, grid, path))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_action_weights_match_per_slice_bitwise(self, dims):
        grid = PATH_GRIDS[dims]
        coupling = path_coupling("composite", grid)
        path = random_path(grid)
        want = np.stack([_action_weights(coupling, grid, row[None])[0]
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
        got = raised(lambda: running_F(coupling, grid, path))
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
        # rows of a batched transform equal their single-row transform
        mark = _rfft(grid, marked)

        def inflate(real):
            def inflated(grid, fs, gs):
                out = real(grid, fs, gs)
                tail = tuple(range(gs.ndim - grid.dims, gs.ndim))
                hit = np.all(gs == mark, axis=tail, keepdims=True)
                return np.where(hit, 1e3 * out, out)
            return inflated

        # both couplings convolve spectra: their kernel's kept spectrum
        # with the right operand's
        monkeypatch.setattr(coupling_module, "_convolve_spectra",
                            inflate(coupling_module._convolve_spectra))
        got = raised(lambda: running_F(coupling, grid, path))
        assert got == raised(lambda: per_slice_F(coupling, grid, path))
        assert got[0] is AssertionError and "sup-norm budget" in got[1]
        # the healthy slices alone stay within budget
        assert np.array_equal(
            running_F(coupling, grid, np.delete(path, 3, axis=0)),
            per_slice_F(coupling, grid, np.delete(path, 3, axis=0)))


PRICED = ["zero", "conv", "composite"]


def priced_coupling(kind, grid, weight=1.0):
    if kind == "zero":
        return Zero()
    if kind == "conv":
        return Conv(Field(grid, weight * gauss_kernel(grid).values))
    return LocalComposite(gauss_kernel(grid, 0.2), *power_maps(2))


def separate_pricings(running, terminal, grid, path):
    """The two pricings one ``_price_path`` call replaces, slice by slice."""
    source = None if isinstance(running, Zero) else per_slice_F(
        running, grid, path)
    return source, per_slice_F(terminal, grid, path[-1:])[0]


class TestSharedPricing:
    """``_price_path`` against per-slice ``eval_F`` calls of each cost."""

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("terminal", PRICED)
    @pytest.mark.parametrize("running", PRICED)
    def test_values_match_separate_pricings_bitwise(self, running, terminal,
                                                    dims):
        grid = PATH_GRIDS[dims]
        running = priced_coupling(running, grid)
        terminal = priced_coupling(terminal, grid, 0.75)
        path = random_path(grid)
        source, final = _price_path(running, terminal, grid, path)
        want_source, want_final = separate_pricings(running, terminal, grid,
                                                    path)
        assert np.array_equal(final, want_final)
        if want_source is None:
            assert source is None
        else:
            assert np.array_equal(source, want_source)

    @pytest.mark.parametrize("terminal", PRICED)
    @pytest.mark.parametrize("running", PRICED)
    @pytest.mark.parametrize("defect, error", [
        ("negative", ValueError), ("mass", ValueError),
        ("nan", NonFiniteFieldError)])
    def test_bad_last_slice_raises_as_before(self, running, terminal, defect,
                                             error):
        grid = PATH_GRIDS[1]
        running = priced_coupling(running, grid)
        terminal = priced_coupling(terminal, grid, 0.75)
        path = random_path(grid)
        bad = path[-1]
        if defect == "negative":
            bad[5] = -1e-3
        elif defect == "mass":
            bad *= 1.01
        else:
            bad[5] = np.nan
        got = raised(lambda: _price_path(running, terminal, grid, path))
        assert got == raised(
            lambda: separate_pricings(running, terminal, grid, path))
        assert got[0] is error

    def test_terminal_kernel_grid_checked_after_running_pricing(self):
        grid = PATH_GRIDS[1]
        stray = Conv(gauss_kernel(Grid(32, 2.0)))
        path = random_path(grid)
        for running, terminal in ((stray, Zero()), (Conv(gauss_kernel(grid)),
                                                    stray)):
            got = raised(lambda: _price_path(running, terminal, grid, path))
            assert got == raised(
                lambda: separate_pricings(running, terminal, grid, path))
            assert got[0] is GridMismatchError


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
    @staticmethod
    def ratio(report):
        return report.min_value / report.max_abs

    def test_m1_counterexample_pair_on_bump(self):
        # two positive densities 1/4 +- (1/8) cos(2 pi x) on the 16-node
        # grid excite one mode, where the bump's symbol is negative
        grid = Grid(16, 2.0)
        coupling = Conv(bump_kernel(grid, 0.25))
        wave = 0.125 * np.cos(2.0 * np.pi * grid.axis(0))
        m = Measure(Field(grid, 0.25 + wave))
        m_prime = Measure(Field(grid, 0.25 - wave))
        gap = eval_F(coupling, m).values - eval_F(coupling, m_prime).values
        pairing = grid.cell_volume * np.sum(gap * (m.values - m_prime.values))
        assert pairing == pytest.approx(-1.2446e-3, rel=1e-4)
        assert not check_M1(coupling).passed

    @pytest.mark.parametrize("grid, measured", [
        (Grid(16, 2.0), -0.0892),
        (Grid(32, 2.0), -0.0966),
        (Grid(64, 2.0), -0.0965),
        (Grid(16, 2.0, dims=2), -0.0619),
    ], ids=["n16", "n32", "n64", "2d-16x16"])
    def test_m1_bump_fails(self, grid, measured):
        # measured: min_value / max_abs as in the parameters
        report = check_M1(Conv(bump_kernel(grid, 0.25)))
        assert not report.passed
        assert self.ratio(report) == pytest.approx(measured, abs=1e-4)

    @pytest.mark.parametrize("grid", [Grid(16, 2.0), Grid(32, 2.0),
                                      Grid(16, 2.0, dims=2)],
                             ids=["n16", "n32", "2d-16x16"])
    def test_m1_margin_is_m2_operator_eigenvalue(self, grid):
        # the symbol off the zero mode is the circulant's spectrum;
        # measured |difference| 3.5e-18, 1.6e-17 and 1.7e-18
        coupling = Conv(bump_kernel(grid, 0.25))
        m2 = check_M2(coupling, random_measure(grid, 26), "as_provided")
        assert abs(check_M1(coupling).min_value - m2.min_eig_operator) \
            <= 1e-15

    @pytest.mark.parametrize("kernel", [
        lambda grid: Field.from_function(
            grid, lambda x: 0.4 * np.exp(-8.0 * x * x)),
        lambda grid: Field.from_function(
            grid, lambda x: 0.3 * np.exp(-8.0 * x * x)),
        gauss_kernel,
        odd_kernel,
    ], ids=["running-0.4", "terminal-0.3", "gauss", "odd"])
    def test_m1_conv_passes(self, kernel):
        # measured min_value / max_abs: -1.1e-15, -1.1e-15, -1.06e-15 and,
        # for the odd kernel, whose symbol is imaginary, -8.6e-17
        report = check_M1(Conv(kernel(Grid(64, 2.0))))
        assert report.passed
        assert -1e-12 <= self.ratio(report) <= 0.0

    def test_m1_local_composite(self):
        # measured: dPhi/ds = s on [0, 1] gives min 0, max 1; -2 s gives
        # min -2, max 2
        phi2 = gauss_kernel(Grid(64, 2.0), 0.2)
        report = check_M1(LocalComposite(phi2, *power_maps(2)))
        assert report.passed
        assert (report.min_value, report.max_abs) == (0.0, 1.0)
        report = check_M1(LocalComposite(phi2, lambda mesh, s: -s ** 2,
                                         lambda mesh, s: -2.0 * s))
        assert not report.passed
        assert (report.min_value, report.max_abs) == (-2.0, 2.0)

    def test_m1_zero_coupling(self):
        report = check_M1(Zero())
        assert report.to_dict() == {"min_value": 0.0, "max_abs": 0.0,
                                    "pass": True}

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
        m = mollify(point_mass(grid, (0.0,)), 2.5 * grid.dx[0])
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
        assert report.to_dict() == {"min_eig": 0.0, "min_eig_operator": 0.0,
                                    "pass": True, "version": "as_provided"}

    def test_m2_rejects_unknown_version(self):
        grid = Grid(32, 2.0)
        with pytest.raises(ValueError):
            check_M2(Conv(gauss_kernel(grid)), random_measure(grid, 20),
                     version="other")


class TestSmoothnessBudget:
    def test_zero_coupling_needs_no_derivatives(self):
        assert require_smooth(Zero()) is None

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
