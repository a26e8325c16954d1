"""Reference implementations the test modules compare the package against.

Closed-form metrics, the one-shot semigroup apply, toy Hamiltonians, the
Laplacian triplet, a triplet whose jump density is NaN near the origin, a
point mass, a uniform law on a box, the convolution of
two fields and a mollified measure, a zero and a constant-in-time
trajectory, a drift-free initial path, the master
residual's measure terms from a full derivative-kernel table, the chain
program formed node by node, the stacked dense first-pass step and the
allocating sweep recurrence: code that only the tests call, kept out of
the package's public surface.
"""

from typing import Sequence

import numpy as np

from levymfg.errors import GridMismatchError, NonFiniteFieldError
from levymfg.fp import _project_slices, solve_fp
from levymfg.grid import Field, _convolve_spectra, _require_finite, _rfft
from levymfg.hjb import GeneralHamiltonian, Trajectory
from levymfg.kernels import KernelCache
from levymfg.levy import LevyTriplet, NumericDensity
from levymfg.linearized import j_field_batch
from levymfg.measures import (_CLAMP_TOL, Measure, TightnessFn, _check_pair,
                              mollifier_field)
from levymfg.mfg import MfgSolution, optimal_drift


def laplacian_triplet(dims=1):
    """The Laplacian on d axes: unit diffusion, no drift, no jumps."""
    return LevyTriplet(dims=dims, diffusion=np.eye(dims))


def nan_core_triplet() -> LevyTriplet:
    """A jump density that is NaN for |z| < 1e-3 and finite elsewhere."""
    def density(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) < 1e-3, np.nan,
                        np.exp(-z * z) * np.abs(z) ** -2.5)
    return LevyTriplet(jumps=NumericDensity(density, alpha_low=1.5))


def point_mass(grid, point) -> Measure:
    """Unit mass concentrated on the grid node nearest to ``point``."""
    vals = np.zeros(grid.shape)
    vals[grid.nearest_index(point)] = 1.0 / grid.cell_volume
    return Measure(Field(grid, vals))


def uniform_measure(grid, lo: float, hi: float) -> Measure:
    """Uniform probability on the nodes with every coordinate in [lo, hi)."""
    inside = np.ones(grid.shape, dtype=bool)
    for axis_vals in grid.meshgrid():
        inside &= (axis_vals >= lo) & (axis_vals < hi)
    count = int(np.sum(inside))
    if count == 0:
        raise ValueError("no grid nodes inside the requested box")
    return Measure(Field(grid, np.where(
        inside, 1.0 / (count * grid.cell_volume), 0.0)))


def periodic_convolve(f: Field, g: Field) -> Field:
    """dx^d-normalized circular convolution of two fields on one grid."""
    if f.grid != g.grid:
        raise GridMismatchError("fields live on different grids")
    _require_finite(f.values, "left operand")
    _require_finite(g.values, "right operand")
    return Field(f.grid, _convolve_spectra(f.grid, _rfft(f.grid, f.values),
                                           _rfft(g.grid, g.values)))


def mollify(m: Measure, eps: float) -> Measure:
    """Convolve with the radius-eps bump; moves mass at most eps + dx in d0."""
    eta = mollifier_field(m.grid, eps)
    smoothed = periodic_convolve(m.density, eta)
    vals = smoothed.values.copy()
    vals[np.abs(vals) < _CLAMP_TOL] = 0.0
    np.maximum(vals, 0.0, out=vals)
    return Measure(Field(m.grid, vals))


def zero_trajectory(grid, t0: float, T: float, n_steps: int,
                    vector: bool = False) -> Trajectory:
    """The zero scalar (or, with ``vector``, d-component) trajectory."""
    shape = (n_steps + 1, grid.dims) if vector else (n_steps + 1,)
    return Trajectory(grid, t0, T, np.zeros(shape + grid.shape))


def constant_trajectory(f: Field, t0: float, T: float,
                        n_steps: int) -> Trajectory:
    """The field ``f`` at every one of the n_steps + 1 slices."""
    vals = np.broadcast_to(f.values, (n_steps + 1,) + f.grid.shape)
    return Trajectory(f.grid, t0, T, np.array(vals))


def semigroup_apply(cache: KernelCache, t: float, f: Field, adjoint: bool = False) -> Field:
    """Evolve a field by e^{tL} (adjoint=True: by the adjoint semigroup)."""
    if f.grid != cache.grid:
        raise GridMismatchError("field grid does not match kernel cache grid")
    if t == 0.0:
        return f
    out = cache.apply_array(t, f.values, adjoint)
    if not np.all(np.isfinite(out)):
        raise NonFiniteFieldError("semigroup application produced non-finite values")
    return f.with_values(out)


def generalized_moment(m: Measure, psi: TightnessFn) -> float:
    """Grid integral of the tightness weight against the measure."""
    if psi.psi.grid != m.grid:
        raise GridMismatchError("tightness weight sampled on a different grid")
    return float(m.grid.cell_volume * np.sum(psi.psi.values * m.values))


def tv_distance(m, m_prime) -> float:
    """Grid total-variation distance (half the L1 gap)."""
    grid, weights = _check_pair(m, m_prime)
    return 0.5 * float(np.sum(np.abs(weights)))


def w1_distance_1d(m, m_prime) -> float:
    """Grid 1-Wasserstein distance in 1D via the CDF formula."""
    grid, weights = _check_pair(m, m_prime)
    if grid.dims != 1:
        raise ValueError("the CDF formula is one-dimensional")
    return float(grid.dx[0] * np.sum(np.abs(np.cumsum(weights))))


def zero_hamiltonian() -> GeneralHamiltonian:
    """H identically zero: the solver degenerates to the linear flow."""
    return GeneralHamiltonian(
        h=lambda x, u, p: np.zeros(np.broadcast(u, *p).shape),
        grad=lambda x, u, p: tuple(np.zeros_like(pi) for pi in p),
        hess=None,
        du=None,
    )


def drift_hamiltonian(velocity: Sequence) -> GeneralHamiltonian:
    """H(x, u, p) = b(x) . p for a velocity with constant or callable parts.

    Each entry of ``velocity`` is a float or a callable taking the unpacked
    coordinate arrays (the Field.from_function convention).  The momentum
    gradient of this H is exactly b, which makes the solved equation the
    dual of forward transport with drift b.
    """
    comps = tuple(velocity)

    def b(x, i):
        vi = comps[i]
        return vi(*x) if callable(vi) else float(vi)

    def h(x, u, p):
        out = b(x, 0) * p[0]
        for i in range(1, len(p)):
            out = out + b(x, i) * p[i]
        return out

    def grad(x, u, p):
        return tuple(np.broadcast_to(np.asarray(b(x, i), dtype=float),
                                     np.broadcast(u, *p).shape)
                     for i in range(len(p)))

    def hess(x, u, p):
        d = len(p)
        batch = np.broadcast(u, *p).shape
        return np.broadcast_to(np.zeros((d, d)), batch + (d, d))

    return GeneralHamiltonian(h=h, grad=grad, hess=hess, du=None)


def diffused_initial_path(kernel: KernelCache, m0: Measure, t0: float,
                          T: float, n_steps: int) -> Trajectory:
    """Drift-free evolution of ``m0``: a cheap non-constant initial guess."""
    rho = solve_fp(kernel, None, m0.density, None, t0, T, n_steps)
    cleaned, _, _ = _project_slices(kernel.grid, rho.values)
    return Trajectory(kernel.grid, t0, T, cleaned)


def tabulated_measure_terms(scenario, base: MfgSolution, m0: Measure
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The master residual's two measure integrals from a full J table.

    Tabulates J(x, y) at every node y, applies the generator in y and the
    central y-difference, and pairs both with m0 under the grid
    quadrature: the nonlocal term <w, L_y J(x, .)> and the transport term
    <b w, D_y J(x, .)>, with w = m0 * cell_volume and b the drift at t0.
    """
    grid = scenario.grid
    j_values = j_field_batch(base).values  # y axes first, x axes last
    weights = m0.values * grid.cell_volume
    y_axes = tuple(range(grid.dims))
    x_axes = tuple(range(grid.dims, 2 * grid.dims))
    # the generator acts on the trailing axes: move y there and back
    j_gen = np.moveaxis(scenario.kernel.apply_generator(
        np.moveaxis(j_values, y_axes, x_axes)), x_axes, y_axes)
    nonlocal_term = np.tensordot(weights, j_gen, axes=(y_axes, y_axes))
    drift0 = optimal_drift(scenario.hamiltonian, base.u).values[0]
    transport_term = np.zeros(grid.shape)
    for ax in y_axes:
        d_y = (np.roll(j_values, -1, axis=ax)
               - np.roll(j_values, 1, axis=ax)) / (2.0 * grid.dx[ax])
        transport_term += np.tensordot(weights * drift0[ax], d_y,
                                       axes=(y_axes, y_axes))
    return nonlocal_term, transport_term


def uncapped_chain_sup(weights: np.ndarray, dx: float) -> np.ndarray:
    """The chain program's dynamic program on the whole lattice.

    Every lattice point {1 - k dx} u {-1 + k dx} in [-1, 1], about 4/dx of
    them, as ``measures._chain_sup`` runs it, but built here and with the
    gains w_j * lattice formed node by node rather than in blocks.  Slices
    first, one value per row.
    """
    k = np.arange(int(2.0 / dx) + 1)
    rising = np.minimum(-1.0 + k * dx, 1.0)
    falling = np.maximum(1.0 - k[::-1] * dx, -1.0)
    if np.array_equal(rising, falling):
        lattice, reach = rising, 1
    else:
        lattice, reach = np.empty(2 * k.size), 2
        lattice[0::2], lattice[1::2] = rising, falling
    size = lattice.size
    lattice = lattice[:, None]
    nodes = np.ascontiguousarray(weights.T)
    best = np.full((size + 2 * reach, nodes.shape[1]), -np.inf)
    core = best[reach:reach + size]
    pair = np.empty((size + 2 * reach - 1, nodes.shape[1]))
    window = np.empty((size, nodes.shape[1]))
    gain = np.empty_like(window)
    np.multiply(nodes[0], lattice, out=core)
    for w in nodes[1:]:
        np.maximum(best[:-1], best[1:], out=pair)
        np.maximum(pair[:size], best[2 * reach:], out=window)
        for s in range(1, reach):
            np.maximum(window, pair[2 * s:2 * s + size], out=window)
        np.multiply(w, lattice, out=gain)
        np.add(window, gain, out=core)
    return core.max(axis=0)


def stacked_dense_first_pass(kernel: KernelCache, stack: np.ndarray,
                             dt: float, drive, adjoint: bool) -> None:
    """``hjb._dense_first_pass`` as one stacked ``matmul`` a step.

    Applies the step operator to the input column and writes the output
    rows of each slice straight into ``stack``.
    """
    grid = kernel.grid
    size = grid.node_count
    op = kernel.step_operator(dt, adjoint)
    out = stack.reshape(stack.shape[:2] + (size, 1))
    inputs = np.empty((1 + grid.dims, size))
    w, grads = stack[0], stack[1:]
    for k in range(stack.shape[1] - 1):
        if not adjoint:
            head = w[k] + dt * drive(w[k], tuple(grads[:, k]), k)
            np.matmul(op, head.reshape(size, 1), out=out[:, k + 1])
            continue
        inputs[0] = w[k].reshape(size)
        np.multiply(drive(w[k], (), k).reshape(grid.dims, size), dt,
                    out=inputs[1:])
        np.matmul(op, inputs.reshape(-1, 1), out=out[:, k + 1])


def allocating_sweep_spectra(mult: np.ndarray, n_hat: np.ndarray,
                             spec0: np.ndarray) -> np.ndarray:
    """``hjb._sweep_spectra`` with two new arrays a step.

    f[0] = spec0 and f[k+1] = M (f[k] + n[k]) + n[k+1]: a step forms
    M times the carry, adds n[k+1] in place, and forms the next carry as
    that sum plus n[k+1].  ``n_hat`` is left as it was.
    """
    out = n_hat.copy()
    out[0] += spec0
    carry = out[0]  # f[0] + n[0]
    for k in range(1, len(out)):
        step = mult * carry
        step += out[k]
        carry = step + out[k]
        out[k] = step
    out[0] = spec0
    return out
