"""Reference implementations the test modules compare the package against.

Closed-form metrics, the one-shot semigroup apply, toy Hamiltonians, the
Laplacian triplet, a drift-free initial path and the master residual's
measure terms from a full derivative-kernel table: code that only the tests
call, kept out of the package's public surface.
"""

from typing import Sequence

import numpy as np

from levymfg.errors import GridMismatchError, NonFiniteFieldError
from levymfg.fp import _project_slices, solve_fp
from levymfg.grid import Field
from levymfg.hjb import GeneralHamiltonian, Trajectory
from levymfg.kernels import KernelCache
from levymfg.levy import LevyTriplet
from levymfg.linearized import j_field_batch
from levymfg.measures import Measure, TightnessFn, _check_pair
from levymfg.mfg import MfgSolution, optimal_drift


def laplacian_triplet(dims=1):
    """The Laplacian on d axes: unit diffusion, no drift, no jumps."""
    return LevyTriplet(dims=dims, diffusion=np.eye(dims))


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
