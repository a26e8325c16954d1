"""Spectral heat kernels for Levy generators on the periodic box.

The semigroup e^{tL} acts diagonally in Fourier space through the multiplier
e^{-t Psi(xi)} on the ``rfftn`` half-spectrum layout of ``grid``, taken
directly for each time (no composition step).  The adjoint semigroup uses
the conjugate symbol, which in physical space is the reflected kernel.

A real generator has Psi(-xi) = conj Psi(xi) except on the Nyquist planes,
where xi = -pi/dx stands for both signs; an asymmetric symbol there has no
real action, and an apply that leaks more than 1e-10 of its output scale
through it raises ``SpectralResidueError``.

Kernel fields are only handed out when the multiplier has decayed below
1e-12 at the Nyquist shell; otherwise the grid cannot represent the kernel
and a ``ResolutionError`` reports the resolution that would suffice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (GridMismatchError, NonFiniteFieldError, ResolutionError,
                     SpectralResidueError)
from .grid import Field, Grid, _nyquist_shell_max, spectral_derivative
from .levy import LevyTriplet, UnsupportedOrderError, order_alpha, symbol_eval

_NYQUIST_TOL = 1e-12
_MASS_TOL = 1e-10
_RINGING_TOL = 1e-9
_RESIDUE_TOL = 1e-10
_MEMO_LIMIT = 64


class KernelCache:
    """Cached half-spectrum multipliers of e^{tL} for one generator on one grid.

    Each multiplier M is memoized with its leak: the weighted non-Hermitian
    defect |M(k) - conj M(-k)|/2 on the Nyquist-plane bins where the symbol
    is not conjugate-symmetric, or None when there is none (every symmetric
    generator).
    """

    def __init__(self, triplet: LevyTriplet, grid: Grid):
        if triplet.dims != grid.dims:
            raise ValueError(
                f"triplet dimension {triplet.dims} != grid dimension {grid.dims}"
            )
        self.triplet = triplet
        self.grid = grid
        full = symbol_eval(triplet, grid)
        full[(0,) * grid.dims] = 0.0  # conserved mass: DC multiplier stays exactly 1
        axes = tuple(range(grid.dims))
        half = (Ellipsis, slice(0, grid.n[-1] // 2 + 1))
        mirror = np.conj(np.roll(np.flip(full), 1, axis=axes))[half]  # conj Psi(-k)
        self.symbol = np.ascontiguousarray(full[half])
        on_plane = np.zeros(self.symbol.shape, dtype=bool)
        for ax in axes:
            np.moveaxis(on_plane, ax, 0)[grid.n[ax] // 2] = True
        self._bins = np.nonzero(on_plane & (self.symbol != mirror))
        last = self._bins[-1]  # the 1/2 of D, doubled where -k is not stored
        weight = np.where((last == 0) | (last == grid.n[-1] // 2), 0.5, 1.0)
        self._defect = (self.symbol[self._bins], mirror[self._bins], weight)
        self._generator_leak = self._leak(np.negative)
        self._memo: dict[tuple[float, bool], tuple] = {}

    def _leak(self, fn):
        """Weighted defect of the multiplier fn(Psi), None when it vanishes."""
        psi, mirror, weight = self._defect
        leak = weight * np.abs(fn(psi) - fn(mirror))
        return leak if np.any(leak) else None

    def _entry(self, t: float, adjoint: bool) -> tuple:
        """(multiplier, leak) at time t, memoized."""
        if t < 0.0:
            raise ValueError("semigroup time must be nonnegative")
        key = (float(t), bool(adjoint))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        if adjoint:
            mult, leak = self._entry(t, False)
            entry = (np.conj(mult), leak)  # |conj D| = |D|
        else:
            entry = (np.exp(-t * self.symbol),
                     self._leak(lambda psi: np.exp(-t * psi)))
        if len(self._memo) >= _MEMO_LIMIT:
            self._memo.pop(next(iter(self._memo)))
        self._memo[key] = entry
        return entry

    def multiplier(self, t: float, adjoint: bool = False) -> np.ndarray:
        """Half-spectrum multiplier of e^{tL} (or its adjoint) at time t >= 0."""
        return self._entry(t, adjoint)[0]

    def apply_array(self, t: float, values: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Smooth raw values (grid axes last; leading axes broadcast)."""
        return self._apply(*self._entry(t, adjoint), values,
                           "after semigroup application")

    def apply_generator(self, values: np.ndarray) -> np.ndarray:
        """L applied through its symbol (grid axes last; leading axes broadcast)."""
        return self._apply(-self.symbol, self._generator_leak, values,
                           "applying the symbol")

    def _apply(self, mult: np.ndarray, leak: np.ndarray | None,
               values: np.ndarray, what: str) -> np.ndarray:
        """irfftn(rfftn(values) * mult) over the trailing grid axes.

        With a leak, (1/N) sum_k |X(k)| |D(k)| bounds the imaginary part of
        the full complex apply (equals it in 1D) and must stay below 1e-10
        of max(1, sup|out|).
        """
        grid = self.grid
        axes = tuple(range(values.ndim - grid.dims, values.ndim))
        spec = np.fft.rfftn(values, axes=axes)
        out = np.fft.irfftn(spec * mult, s=grid.shape, axes=axes)
        if leak is not None:
            residue = float(np.max(np.abs(spec[(Ellipsis,) + self._bins]) @ leak)
                            ) / grid.node_count
            if residue > _RESIDUE_TOL * max(1.0, float(np.max(np.abs(out)))):
                raise SpectralResidueError(
                    f"imaginary residue {residue!r} {what}")
        return out

    def nyquist_tail(self, t: float, adjoint: bool = False) -> float:
        """Largest multiplier magnitude on the Nyquist shell."""
        return _nyquist_shell_max(self.grid, self.multiplier(t, adjoint))

    def _required_n(self, t: float, tail: float) -> int:
        """Estimate a power-of-two n that would push the tail below tolerance."""
        try:
            alpha = order_alpha(self.triplet)
        except UnsupportedOrderError:
            alpha = 1.0
        target = -np.log(_NYQUIST_TOL)
        current = -np.log(max(tail, 1e-300))
        n_max = max(self.grid.n)
        if current <= 0.0:
            factor = 16.0
        else:
            factor = (target / current) ** (1.0 / alpha)
        need = n_max * max(factor, 1.0)
        n_req = 8
        while n_req < need:
            n_req *= 2
        return max(2 * n_max, n_req)


def kernel_field(cache: KernelCache, t: float, adjoint: bool = False) -> Field:
    """Real-space transition kernel K_t centered at the origin.

    Raises ``ResolutionError`` when the multiplier has not decayed below
    1e-12 at the Nyquist shell, naming a grid size that would resolve it.
    """
    if t <= 0.0:
        raise ValueError("kernel time must be positive")
    grid = cache.grid
    tail = cache.nyquist_tail(t, adjoint)
    if tail >= _NYQUIST_TOL:
        raise ResolutionError(
            f"kernel at t={t:g} unresolved: Nyquist multiplier {tail:.3e} "
            f">= {_NYQUIST_TOL:g}; need n >= {cache._required_n(t, tail)} per axis"
        )
    impulse = np.zeros(grid.shape)
    impulse[(0,) * grid.dims] = 1.0
    vals = cache.apply_array(t, impulse, adjoint)
    vals = np.roll(vals, [ni // 2 for ni in grid.n], axis=tuple(range(grid.dims)))
    vals = vals / grid.cell_volume
    if not np.all(np.isfinite(vals)):
        raise NonFiniteFieldError("kernel synthesis produced non-finite values")
    peak = float(np.max(vals))
    trough = float(np.min(vals))
    if trough < -_RINGING_TOL * peak:
        raise ResolutionError(
            f"kernel ringing {trough:.3e} below -{_RINGING_TOL:g} * peak {peak:.3e}"
        )
    field = Field(grid, vals)
    mass = field.integral()
    if abs(mass - 1.0) > _MASS_TOL:
        raise SpectralResidueError(f"kernel mass {mass!r} deviates from 1")
    return field


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


@dataclass(frozen=True)
class KernelDecayReport:
    """L1 decay certification of a derivative of the heat kernel."""

    alpha: float
    beta: tuple[int, ...]
    times: tuple[float, ...]
    norms: tuple[float, ...]
    k_hat: float
    slope: float
    target_slope: float
    per_decade_slopes: tuple[float, ...]
    passed: bool

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": list(self.beta),
            "times": list(self.times),
            "l1_norms": list(self.norms),
            "K_hat": self.k_hat,
            "slope": self.slope,
            "target_slope": self.target_slope,
            "per_decade_slopes": list(self.per_decade_slopes),
            "pass": self.passed,
        }


def verify_K_assumption(
    triplet: LevyTriplet,
    grid: Grid,
    beta,
    times,
) -> KernelDecayReport:
    """Certify ||D^beta K_t||_L1 ~ t^{-|beta|/alpha} over a ladder of times.

    The L1 norms are computed by grid quadrature of the synthesized kernels;
    the decay exponent comes from a log-log least-squares fit and must land
    within 0.02 of -|beta|/alpha.  K_hat is the largest rescaled norm
    ||D^beta K_t||_L1 * t^{|beta|/alpha} over the ladder.
    """
    if isinstance(beta, int):
        if grid.dims != 1:
            raise ValueError("beta must give one order per axis in d > 1")
        beta = (beta,)
    beta = tuple(int(b) for b in beta)
    if len(beta) != grid.dims or any(b < 0 for b in beta):
        raise ValueError("beta must be a nonnegative multi-index, one entry per axis")
    times = tuple(sorted(float(t) for t in times))
    if len(times) < 2:
        raise ValueError("need at least two times to fit a decay slope")
    if times[0] <= 0.0:
        raise ValueError("kernel times must be positive")

    alpha = order_alpha(triplet)
    weight = sum(beta)
    cache = KernelCache(triplet, grid)
    norms = []
    for t in times:
        kernel = kernel_field(cache, t)
        if weight:
            kernel = spectral_derivative(kernel, beta)
        norms.append(float(grid.cell_volume * np.sum(np.abs(kernel.values))))
    log_t = np.log(np.asarray(times))
    log_n = np.log(np.asarray(norms))
    slope = float(np.polyfit(log_t, log_n, 1)[0])
    per_decade = tuple(
        float((log_n[i + 1] - log_n[i]) / (log_t[i + 1] - log_t[i]))
        for i in range(len(times) - 1)
    )
    target = -weight / alpha
    k_hat = max(n * t ** (weight / alpha) for n, t in zip(norms, times))
    passed = abs(slope - target) <= 0.02
    return KernelDecayReport(
        alpha=alpha,
        beta=beta,
        times=times,
        norms=tuple(norms),
        k_hat=float(k_hat),
        slope=slope,
        target_slope=float(target),
        per_decade_slopes=per_decade,
        passed=passed,
    )
