"""Levy triplets and their Fourier symbols.

A generator is described by a triplet (B, A, jumps): drift vector, symmetric
PSD diffusion matrix, and a list of jump specifications. Its symbol is

    Psi(xi) = -i B.xi + xi.A xi + sum_jumps Int (1 - e^{i xi z} + i xi z 1_{|z|<1}) nu(dz)

so the semigroup multiplier is e^{-t Psi(xi)} and the adjoint generator has
the conjugate symbol. The stable families (fractional, anisotropic,
one-sided Riesz-Feller) and CGMY have closed-form symbols; a numeric-density
fallback integrates the compensated integrand directly. A triplet is built
from its parts, e.g. ``LevyTriplet(jumps=FractionalLaplacian(1.5))`` or
``LevyTriplet(dims=d, diffusion=np.eye(d))`` for the Laplacian.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import QuadratureError, UnsupportedOrderError
from .grid import Grid, _check_integer

_SYMBOL_TOL = 1e-12


# --------------------------------------------------------------------------
# jump specifications


@dataclass(frozen=True)
class FractionalLaplacian:
    """Isotropic stable jumps: symbol |xi|^alpha, any dimension."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("fractional order must lie in (0, 2)")

    @property
    def order(self) -> float:
        return self.alpha

    def symbol(self, xi: tuple[np.ndarray, ...]) -> np.ndarray:
        mag2 = sum(x**2 for x in xi)
        return mag2 ** (self.alpha / 2.0) + 0j


@dataclass(frozen=True)
class AnisotropicStable:
    """Sum of one-dimensional stable operators: symbol sum_i |xi_i|^alpha_i."""

    alphas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        for a in self.alphas:
            if not 1.0 < a < 2.0:
                raise ValueError("anisotropic orders must lie in (1, 2)")

    @property
    def order(self) -> float:
        return min(self.alphas)

    def symbol(self, xi: tuple[np.ndarray, ...]) -> np.ndarray:
        if len(xi) != len(self.alphas):
            raise ValueError("anisotropic spec dimension mismatch")
        out = sum(np.abs(x) ** a for x, a in zip(xi, self.alphas))
        return out + 0j


@dataclass(frozen=True)
class RieszFeller:
    """One-sided 1D jumps nu(z) = z^{-1-alpha} on (0, inf), alpha in (1, 2).

    With the |z|<1 compensation the symbol has the closed form
    -Gamma(-alpha) (-i xi)^alpha - i xi / (alpha - 1).
    """

    alpha: float

    def __post_init__(self):
        if not 1.0 < self.alpha < 2.0:
            raise ValueError("one-sided stable order must lie in (1, 2)")

    @property
    def order(self) -> float:
        return self.alpha

    def symbol(self, xi: tuple[np.ndarray, ...]) -> np.ndarray:
        from scipy.special import gamma as gamma_fn

        if len(xi) != 1:
            raise ValueError("one-sided stable jumps are one-dimensional")
        u = xi[0].astype(complex)
        a = self.alpha
        return -gamma_fn(-a) * (-1j * u) ** a - 1j * u / (a - 1.0)


@dataclass(frozen=True)
class CGMY:
    """Tempered-stable (CGMY) jumps on the line.

    nu(z) = C e^{-G|z|} |z|^{-1-Y} for z < 0, C e^{-M z} z^{-1-Y} for z > 0.
    """

    C: float
    G: float
    M: float
    Y: float

    def __post_init__(self):
        if self.C <= 0 or self.G <= 0 or self.M <= 0:
            raise ValueError("C, G, M must be positive")
        if not 1.0 < self.Y < 2.0:
            raise ValueError("Y must lie in (1, 2) for solver-grade orders")

    @property
    def order(self) -> float:
        return self.Y

    def density(self, z):
        z = np.asarray(z, dtype=float)
        out = np.where(
            z > 0,
            self.C * np.exp(-self.M * np.abs(z)) * np.abs(z) ** (-1.0 - self.Y),
            self.C * np.exp(-self.G * np.abs(z)) * np.abs(z) ** (-1.0 - self.Y),
        )
        return out

    def big_jump_mean(self) -> float:
        """Int_{|z|>=1} z nu(dz), used to undo the full compensation."""
        from scipy.integrate import quad

        pos, _ = quad(lambda z: z * self.C * math.exp(-self.M * z) * z ** (-1 - self.Y),
                      1.0, np.inf)
        neg, _ = quad(lambda z: z * self.C * math.exp(-self.G * z) * z ** (-1 - self.Y),
                      1.0, np.inf)
        return pos - neg

    def symbol(self, xi: tuple[np.ndarray, ...]) -> np.ndarray:
        from scipy.special import gamma as gamma_fn

        if len(xi) != 1:
            raise ValueError("CGMY jumps are one-dimensional")
        u = xi[0].astype(complex)
        C, G, M, Y = self.C, self.G, self.M, self.Y
        # fully-compensated exponent, from Gamma-function identities
        full = C * gamma_fn(-Y) * (
            M**Y - (M - 1j * u) ** Y + G**Y - (G + 1j * u) ** Y
        ) + 1j * u * C * gamma_fn(1.0 - Y) * (M ** (Y - 1.0) - G ** (Y - 1.0))
        # switch to the truncated (|z|<1) compensation used throughout
        return full - 1j * u * self.big_jump_mean()


@dataclass(frozen=True)
class NumericDensity:
    """Tabulated/callable 1D Levy density integrated numerically.

    The compensated integrand (1 - e^{i xi z} + i xi z 1_{|z|<1}) nu(z) is
    O(z^2 nu) at the origin, so log-spaced nodes resolve it; the tail is
    truncated at z_max, where the density must be negligible.  The one
    family that cannot derive its order: ``alpha_low`` declares it, in
    (0, 2].
    """

    density: object  # callable z -> nu(z)
    z_min: float = 1e-8
    z_max: float = 60.0
    nodes_inner: int = 400
    nodes_tail: int = 400
    alpha_low: float | None = None

    def __post_init__(self):
        if self.alpha_low is not None and not 0.0 < self.alpha_low <= 2.0:
            raise ValueError("alpha_low must lie in (0, 2]")

    @property
    def order(self) -> float:
        if self.alpha_low is None:
            raise UnsupportedOrderError(
                "NumericDensity needs a user-declared alpha_low")
        return self.alpha_low

    def _nodes(self, lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
        z = np.geomspace(lo, hi, n)
        w = np.zeros_like(z)
        w[1:-1] = 0.5 * (z[2:] - z[:-2])
        w[0] = 0.5 * (z[1] - z[0])
        w[-1] = 0.5 * (z[-1] - z[-2])
        return z, w

    def tail_ok(self) -> bool:
        return abs(float(self.density(self.z_max))) * self.z_max < 1e-12 and \
            abs(float(self.density(-self.z_max))) * self.z_max < 1e-12

    def symbol(self, xi: tuple[np.ndarray, ...]) -> np.ndarray:
        if len(xi) != 1:
            raise ValueError("numeric densities are one-dimensional")
        if not self.tail_ok():
            raise QuadratureError(
                f"density mass at the z_max={self.z_max} cutoff is not "
                "negligible; enlarge z_max")
        u = xi[0]
        out = np.zeros(u.shape, dtype=complex)
        zi, wi = self._nodes(self.z_min, 1.0, self.nodes_inner)
        zt, wt = self._nodes(1.0, self.z_max, self.nodes_tail)
        for sign in (+1.0, -1.0):
            for z, w, compensate in ((zi, wi, True), (zt, wt, False)):
                zz = sign * z
                nu = np.asarray(self.density(zz), dtype=float)
                phase = np.exp(1j * np.multiply.outer(u, zz))
                if compensate:
                    integrand = 1.0 - phase + 1j * np.multiply.outer(u, zz)
                else:
                    integrand = 1.0 - phase
                out += integrand @ (w * nu)
        return out


JumpSpec = (FractionalLaplacian, AnisotropicStable, RieszFeller, CGMY,
            NumericDensity)


# --------------------------------------------------------------------------
# triplets


@dataclass(frozen=True)
class LevyTriplet:
    """Drift + diffusion + jumps defining a constant-coefficient generator.

    Its regularity order (``order_alpha``), used by step-size budgets and
    the kernel-bound verification, comes from the parts. Solvers require
    it > 1; pure kernel generation is allowed at any order in (0, 2].
    """

    dims: int = 1
    drift: tuple[float, ...] = ()
    diffusion: tuple[tuple[float, ...], ...] = ()
    jumps: tuple = ()
    _eff_order: float | None = dc_field(default=None, repr=False)

    def __init__(self, dims=1, drift=None, diffusion=None, jumps=()):
        d = _check_integer("dims", dims)
        if d not in (1, 2):
            raise ValueError("only d in {1, 2}")
        B = np.zeros(d) if drift is None else np.asarray(drift, dtype=float)
        if B.shape != (d,):
            raise ValueError("drift must be a length-d vector")
        A = np.zeros((d, d)) if diffusion is None else np.asarray(
            diffusion, dtype=float)
        if A.shape != (d, d):
            raise ValueError("diffusion must be d x d")
        if np.max(np.abs(A - A.T)) > 1e-14:
            raise ValueError("diffusion matrix must be symmetric (1e-14)")
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        if np.min(eigs) < -1e-12:
            raise ValueError("diffusion matrix must be PSD (eigs >= -1e-12)")
        if isinstance(jumps, JumpSpec):
            jumps = (jumps,)
        jumps = tuple(jumps)
        object.__setattr__(self, "dims", d)
        object.__setattr__(self, "drift", tuple(B))
        object.__setattr__(self, "diffusion", tuple(map(tuple, A)))
        object.__setattr__(self, "jumps", jumps)
        object.__setattr__(self, "_eff_order", _effective_order(A, jumps))

    @property
    def drift_vector(self) -> np.ndarray:
        return np.asarray(self.drift, dtype=float)

    @property
    def diffusion_matrix(self) -> np.ndarray:
        return np.asarray(self.diffusion, dtype=float)


def _jump_densities(triplet: LevyTriplet):
    """One-sided jump densities z -> nu(sign * z), z > 0, sign = +1 then -1.

    Symbol-only stable families contribute the unnormalized density
    |z|^{-1-alpha} per stability index.
    """
    for jump in triplet.jumps:
        if hasattr(jump, "density"):
            densities = [jump.density]
        else:
            alphas = getattr(jump, "alphas", None) or (jump.alpha,)
            densities = [lambda z, a=a: np.abs(z) ** (-1.0 - a)
                         for a in alphas]
        for dens in densities:
            for sign in (1.0, -1.0):
                yield lambda z, dens=dens, sign=sign: float(dens(sign * z))


def _jump_integral(triplet: LevyTriplet, weight, lo: float, hi: float,
                   limit: int, failure: str) -> float:
    """Sum over ``_jump_densities`` of the quadrature of weight * density.

    Each term integrates over [lo, hi]; an ``IntegrationWarning`` (quad's
    only report of, say, a divergent integral), a non-finite value or an
    error estimate above 1e-6 of max(1, |value|) raises QuadratureError
    with the message ``failure``.
    """
    from scipy.integrate import IntegrationWarning, quad

    total = 0.0
    for dens in _jump_densities(triplet):
        with warnings.catch_warnings():
            warnings.simplefilter("error", IntegrationWarning)
            try:
                val, err = quad(lambda z: weight(z) * dens(z), lo, hi,
                                epsabs=1e-10, epsrel=1e-8, limit=limit)
            except IntegrationWarning:
                raise QuadratureError(failure) from None
        if not np.isfinite(val) or err > 1e-6 * max(1.0, abs(val)):
            raise QuadratureError(failure)
        total += val
    return total


def _effective_order(A: np.ndarray, jumps: tuple) -> float | None:
    if np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 1e-12:
        return 2.0
    return min((j.order for j in jumps), default=None)


def order_alpha(triplet: LevyTriplet) -> float:
    """The order alpha entering step budgets and kernel-bound fits.

    A nondegenerate diffusion matrix forces 2 (its kernel factor is the
    strongest regularizer); otherwise the minimum of jump component orders.
    """
    if triplet._eff_order is None:
        raise UnsupportedOrderError(
            "triplet has no derivable regularity order")
    return triplet._eff_order


def symbol_eval(triplet: LevyTriplet, grid: Grid) -> np.ndarray:
    """Symbol Psi(xi) on the grid's FFT layout (complex array).

    Guarantees Psi(0) = 0 and Re Psi >= -1e-12 (relative); the adjoint
    generator's symbol is the complex conjugate.
    """
    if grid.dims != triplet.dims:
        raise ValueError("grid/triplet dimension mismatch")
    xi = grid.wavenumber_grids()
    psi = np.zeros(grid.shape, dtype=complex)
    B = triplet.drift_vector
    A = triplet.diffusion_matrix
    for i in range(grid.dims):
        if B[i]:
            psi -= 1j * B[i] * xi[i]
        for k in range(grid.dims):
            if A[i, k]:
                psi += A[i, k] * xi[i] * xi[k]
    for j in triplet.jumps:
        psi = psi + j.symbol(xi)
    scale = max(1.0, float(np.max(np.abs(psi))))
    origin = (0,) * grid.dims
    if abs(psi[origin]) > _SYMBOL_TOL * scale:
        raise QuadratureError(
            f"symbol does not vanish at xi=0: {psi[origin]!r}")
    if float(np.min(psi.real)) < -_SYMBOL_TOL * scale:
        raise QuadratureError(
            f"symbol has negative real part: {float(np.min(psi.real)):.3e}")
    return psi
