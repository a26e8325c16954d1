"""Error taxonomy shared by all modules."""


class LevyMfgError(Exception):
    """Base class for all package errors."""


class GridMismatchError(LevyMfgError):
    """Two fields/operators live on different grids."""


class NonFiniteFieldError(LevyMfgError):
    """A field contains NaN or Inf values."""


class UnsupportedOrderError(LevyMfgError):
    """Requested derivative or operator order outside the supported range."""


class SpectralResidueError(LevyMfgError):
    """A spectral operator broke a conservation it must keep exactly.

    Raised when a synthesized heat kernel's mass leaves 1, and when the
    master residual's generator moves constants.
    """


class QuadratureError(LevyMfgError):
    """Numeric Levy-measure quadrature failed its tail/convergence test."""


class ResolutionError(LevyMfgError):
    """The grid cannot resolve a kernel/mollifier at the requested scale."""


class BudgetError(LevyMfgError):
    """A step-size, node-count, or matrix-size budget was exceeded."""


class DivergenceError(LevyMfgError):
    """An iterative solve blew up (non-finite or runaway values)."""


class InstabilityError(LevyMfgError):
    """A conservation/positivity monitor tripped (e.g. mass drift)."""
