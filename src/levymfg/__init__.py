"""Numerical workbench for mean field games driven by Levy diffusions.

Spectral heat kernels for Levy generators, mild-solution HJB and
Fokker-Planck solvers on periodic boxes, the coupled MFG fixed point, the
linearized forward-backward system giving the measure derivative of the
value function, and consistency checks for the associated master field.

SciPy is imported inside the functions that call it: importing the
package loads none of it, and neither does a 1D solve with Brownian and
fractional-Laplacian parts.  It loads on the first 2D bounded-Lipschitz
linear program (``scipy.optimize``, ``scipy.sparse``), ``coupling.check_M2``
(``scipy.linalg``), the one-sided stable and CGMY symbols
(``scipy.special``), and the quadratures of ``CGMY.big_jump_mean``,
``measures.verify_psi_jump_moment`` and ``fp.small_jump_second_moment``
(``scipy.integrate``).
"""

from .grid import Field, Grid

__all__ = ["Field", "Grid"]
__version__ = "0.1.0"
