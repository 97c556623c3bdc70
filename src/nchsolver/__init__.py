"""Energy-stable schemes for the 2D periodic nonlocal Cahn-Hilliard equation.

A solver library plus CLI for the conserved phase-field model whose
chemical potential couples the double-well nonlinearity to a nonlocal
interaction kernel through a periodic convolution.  Five fully discrete
schemes (backward Euler, convex splitting, stabilized linear semi-implicit,
BDF2, and a linearly implicit two-step scheme) share the staggered-grid
spatial discretization and are cross-validated against dense oracles.
"""

from types import ModuleType as _ModuleType

from .driver import (DiagnosticsRecord, RunOptions, RunResult, equilibrium_residual,
                     random_initial_field, run)
from .energetics import (Model, PotentialSpec, chemical_potential, energy, potential_d1,
                         potential_d2, potential_value)
from .errors import (ConfigError, GeometryMismatchError, SolverError, StabilityError,
                     StateError)
from .grid import Field, GridGeometry, mean, norm2
from .kernels import KernelSpec, SampledKernel, sample_kernel
from .solvers import newton_solve
from .spectral import SpectralCache, laplacian_eigenvalues, make_cache
from .steppers import SchemeConfig, SchemeState, SolvabilityReport, advance, check_solvability

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
