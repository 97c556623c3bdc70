"""Energy-stable schemes for the 2D periodic nonlocal Cahn-Hilliard equation.

A solver library plus CLI for the conserved phase-field model whose
chemical potential couples the double-well nonlinearity to a nonlocal
interaction kernel through a periodic convolution.  Five fully discrete
schemes (backward Euler, convex splitting, stabilized linear semi-implicit,
BDF2, and a linearly implicit two-step scheme) share the staggered-grid
spatial discretization and are cross-validated against dense oracles.
"""

from types import ModuleType as _ModuleType

from .driver import (DecayProbe, DiagnosticsRecord, RunOptions, RunResult,
                     equilibrium_residual, h1h2_probe, random_initial_field, run)
from .energetics import (PotentialSpec, chemical_potential, energy,
                         modified_energy_two_step, modified_energy_two_step_linear,
                         potential_d1, potential_d2, potential_value)
from .errors import (ConfigError, GeometryMismatchError, NonZeroMeanError,
                     SolverError, StabilityError, StateError)
from .grid import (EdgeField, Field, GridGeometry, edge_inner_product, inner_product,
                   mean, norm2, norm4, project_zero_mean)
from .kernels import KernelSpec, SampledKernel, convolve, gamma0, sample_kernel
from .solvers import newton_solve
from .spectral import (SpectralCache, divergence, gradient, inverse_laplacian_zero_mean,
                       laplacian, laplacian_eigenvalues, make_cache, norm_neg1)
from .steppers import (SchemeConfig, SchemeState, SolvabilityReport, StepResult, advance,
                       check_solvability)

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
