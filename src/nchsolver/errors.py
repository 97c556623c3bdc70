# Exception types shared across the solver library.


class GeometryMismatchError(ValueError):
    """Two grid objects with incompatible geometries were combined."""


class ConfigError(ValueError):
    """Invalid configuration value, key, or kernel/scheme parameter."""


class StateError(ValueError):
    """A scheme state is missing required history or violates its invariants."""


class SolverError(RuntimeError):
    """Nonlinear or linear solver failed to converge.

    Carries the residual history of the failed solve in ``residuals``.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class StabilityError(SolverError):
    """A step was rejected because the scheme's admissibility check failed."""
