"""Matrix-free damped Newton solver with a DFT-diagonal preconditioner.

The implicit schemes reduce to one nonlinear equation per step in the field
u alone, a u + (-Lap)(omega(u)) = rhs (the chemical potential is eliminated
and reconstructed after the solve); the residual and Jacobian they pass in
apply -Lap and the nonlocal operator through their DFT symbols.  The
Jacobian a + (-Lap)(D + G) is circulant except for the pointwise diagonal D
of the potential's derivative, so freezing D at a constant slope gives an
operator diagonal in the DFT basis, which preconditions the inner Krylov
solve (GMRES).

The outer iteration is plain Newton with a backtracking line search on the
residual norm; convergence is declared on the true residual in the
mesh-weighted L2 norm.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .errors import SolverError
from .spectral import apply_symbol, half_spectrum


def spectral_preconditioner(symbol: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of a DFT-diagonal operator with the given (positive) symbol."""
    if np.min(symbol) <= 0.0:
        raise ValueError("preconditioner symbol must be strictly positive")
    inv = 1.0 / half_spectrum(symbol)

    def apply(values: np.ndarray) -> np.ndarray:
        return apply_symbol(values, inv)

    return apply


def newton_solve(residual_map: Callable[[np.ndarray], np.ndarray],
                 jacobian_apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 u_init: np.ndarray,
                 tol: float,
                 max_iter: int,
                 preconditioner: Callable[[np.ndarray], np.ndarray],
                 krylov_tol: float = 1e-12,
                 norm: Callable[[np.ndarray], float] | None = None) -> tuple[np.ndarray, int, list[float]]:
    """Solve residual_map(u) = 0 by preconditioned Newton-Krylov iteration.

    Returns (solution, iterations, residual history).  The initial guess is
    returned unchanged with zero iterations when it already satisfies the
    tolerance.  Raises SolverError (carrying the residual history) when
    ``max_iter`` Newton steps do not reach ``tol``.
    """
    if norm is None:
        norm = lambda r: float(np.sqrt(np.sum(r * r, dtype=np.longdouble)))
    u = np.array(u_init, dtype=np.float64)
    shape = u.shape
    size = u.size

    r = residual_map(u)
    rnorm = norm(r)
    history = [rnorm]
    for iteration in range(max_iter):
        if rnorm <= tol:
            return u, iteration, history

        jac = LinearOperator(
            (size, size),
            matvec=lambda v: jacobian_apply(u, v.reshape(shape)).ravel(),
        )
        precond = LinearOperator(
            (size, size),
            matvec=lambda v: preconditioner(v.reshape(shape)).ravel(),
        )
        # Bounded Krylov work per Newton step (maxiter counts restart cycles);
        # an inexact direction is acceptable, the line search guards it.
        delta, info = gmres(jac, -r.ravel(), M=precond, rtol=krylov_tol, atol=0.0,
                            restart=min(size, 40), maxiter=4)
        if info < 0:
            raise SolverError(f"inner Krylov solve failed (info={info})", history)
        delta = delta.reshape(shape)

        # Backtracking line search on the residual norm.
        alpha = 1.0
        accepted = False
        while alpha >= 2.0**-30:
            trial = u + alpha * delta
            r_trial = residual_map(trial)
            r_trial_norm = norm(r_trial)
            if r_trial_norm <= (1.0 - 1e-4 * alpha) * rnorm:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise SolverError(
                f"Newton stagnated at residual {rnorm:.3e} (no descent direction); "
                "the step is likely outside the solvable regime",
                history,
            )
        u, r, rnorm = trial, r_trial, r_trial_norm
        history.append(rnorm)

    if rnorm <= tol:
        return u, max_iter, history
    raise SolverError(
        f"Newton iteration did not reach tolerance {tol:.3e} in {max_iter} steps "
        f"(last residual {rnorm:.3e})",
        history,
    )
