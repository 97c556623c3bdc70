"""Matrix-free preconditioned fixed-point and damped Newton-Krylov solver.

The implicit schemes reduce to one nonlinear equation per step,
a u + (-Lap)(omega(u)) = rhs, and solve it for the half-spectrum
coefficients rfft2(u), with a pointwise-division preconditioner (see
``steppers._newton_step``).  ``newton_solve`` knows none of this: the
unknown may be a real or a complex array, and the inner Krylov solve
(GMRES) works on its float64 view.

The solve starts with preconditioned fixed-point steps u <- u - P^{-1} F(u),
one residual each and no Jacobian apply.  They go on while each cuts the
residual at least ``FIXED_POINT_CONTRACTION``-fold, which holds when P is
close to the Jacobian, as the frozen-coefficient preconditioner of the
schemes is for moderate step sizes.  Once a step contracts less, plain
Newton with a backtracking line search on the residual norm continues from
the best iterate.  A caller that already holds the guess's residual may
pass it, and the first fixed-point trial reads it in place of an
evaluation.  Convergence is declared on the true residual, evaluated at
its iterate, in the norm the caller passes (the steppers pass the
mesh-weighted L2 norm of the field, taken by Parseval).  GMRES runs to the fixed relative tolerance
``KRYLOV_RTOL``.  An inner solve that stops at its iteration cap does not
fail the step, since the line search guards the direction it returns; a
failed solve reports how many inner solves did not converge.

GMRES is ``scipy.sparse.linalg.gmres``, imported on the first call of this
module's ``gmres``, and ``LinearOperator`` on the first Newton-Krylov step,
so a process whose solves all end in fixed-point steps never loads
``scipy.sparse`` (about 8 MB resident).  The first Newton-Krylov step of a
process pays that import once, about 70-80 ms.  ``newton_solve`` looks
``gmres`` up in this module at each call, so it can be wrapped or replaced
from outside.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import SolverError


def gmres(*args, **kwargs):
    """``scipy.sparse.linalg.gmres``, imported on first call."""
    from scipy.sparse.linalg import gmres as scipy_gmres
    return scipy_gmres(*args, **kwargs)


def _float_view(x: np.ndarray) -> np.ndarray:
    """Flat float64 view of a real or complex array (real and imaginary parts interleaved)."""
    return np.ascontiguousarray(x).reshape(-1).view(np.float64)


# A fixed-point step that cuts the residual less than this many times hands
# over to Newton-Krylov, whose convergence is then worth its Jacobian applies.
FIXED_POINT_CONTRACTION = 10.0

# Relative tolerance of each inner GMRES solve.
KRYLOV_RTOL = 1e-12


def newton_solve(residual_map: Callable[[np.ndarray], np.ndarray],
                 jacobian_apply: Callable[[np.ndarray, np.ndarray], np.ndarray],
                 u_init: np.ndarray,
                 tol: float,
                 max_iter: int,
                 preconditioner: Callable[[np.ndarray], np.ndarray],
                 norm: Callable[[np.ndarray], float],
                 r_init: Optional[np.ndarray] = None) -> tuple[np.ndarray, int, list[float]]:
    """Solve residual_map(u) = 0 by preconditioned fixed-point steps, then Newton-Krylov.

    ``u_init`` is a real or complex array; the callables receive and return
    arrays of its shape and dtype, ``jacobian_apply(u, v)`` applies the
    Jacobian at ``u`` to ``v``, and ``norm`` measures a residual.
    ``u_init`` is never written, and it is itself the first iterate (no
    copy) when it has the unknown's dtype, so the callables can recognise
    it.  A fixed-point trial that does not lower the residual is dropped,
    and Newton-Krylov takes that iteration instead.
    ``r_init``, when given, stands for residual_map(u_init), which a caller
    may already hold: the first fixed-point trial reads it, but convergence
    is declared, and a Newton-Krylov step taken, only on a residual
    evaluated at its iterate, so ``u_init`` is evaluated after all when
    ``r_init`` meets the tolerance or the first trial is dropped.  A wrong
    ``r_init`` can cost iterations, never pass as converged.
    Returns (solution, iterations, residual history), the iterations
    counting fixed-point and Newton steps alike; ``max_iter`` bounds their
    sum.  The initial guess is returned unchanged with zero iterations when
    it already satisfies the tolerance.  Raises SolverError (carrying the
    residual history, its message counting the inner solves that did not
    converge) when ``max_iter`` iterations do not reach ``tol``.
    """
    u = np.asarray(u_init, dtype=np.result_type(u_init, np.float64))
    shape, dtype = u.shape, u.dtype
    size = _float_view(u).size

    def unknown(v):
        # A copy: GMRES works on the arrays the callables return, which may be their input.
        return np.array(v, dtype=np.float64).reshape(-1).view(dtype).reshape(shape)

    supplied = r_init is not None  # r is the caller's, not yet evaluated at u
    r = r_init if supplied else residual_map(u)
    rnorm = norm(r)
    if supplied and rnorm <= tol:
        r = residual_map(u)
        rnorm, supplied = norm(r), False
    history = [rnorm]
    solves = unconverged = 0
    fixed_point = True
    for iteration in range(max_iter):
        if rnorm <= tol:
            return u, iteration, history

        if fixed_point:
            trial = u - preconditioner(r)
            r_trial = residual_map(trial)
            r_trial_norm = norm(r_trial)
            fixed_point = r_trial_norm * FIXED_POINT_CONTRACTION <= rnorm
            if r_trial_norm < rnorm:
                u, r, rnorm, supplied = trial, r_trial, r_trial_norm, False
                history.append(rnorm)
                continue
            if supplied:  # the first trial was dropped: Newton-Krylov reads u's own residual
                r = residual_map(u)
                rnorm, supplied = norm(r), False
                history[-1] = rnorm
                if rnorm <= tol:
                    return u, iteration, history

        from scipy.sparse.linalg import LinearOperator
        jac = LinearOperator(
            (size, size),
            matvec=lambda v: _float_view(jacobian_apply(u, unknown(v))), dtype=np.float64,
        )
        precond = LinearOperator(
            (size, size),
            matvec=lambda v: _float_view(preconditioner(unknown(v))), dtype=np.float64,
        )
        # Bounded Krylov work per Newton step (maxiter counts restart cycles);
        # an inexact direction is acceptable, the line search guards it.
        delta, info = gmres(jac, -_float_view(r), M=precond, rtol=KRYLOV_RTOL, atol=0.0,
                            restart=min(size, 40), maxiter=4)
        if info < 0:
            raise SolverError(f"inner Krylov solve failed (info={info})", history)
        solves += 1
        unconverged += info > 0
        delta = unknown(delta)

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
                "the step is likely outside the solvable regime "
                f"({unconverged} of {solves} inner solves did not converge)",
                history,
            )
        u, r, rnorm = trial, r_trial, r_trial_norm
        history.append(rnorm)

    if rnorm <= tol:
        return u, max_iter, history
    raise SolverError(
        f"Newton iteration did not reach tolerance {tol:.3e} in {max_iter} steps "
        f"(last residual {rnorm:.3e}; {unconverged} of {solves} inner solves did not converge)",
        history,
    )
