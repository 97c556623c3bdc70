"""The five fully discrete schemes as one-step (or two-step) maps.

Every scheme advances the conserved-order-parameter system

    (u^{n+1} - u^n) / tau = Lap(omega^{n+1})        (mass equation)
    omega = F'(u) + eps^2 [J(*)1] u - eps^2 [J (*) u]   (chemical potential)

in one of five ways:

* ``backward_euler``  -- fully implicit, first order; nonlinear solve.
* ``convex_splitting``-- implicit convex part (cubic + strong quadratic),
  explicit concave part; unconditionally energy stable; nonlinear solve.
* ``ssi1``            -- stabilized linear semi-implicit with the truncated
  potential, explicit F_K'(u^n) plus S (u^{n+1} - u^n); one DFT-diagonal
  linear solve; energy stable for S >= beta/2.
* ``bdf2``            -- two-step backward differentiation with the implicit
  chemical potential; dissipates the modified energy.
* ``two_li``          -- two-step linearly implicit with extrapolated
  2 F_K'(u^n) - F_K'(u^{n-1}); one DFT-diagonal linear solve.

Every scheme is one equation per step,

    a u + (-Lap)(omega(u)) = rhs,

and ``advance`` takes it: it builds (a, rhs) once, (1/tau, u^n/tau) for the
one-step schemes and (3/(2 tau), (4 u^n - u^{n-1})/(2 tau)) for the
two-step ones.  The schemes differ only in how omega treats its terms and
in the functional they dissipate, so each scheme is one row (``_Scheme``)
of one private table, ``_SCHEMES``, and no function tests a scheme's name:

    scheme            steps  potential    bootstrap        I      slope  omega's other parts
    backward_euler    1      either       --               G      -1     local F'
    convex_splitting  1      double well  --               sigma  0      local u^3; explicit
                                                                         (G - 1 - sigma) u_hat^n
    ssi1              1      truncated    --               S + G  --     explicit F_K'(u^n) - S u^n
    bdf2              2      either       backward_euler   G      -1     local F'
    two_li            2      truncated    ssi1, S raised   G      --     explicit
                                          to beta/2                      2 F_K'(u^n) - F_K'(u^{n-1})

I is the symbol of omega's implicit linear part (sigma = 2 eps^2 [J(*)1]),
and slope the pointwise slope a Newton step's preconditioner freezes; a
row with no slope is a linear scheme, one DFT-diagonal solve.  A row also
holds its admissibility rule and, for two_li, the weight beta/2 of
||du||_2^2 in the modified energy.  ``advance`` reads the row's step
count, bootstrap, parts and slope, ``_operator`` its I and slope,
``_newton_step`` its slope, ``check_solvability`` its rule,
``modified_energy`` its weight, ``cli`` its step count and bootstrap, and
``SchemeConfig`` its potential, which ``config`` also takes as the default
of ``model.potential.type``.  ``SCHEMES`` and ``TWO_STEP_SCHEMES`` are read
off the table.  beta = 3K^2 - 1, the curvature bound of the truncated
potential F_K, is read in one place, the run's potential
(``model.potential.curvature_bound``): by the ssi1 and two_li rules, the
two_li bootstrap and the two_li weight, all rows of schemes that require
F_K.

Both operators are diagonal in the DFT basis and applied only as products
of their half-spectrum symbols with spectra, never on the grid: -Lap
through lambda = ``cache.minus_laplacian_eigenvalues`` and the nonlocal
operator eps^2 ([J(*)1] u - [J (*) u]) through G, both read from the run's
``energetics.Model``, which builds G once per run.  The 5-point stencil
``spectral.laplacian_apply``, the one stencil of the library, is the
reference the steps are tested against, not a production path.  What the
convergence proof needs of each scheme is the functional it dissipates:
the energy E for the one-step schemes, and for the two-step ones the
modified energy ``modified_energy``, the one place it is written.

Admissibility is decided by an exact per-mode check instead of a
non-constructive kernel constant: for each nonzero DFT mode the convexity
quantity

    q(m) = 1 / (c_s tau lambda_m) + eps^2 [J(*)1] - eps^2 j_hat_m - 1

must be nonnegative (c_s = 1 for backward Euler, 2/3 for the two-step
scheme, matching the coefficient of the negative-norm term in the
respective convexity computations).  The linear schemes use the closed-form
inequalities on (S, beta) and (beta, tau, gamma0), with the same per-mode
surrogate replacing the kernel constant.  ``check_solvability`` is the one
place that decides admissibility, ssi1's S >= beta/2 included: a
``SchemeConfig`` holds any step size and stabilization.  The policy field
decides whether an inadmissible configuration rejects the step, warns, or
is ignored.  ``advance``, the one way to take a step, is the one place
that applies it, once per configuration and model.  It first refuses a
model that is not the configuration's (another eps or potential), since a
configuration still holds its own eps and K while the check and the step
read them from the model; under ``ignore`` a step is an unchecked solve.

The symbols a step configuration solves with -- a, the symbol I of
omega's implicit linear part, the linear part a + lambda I, and a Newton
step's preconditioner symbol and its reciprocal -- do not change from step
to step.  They are built once per configuration (``_Operator``):
``advance`` builds them where it vets the configuration, and keeps them on
the model they derive from (``Model._operators``); a two-step scheme's
bootstrap, which steps once, is built for that step alone.

No level is transformed forward by a step: a step reads rfft2(u^n) (and
rfft2(u^{n-1})) from the spectra the levels keep (``Field.spectrum``), for
the right-hand side rfft2(rhs) and the Newton guess, and builds the new
level from both forms its solve produced (``_level``): the values, the
mass-snapped irfft2 of the solved spectrum, and that spectrum, projected
onto the coefficients of a real field with its constant mode N^2 times the
conserved mean.  That spectrum serves omega's implicit part, the record's
energy and ||du||_{-1} (``spectral.norm_neg1``), and the next step.  A
Newton step that returns its guess returns u^n's own level.  A step
returns omega as its half spectrum alone (``Field(geometry,
spectrum=...)``), which the record's norms read by Parseval, so no step
transforms omega back to the grid.  All transforms are the package's
pair ``grid.rfft2`` and ``grid.irfft2``.  An inverse transform's column
pass writes into an array the step owns: a linear step's right-hand
side, dead once the solve has read it, and one spare spectrum a Newton
step allocates for its iterates and Jacobian applies, which also takes
each product lambda local_hat of its residuals.  A step computes into
arrays it owns where it can and drops every other array at its last read
(see ``_newton_step``), with the same floating-point operations in the
same order, so a run holds about 14 N x N arrays at its peak under
backward Euler, 16 under BDF2, 15 under convex splitting, 12.5 under
two_li and 10 under ssi1 (``tests/test_working_set.py``).

The fully implicit potential (backward Euler and BDF2, which differ only in
(a, rhs)) and convex splitting share one Newton step (``_newton_step``):
with omega = local(u) + I u + e eliminated, it solves

    a u_hat + lambda (I u_hat + e_hat + rfft2(local(u))) = rhs_hat

for the half-spectrum coefficients u_hat = rfft2(u) alone, matrix-free.
Backward Euler and BDF2 take local = F', the implicit symbol I = G and no
explicit part e; convex splitting takes the cubic local(u) = u^3,
I = sigma = 2 eps^2 [J(*)1] and e_hat = (G - 1 - sigma) u_hat^n, a product
with the spectrum of u^n.  An iterate's grid point is irfft2 of it with
the mass snapped, and the guess, the spectrum of u^n, has u^n's own values
as its point.  The step takes u and omega from its
last residual, which is evaluated at the returned iterate: u adopts that
residual's point and the iterate as its spectrum, and omega's spectrum is
its rfft2(local(u)) plus I times u's spectrum (plus e_hat), so a backward
Euler or BDF2 level's omega is ``chemical_potential(u)`` bit for bit.
That step's first residual is therefore built from the omega of the state
it leaves, with no transform
(``chemical_potential(u^n)`` when the state has none, as on resuming from a
checkpoint).  The linear part a + lambda I is a product, a residual or
Jacobian apply takes one inverse and one forward transform around the
pointwise part of omega, and the frozen-coefficient preconditioner
a + lambda (slope + I) is a product with its reciprocal.  It is close
enough to the Jacobian that ``newton_solve`` first takes fixed-point steps
with it, one residual each, and hands over to Newton-Krylov once they stop
contracting.  Convex splitting's omega holds an explicit part of u^{n-1},
so it is not the chemical potential and the first residual is evaluated.
Newton stops at max(newton_tol, C eps scale), where scale measures the
step's equation terms and the rounding of local(u), so the stop holds at
every N although that rounding grows like 1/h^2.  Its norms are rescaled
where squaring overflows (``_norm``), so a tiny tau, whose rhs = u^n/tau
is huge, still gives a finite stop; a stop that is not finite even so
raises ``SolverError``.
The two linear schemes share one DFT-diagonal solve (``_linear_step``) of
a u + (-Lap)(explicit + shift u) = rhs, with the spectrum of the explicit
part, rfft2(explicit), from the row and shift = I, a product with the
reciprocal of the denominator; omega's spectrum is rfft2(explicit) plus
shift times the new level's spectrum.  A two_li step evaluates F_K' once,
at u^n: it takes F_K'(u^{n-1}) off the model, where the step that
evaluated it (the ssi1 bootstrap or the two_li step before) left it keyed
by the level u^{n-1}, and leaves F_K'(u^n) there in its place before it
solves (``Model._d1``), so the model holds one such array and a one-step
run none.  A level the model holds none for (a fresh or resumed state, or one
stepped a second time) has it evaluated, to the same bits.

Accepted steps re-center the solution mass on the conserved value (a
shift at rounding magnitude), so mass is conserved exactly along
trajectories.  A step that diverges -- a non-finite new level, or a
two-step pair whose masses no longer agree -- raises ``SolverError`` like
a failed solve, and so does a linear step whose modal denominator
a + lambda (S + G) is not positive somewhere.  Neither a step nor the
admissibility check issues numpy's floating-point warnings: a tau so small
that 1 / (tau lambda) overflows leaves that mode admissible, and a step
that overflows to a non-finite level raises ``SolverError``.

Steps are sequential by nature (level n+1 needs level n); independent
simulations may run concurrently on shared models, whose caches are keyed
by what each entry derives from (``Model``).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .energetics import Model, PotentialSpec, chemical_potential, potential_d1, potential_d2
from .errors import ConfigError, SolverError, StabilityError, StateError
from .grid import (Field, GridGeometry, _freeze, _norm2_values, _reduce, irfft2, mean,
                   require_same_geometry, rfft2)
from .kernels import SampledKernel
from .solvers import newton_solve
from .spectral import SpectralCache, _project_hermitian, norm2_modes

STABILITY_POLICIES = ("enforce", "warn", "ignore")


class _Scheme(NamedTuple):
    """One scheme's row of ``_SCHEMES``: all that the steps, the check and the records vary by.

    ``potential`` is the potential variant the scheme requires (None for
    either) and ``bootstrap(cfg, model)`` maps a two-step configuration to
    its first-order startup one (None for a one-step scheme): BDF2 starts
    with one backward-Euler step, two_li with one ssi1 step, its
    stabilization raised to beta/2 of the model's potential if needed.
    Either preserves mass, which is all the two-step stability results
    require of the starting pair, and keeps eps and the potential, so one
    ``Model`` serves the startup and the steps after it.
    ``implicit(cfg, model)`` builds the
    symbol I of omega's implicit linear part, and ``slope`` is the pointwise
    slope a Newton step's preconditioner freezes, None for one DFT-diagonal
    solve.
    ``omega(state, cfg, model, op)`` gives omega's other parts: the
    pointwise ``local`` and its derivative (None for a linear scheme) and
    the spectrum of the explicit part (None if there is none), and the
    F'(u^n) it evaluated on the way (None if it evaluated none).
    ``admissibility(cfg, model, lam, gap)``, on the half spectrum, gives
    (per_mode_min, margin, admissible) before gamma0 > 0 is required, and
    ``increment_weight(model)`` weighs ||du||_2^2 in the modified energy
    (None for no such term).  A row calls ``potential_d1``, ``potential_d2``
    and ``rfft2`` through this module's names, looked up at each call.
    """

    two_step: bool
    potential: Optional[str]
    bootstrap: Optional[Callable]
    implicit: Callable
    slope: Optional[float]
    omega: Callable
    admissibility: Callable
    increment_weight: Optional[Callable] = None


def _gap(cfg, model):
    return model.gap


def _implicit_potential(state, cfg, model, op):
    """Backward Euler and BDF2: omega = F'(u) + G u, all of it implicit."""
    pot = model.potential
    return (lambda u: potential_d1(pot, u)), (lambda u: potential_d2(pot, u)), None, None


def _convex_split(state, cfg, model, op):
    """u^3 and sigma u implicit; the explicit part (G - 1 - sigma) u_hat^n is a product."""
    explicit_hat = (model.gap - (1.0 + op.implicit)) * state.u.spectrum
    return (lambda u: u * u * u), (lambda u: 3.0 * (u * u)), explicit_hat, None


def _ssi1_explicit(state, cfg, model, op):
    """F_K'(u^n) - S u^n, all of it explicit."""
    d1 = potential_d1(model.potential, state.u.values)
    return None, None, rfft2(d1 - cfg.stabilization * state.u.values), d1


def _two_li_explicit(state, cfg, model, op):
    """2 F_K'(u^n) - F_K'(u^{n-1}), F_K'(u^{n-1}) taken off the model, where the step to u^n left it."""
    pot = model.potential
    d1 = potential_d1(pot, state.u.values)
    d1_prev = model._d1.pop(state.u_prev, None)  # its last read: the model holds none through the solve
    if d1_prev is None:  # a fresh or resumed state, or one stepped a second time
        d1_prev = potential_d1(pot, state.u_prev.values)
    explicit = 2.0 * d1
    explicit -= d1_prev
    del d1_prev
    return None, None, rfft2(explicit), d1


def _convexity(c_s, cfg, model, lam, gap):
    """q(m) = 1 / (c_s tau lambda_m) + G_m - 1 >= 0: backward Euler with c_s = 1, BDF2 with 2/3."""
    per_mode_min = float((1.0 / (c_s * cfg.tau * lam) + gap - 1.0).min())
    return per_mode_min, per_mode_min, per_mode_min >= 0.0


def _ssi1_rule(cfg, model, lam, gap):
    """S >= beta/2, with 1 / (tau lambda_m) + S + G_m positive at every mode."""
    per_mode_min = float((1.0 / (cfg.tau * lam) + cfg.stabilization + gap).min())
    margin = cfg.stabilization - 0.5 * model.potential.curvature_bound
    return per_mode_min, margin, margin >= 0.0 and per_mode_min > 0.0


def _two_li_rule(cfg, model, lam, gap):
    """(gamma0 + 1) / 3 >= beta and 2 / (tau lambda_m) + G_m - 3 beta >= 0; the margin is the lesser."""
    beta = model.potential.curvature_bound
    per_mode_min = float((2.0 / (cfg.tau * lam) + gap - 3.0 * beta).min())
    closed_form = (model.gamma0 + 1.0) / 3.0 - beta
    return per_mode_min, min(closed_form, per_mode_min), closed_form >= 0.0 and per_mode_min >= 0.0


# Columns: two_step, potential, bootstrap, implicit, slope, omega, admissibility, increment_weight.
_SCHEMES: dict[str, _Scheme] = {
    "backward_euler": _Scheme(False, None, None, _gap, -1.0, _implicit_potential, partial(_convexity, 1.0)),
    "convex_splitting": _Scheme(
        False, "double_well", None, lambda cfg, model: 2.0 * model.epsilon**2 * model.kernel.conv_one,
        0.0, _convex_split, lambda cfg, model, lam, gap: (np.inf, np.inf, True)),
    "ssi1": _Scheme(False, "truncated", None, lambda cfg, model: _freeze(cfg.stabilization + model.gap),
                    None, _ssi1_explicit, _ssi1_rule),
    "bdf2": _Scheme(True, None, lambda cfg, model: replace(cfg, scheme="backward_euler"), _gap, -1.0,
                    _implicit_potential, partial(_convexity, 2.0 / 3.0)),
    "two_li": _Scheme(
        True, "truncated",
        lambda cfg, model: replace(cfg, scheme="ssi1", stabilization=max(
            cfg.stabilization, 0.5 * model.potential.curvature_bound)),
        _gap, None, _two_li_explicit, _two_li_rule, lambda model: 0.5 * model.potential.curvature_bound),
}
SCHEMES = tuple(_SCHEMES)
TWO_STEP_SCHEMES = tuple(name for name, row in _SCHEMES.items() if row.two_step)


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector with step size, model and solver parameters.

    ``newton_tol`` is the Newton residual tolerance; the iteration cap
    ``NEWTON_MAX_ITER`` and the GMRES tolerance ``solvers.KRYLOV_RTOL`` are
    fixed.  ``stabilization`` is the linear stabilization constant S of the
    semi-implicit scheme; ``cutoff`` the truncation point K of the modified
    potential, whose curvature bound beta = 3K^2 - 1 the rules read from
    the run's potential (``PotentialSpec.curvature_bound``), never from
    here.  ``potential_variant`` may force the truncated potential for the
    implicit schemes; "auto" resolves to the double well for backward
    Euler / convex splitting / BDF2 and to the truncation for
    the linear schemes, which are defined through F_K.  ``epsilon`` and
    ``potential`` are read once, when a run builds its ``Model``
    (``model``); the steps read them from that model.
    """

    scheme: str
    tau: float
    epsilon: float
    stabilization: float = 0.0
    cutoff: float = 2.0
    newton_tol: float = 1e-11
    stability_policy: str = "enforce"
    potential_variant: str = "auto"

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not np.finfo(np.float64).tiny <= self.tau < np.inf:  # so 1/tau is finite
            raise ConfigError(f"time step must be positive and a normal float, got {self.tau}")
        if not 0.0 < self.epsilon < np.inf:
            raise ConfigError(f"interface parameter must be positive and finite, got {self.epsilon}")
        if not 0.0 <= self.stabilization < np.inf:
            raise ConfigError(f"stabilization constant must be >= 0 and finite, got {self.stabilization}")
        PotentialSpec("truncated", self.cutoff)  # K in range, so F_K is finite
        if not 0.0 < self.newton_tol < np.inf:
            raise ConfigError(f"Newton tolerance must be positive and finite, got {self.newton_tol}")
        if self.stability_policy not in STABILITY_POLICIES:
            raise ConfigError(
                f"unknown stability policy {self.stability_policy!r}; expected one of {STABILITY_POLICIES}"
            )
        if self.potential_variant not in ("auto", "double_well", "truncated"):
            raise ConfigError(f"unknown potential variant {self.potential_variant!r}")
        required = _SCHEMES[self.scheme].potential
        if required and self.potential_variant not in ("auto", required):
            raise ConfigError(f"{self.scheme} requires the {required} potential")

    @property
    def potential(self) -> PotentialSpec:
        if (_SCHEMES[self.scheme].potential or self.potential_variant) == "truncated":
            return PotentialSpec("truncated", self.cutoff)
        return PotentialSpec("double_well")

    def model(self, kernel: SampledKernel, cache: SpectralCache) -> Model:
        """The run's ``Model``: this epsilon and potential on the kernel and cache."""
        return Model(kernel, cache, self.epsilon, self.potential)


@dataclass(frozen=True)
class SchemeState:
    """Trajectory state: current field, optional previous level, bookkeeping.

    ``omega`` is the chemical potential the step to u returned; after a
    backward Euler or BDF2 step it is ``chemical_potential(u)`` bit for bit,
    and the next such step builds its first residual from it.  A state
    without one (a checkpoint holds none) has it evaluated there; a run
    evaluates it before its first step.
    ``u_prev`` and ``omega`` must be on u's grid (``GeometryMismatchError``),
    and a two-step pair must hold one mass (``StateError``).  A state holds
    only its levels: the F'(u^n) a two_li step reads again is kept on the
    run's ``Model``.
    """

    u: Field
    u_prev: Optional[Field] = None
    omega: Optional[Field] = None
    step_index: int = 0
    time: float = 0.0

    def __post_init__(self):
        for level in (self.u_prev, self.omega):
            if level is not None:
                require_same_geometry(self.u, level)
        if self.u_prev is not None:
            m, mp = mean(self.u), mean(self.u_prev)
            if abs(m - mp) > 1e-12 * (1.0 + max(abs(m), abs(mp))):
                raise StateError(
                    f"two-step state with unequal masses: {m!r} vs {mp!r}"
                )


def _step_field(geometry: GridGeometry, **forms: np.ndarray) -> Field:
    """The field of a step's fresh arrays; a non-finite one (a diverged step) is a solver failure.

    ``forms`` are a new level's ``values`` and ``spectrum``, or omega's
    ``spectrum`` alone.  The arrays are owned by the step, so they are
    frozen and the field adopts them without a copy.
    """
    try:
        return Field(geometry, **{form: _freeze(array) for form, array in forms.items()})
    except ValueError as err:  # the shapes come from the state: only finiteness can fail
        raise SolverError(f"diverged: {err}") from err


def _level(geometry: GridGeometry, modes: np.ndarray, values: np.ndarray, mass: float) -> Field:
    """The level a step solved for, from both forms: its solved spectrum ``modes`` and its values.

    ``values`` are the mass-snapped irfft2 of ``modes``.  ``modes`` is
    projected onto the coefficients of a real field (irfft2 reads only
    that projection) and its constant mode set to N^2 ``mass``, the
    conserved mean the snap shifted the values onto, both in place.
    """
    modes = _project_hermitian(modes)
    modes[0, 0] = geometry.n**2 * mass
    return _step_field(geometry, values=values, spectrum=modes)


@dataclass(frozen=True)
class SolvabilityReport:
    """Exact per-grid admissibility check of the scheme's step size.

    ``per_mode_min`` is the minimum over nonzero DFT modes of the scheme's
    convexity/stability quantity; ``margin`` the binding margin whose
    nonnegativity decides admissibility (infinite for the unconditional
    scheme).  ``gamma0 > 0`` (``Model.gamma0``) is required for every
    scheme.  The inputs it was checked for, the ``SchemeConfig`` and the
    ``Model``, are not repeated here.
    """

    admissible: bool
    margin: float
    per_mode_min: float
    note: str = ""


@np.errstate(over="ignore", divide="ignore")
def check_solvability(cfg: SchemeConfig, model: Model) -> SolvabilityReport:
    """Evaluate the scheme's admissibility condition mode by mode.

    Each rule is evaluated on the whole half spectrum, where the constant
    mode's 1 / (tau lambda) is +inf, so its quantity is +inf and no minimum
    picks it.  Boundary cases with margin exactly 0 are admissible; the note
    records that the underlying sufficient conditions are sharp there.  A
    tau so small that 1 / (tau lambda) overflows makes that mode's quantity
    infinite, and admissible, without a numpy warning.
    """
    lam = model.cache.minus_laplacian_eigenvalues
    per_mode_min, margin, admissible = _SCHEMES[cfg.scheme].admissibility(cfg, model, lam, model.gap)
    note = ""
    if model.gamma0 <= 0.0:
        note = f"gamma0 = {model.gamma0!r} <= 0 violates the positive-diffusivity assumption"
    elif margin == 0.0:
        note = "margin is exactly 0: admissibility is decided at the sharp boundary"

    return SolvabilityReport(admissible=model.gamma0 > 0.0 and admissible, margin=float(margin),
                             per_mode_min=float(per_mode_min), note=note)


def _apply_policy(cfg: SchemeConfig, model: Model):
    """Vet ``cfg`` for ``model``: a ``ConfigError`` unless the model is the configuration's, then the policy.

    The steps and the check read eps and the potential from the model, and
    the configuration holds its own, so the two must agree.
    """
    if (model.epsilon, model.potential) != (cfg.epsilon, cfg.potential):
        raise ConfigError(
            f"{cfg.scheme} configuration (epsilon = {cfg.epsilon!r}, {cfg.potential}) does not "
            f"match the model (epsilon = {model.epsilon!r}, {model.potential})"
        )
    if cfg.stability_policy == "ignore":
        return
    report = check_solvability(cfg, model)
    if report.admissible:
        return
    message = (
        f"{cfg.scheme} inadmissible at tau = {cfg.tau}: margin = {report.margin:.6e}, "
        f"gamma0 = {model.gamma0:.6e}. {report.note}".rstrip()
    )
    if cfg.stability_policy == "enforce":
        raise StabilityError(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _snap_mass(values: np.ndarray, target: float) -> np.ndarray:
    """Shift ``values`` in place onto the mean ``target``, and return them."""
    values += target - _reduce(values) / values.size
    return values


def _norm(modes: np.ndarray, h: float) -> float:
    """``norm2_modes``, rescaled by the largest component where squaring overflows.

    Finite modes then have a finite norm wherever it is representable; a
    non-finite one keeps its value.
    """
    value = norm2_modes(modes, h)
    if math.isfinite(value):
        return value
    peak = float(max(np.abs(modes.real).max(), np.abs(modes.imag).max()))
    if not 0.0 < peak < np.inf:
        return value
    return peak * norm2_modes(modes / peak, h)


# C of the Newton stop max(newton_tol, C eps scale).  Convex splitting's
# residual stagnates at 0.09-0.22 eps scale (the least residual of iterating
# on past the stop: the benchmark problem at N in 128..512, the
# phase-separating one at N = 64 and 128), the fully implicit schemes' far
# lower, so 4 stops clear of the rounding floor.
NEWTON_FLOOR_ULPS = 4.0

# Cap on a step's fixed-point and Newton iterations together.
NEWTON_MAX_ITER = 50


class _Operator(NamedTuple):
    """The symbols of one step configuration under one model, which no step changes.

    ``_operator`` builds them, once per configuration and model
    (``advance`` keeps them on the model).
    ``implicit`` is the symbol of omega's implicit linear part: G for
    backward Euler, BDF2 and two_li, S + G for ssi1, and the constant
    sigma = 2 eps^2 [J(*)1] for convex splitting.  ``inverse`` is the
    reciprocal a step multiplies by.  A linear step keeps only the
    reciprocal of its modal denominator a + lambda implicit.  A Newton step
    keeps that denominator as ``linear``, the linear part of its residual,
    and its preconditioner: the ``symbol`` a + lambda (slope + implicit),
    with the row's pointwise slope, and, as ``inverse``, its reciprocal.
    """

    a: float
    implicit: np.ndarray | float
    linear: Optional[np.ndarray] = None
    symbol: Optional[np.ndarray] = None
    inverse: Optional[np.ndarray] = None


def _operator(cfg: SchemeConfig, model: Model) -> _Operator:
    """The ``_Operator`` of ``cfg`` under ``model``; a is 1/tau, or 3/(2 tau) for a two-step scheme.

    A linear scheme whose denominator is not positive somewhere raises
    ``SolverError``.  A Newton scheme's preconditioner freezes the cubic
    term out: it keeps the local slope -1 of the implicit potential, or the
    slope 0 of convex splitting's cubic at 0, and where its symbol is not
    positive it cuts slope + implicit at 0.
    """
    lam, row = model.cache.minus_laplacian_eigenvalues, _SCHEMES[cfg.scheme]
    a = 3.0 / (2.0 * cfg.tau) if row.two_step else 1.0 / cfg.tau
    implicit = row.implicit(cfg, model)
    linear = a + lam * implicit
    if row.slope is None:
        if linear.min() <= 0.0:
            raise SolverError(
                "non-positive modal denominator in the linear solve; "
                "the kernel/stabilization configuration is outside the solvable regime"
            )
        return _Operator(a, implicit, inverse=_freeze(np.reciprocal(linear, out=linear)))
    shift = row.slope + implicit
    symbol = a + lam * shift
    symbol = np.where(symbol <= 0.0, a + lam * np.maximum(shift, 0.0), symbol)
    return _Operator(a, implicit, _freeze(linear), _freeze(symbol), _freeze(1.0 / symbol))


def _residual(linear_part: np.ndarray, rhs_hat: np.ndarray, lam: np.ndarray, local_hat: np.ndarray,
              work: np.ndarray) -> np.ndarray:
    """``linear_part - rhs_hat + lam local_hat``, projected, built in ``linear_part``.

    The product lam local_hat is taken in ``work``, a spare spectrum.
    """
    linear_part -= rhs_hat
    linear_part += np.multiply(lam, local_hat, out=work)
    return _project_hermitian(linear_part)


def _omega(state: SchemeState, model: Model) -> Field:
    """The state's omega, else ``chemical_potential`` of its level; a non-finite one raises ``SolverError``."""
    try:
        return state.omega if state.omega is not None else chemical_potential(state.u, model)
    except ValueError as err:  # the geometries were checked: only finiteness can fail
        raise SolverError(f"the chemical potential of u^n is not finite ({err})") from err


def _newton_step(state: SchemeState, cfg: SchemeConfig, model: Model, op: _Operator,
                 rhs_hat: np.ndarray, local, local_slope,
                 explicit_hat: Optional[np.ndarray] = None) -> tuple[Field, Field, int]:
    """Newton solve of a u + (-Lap)(omega(u)) = rhs from u^n, shared by the implicit schemes.

    ``rhs_hat`` is rfft2(rhs), built from the spectra the levels keep
    (``Field.spectrum``), and ``op`` the configuration's ``_Operator``.
    omega(u) = local(u) + I u + e, with I = ``op.implicit`` and e the
    explicit part, given by its spectrum ``explicit_hat`` (convex
    splitting's, fixed during the solve) or 0; ``local_slope(u)`` is the
    pointwise derivative of ``local``.  The step solves against
    rhs_hat - lambda e_hat.  The unknown is u_hat = rfft2(u), with residual
        (a + lambda I) u_hat - rhs_hat + lambda (rfft2(local(u)) + e_hat)
    projected onto the coefficients of real fields (rounding breaks their
    symmetry, and GMRES then stalls), and its norm the mesh-weighted L2 norm
    of the field, by Parseval.  The point u of an iterate is irfft2(u_hat)
    with its mass snapped, taken once; the guess is the spectrum of u^n,
    whose point is u^n's own values.  The Jacobian at u_hat is
        (a + lambda I) v_hat + lambda rfft2(local_slope(u) irfft2(v_hat)),
    with u and its slope those of the last residual when u_hat is that
    residual's iterate, and otherwise one irfft2 of u_hat.  The
    preconditioner is the product with ``op.inverse``; ``newton_solve``
    takes fixed-point steps with it before Newton-Krylov.  Every norm is
    ``_norm``, which stays finite where squaring overflows.

    Without an explicit part (backward Euler, BDF2) omega is the chemical
    potential, and a level's omega is ``chemical_potential`` of it bit for
    bit, so the guess's residual is a u_hat^n - rhs_hat + lambda omega_hat^n
    from the state's omega (``_omega``: ``chemical_potential(u^n)`` for a
    state without one, and ``SolverError`` where that is not finite), built
    after the stop, with no transform; ``newton_solve`` still
    evaluates the residual at u^n before it declares u^n converged.  Convex
    splitting's omega holds an explicit part of u^{n-1}, so its first
    residual is evaluated.  The returned iterate is the last residual's: u
    is the level of its point's values and of the iterate (``_level``), or
    u^n itself when the guess is returned, and omega's spectrum is its
    rfft2(local(u)) plus I times the spectrum of the new level (as
    ``chemical_potential`` takes it) plus e_hat.  No operator is applied on
    the grid.
    Newton stops at max(newton_tol, C eps scale): scale is the norm of the
    right-hand side solved against, plus that of the preconditioner applied
    forward to u_hat^n, plus lambda_max times the norm of
    |u^n|^3 + |slope| |u^n|, with the row's slope.  The last term bounds the rounding of
    local(u), which is white and which lambda amplifies at the high modes
    where u_hat itself is small.  None of it takes a transform.  A stop
    that is not finite raises ``SolverError``.

    Through the solve the step holds the right-hand side it solves against
    (convex splitting's has lambda e_hat subtracted in place), one spare
    spectrum ``work``, which takes every inverse transform's column pass
    and every residual's product lambda local_hat, and the point of the
    last iterate taken to the grid: its values, its rfft2(local(u)) and, in
    Newton-Krylov, its slope, all dropped before the next iterate's
    transform.  Each residual is built in one array.  The guess's residual
    and the stop's |u^n|^3 term are dropped at their last read, and
    ``newton_solve`` holds the rest (the iterate, the trial and their
    residuals).
    """
    lam, u_hat = model.cache.minus_laplacian_eigenvalues, state.u.spectrum
    target, work = mean(state.u), np.empty_like(u_hat)
    if explicit_hat is not None:
        rhs_hat -= np.multiply(lam, explicit_hat, out=work)

    h = model.cache.geometry.h
    norm = lambda modes: _norm(modes, h)
    terms = np.abs(state.u.values)
    terms *= terms * terms + abs(_SCHEMES[cfg.scheme].slope)
    scale = norm(rhs_hat) + norm(op.symbol * u_hat) + float(lam.max()) * _norm2_values(terms, h)
    del terms
    tol = max(cfg.newton_tol, NEWTON_FLOOR_ULPS * np.finfo(np.float64).eps * scale)
    if not math.isfinite(tol):
        raise SolverError(f"the Newton stop overflows (scale {scale!r}): the step's terms "
                          f"exceed the float range at tau = {cfg.tau!r}")

    # The last iterate taken to the grid, the guess first: its point and,
    # once asked for, rfft2(local(point)) and the slope there.
    last = {"modes": u_hat, "values": state.u.values, "local_hat": None, "slope": None}

    def at(modes):
        if modes is not last["modes"]:
            last.update(modes=modes, values=None, local_hat=None, slope=None)  # before the transform
            last["values"] = _snap_mass(irfft2(modes, work), target)
        return last

    def evaluated(modes):
        point = at(modes)
        if point["local_hat"] is None:
            point["local_hat"] = rfft2(local(point["values"]))
        return point

    def residual(modes):
        local_hat = evaluated(modes)["local_hat"]
        return _residual(op.linear * modes, rhs_hat, lam, local_hat, work)

    def jacobian(modes, v_hat):
        point = at(modes)
        if point["slope"] is None:
            point["slope"] = local_slope(point["values"])
        return op.linear * v_hat + lam * rfft2(point["slope"] * irfft2(v_hat, work))

    # The guess's residual is an argument, so no name here holds it through the solve.
    u_hat, iters, _ = newton_solve(
        residual, jacobian, u_hat, tol, NEWTON_MAX_ITER, lambda r: r * op.inverse, norm,
        None if explicit_hat is not None
        else _residual(op.a * u_hat, rhs_hat, lam, _omega(state, model).spectrum, work))
    point = evaluated(u_hat)  # the last residual's own point: no transform
    if u_hat is state.u.spectrum:  # the guess
        u = state.u
    else:
        u = _level(state.u.geometry, u_hat, point["values"], target)
    omega_hat = point["local_hat"]  # no residual reads it again
    omega_hat += op.implicit * u.spectrum  # from the spectrum of u itself, as chemical_potential takes it
    if explicit_hat is not None:
        omega_hat += explicit_hat
    return u, _step_field(u.geometry, spectrum=omega_hat), iters


def _linear_step(state: SchemeState, model: Model, op: _Operator, rhs_hat: np.ndarray,
                 explicit_hat: np.ndarray) -> tuple[Field, Field, int]:
    """One DFT-diagonal solve of a u + (-Lap)(explicit + shift u) = rhs (ssi1, two_li).

    ``explicit_hat`` is the spectrum of the explicit part and ``rhs_hat``
    rfft2(rhs), both the step's own arrays, which it reuses.  ``shift`` is
    ``op.implicit``, the half-spectrum symbol S + G of ssi1 or G of two_li,
    and the step multiplies by ``op.inverse``, the reciprocal of the
    denominator a + lambda shift.  The step transforms only the solved
    spectrum back, and the new level keeps that spectrum (``_level``).
    lambda vanishes at the constant mode, so it needs no special case; the
    mass snap shifts only that mode.  omega is returned as its spectrum,
    explicit_hat plus the implicit part shift times the level's spectrum,
    added in place.
    """
    lam, mass = model.cache.minus_laplacian_eigenvalues, mean(state.u)
    omega_hat = explicit_hat
    u_hat = lam * omega_hat
    np.subtract(rhs_hat, u_hat, out=u_hat)
    u_hat *= op.inverse
    values = _snap_mass(irfft2(u_hat, rhs_hat), mass)  # rhs_hat is dead: it takes the column pass
    u = _level(state.u.geometry, u_hat, values, mass)
    omega_hat += np.multiply(op.implicit, u.spectrum, out=rhs_hat)
    return u, _step_field(u.geometry, spectrum=omega_hat), 0


def modified_energy(cfg: SchemeConfig, model: Model, energy: float, du_neg1: float,
                    du_l2: float) -> Optional[float]:
    """The modified energy a two-step scheme dissipates; None for a one-step scheme, which dissipates E.

    From the energy E of the new level and the norms ||du||_{-1}, ||du||_2
    of the last increment (a zero-mean difference of equal-mass levels):
    E + ||du||_{-1}^2 / (4 tau), plus (beta/2) ||du||_2^2 for two_li, with
    beta the curvature bound of the model's potential.
    """
    row = _SCHEMES[cfg.scheme]
    if not row.two_step:
        return None
    modified = energy + du_neg1**2 / (4.0 * cfg.tau)
    if row.increment_weight is not None:
        modified += row.increment_weight(model) * du_l2**2
    return modified


def advance(state: SchemeState, cfg: SchemeConfig, model: Model) -> tuple[SchemeState, int]:
    """One step of ``cfg.scheme`` under ``model``: the new state and the step's Newton iterations.

    The step solves a u + (-Lap)(omega(u)) = rhs, with (a, rhs) =
    (1/tau, u^n/tau), or (3/(2 tau), (4 u^n - u^{n-1})/(2 tau)) for a
    two-step scheme; a fresh two-step state takes the bootstrap step
    instead.  The implicit potential (backward Euler, BDF2) and convex
    splitting are Newton solves, ssi1 and two_li one DFT-diagonal solve
    each.  The configuration the step runs is vetted the first time the
    model meets it: a model that is not its own (other eps or potential)
    raises ``ConfigError``, then the stability policy is applied, so
    ``warn`` warns once per configuration and model.  Its ``_Operator`` is
    built there and kept on the model, except a bootstrap's, which a run
    steps once.  A two-step step (the bootstrap's included) leaves the
    F'(u^n) it evaluated on the model before it solves, in place of the one
    before, and the next two_li step reads it as F'(u^{n-1}); a one-step
    step drops it there.  A step issues no numpy
    warning: a non-finite level it overflows to raises ``SolverError``.
    """
    two_step = _SCHEMES[cfg.scheme].two_step
    bootstrapping = two_step and state.u_prev is None
    step_cfg = _SCHEMES[cfg.scheme].bootstrap(cfg, model) if bootstrapping else cfg
    op = model._operators.get(step_cfg)
    if op is None:
        _apply_policy(step_cfg, model)
        op = _operator(step_cfg, model)
        if not bootstrapping:
            model._operators[step_cfg] = op
    row, u_hat = _SCHEMES[step_cfg.scheme], state.u.spectrum
    # A with block, not a decorator: the policy's warning names advance's caller.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if row.two_step:  # built in one array
            rhs_hat = 4.0 * u_hat
            rhs_hat -= state.u_prev.spectrum
            rhs_hat /= 2.0 * step_cfg.tau
        else:
            rhs_hat = u_hat / step_cfg.tau
        local, local_slope, explicit_hat, d1 = row.omega(state, step_cfg, model, op)
        if two_step and d1 is not None:
            model._d1.clear()  # first, so the model never holds two
            model._d1[state.u] = d1
        del d1  # a one-step run reads it no more
        if row.slope is None:
            u, omega, iters = _linear_step(state, model, op, rhs_hat, explicit_hat)
        else:
            u, omega, iters = _newton_step(state, step_cfg, model, op, rhs_hat, local, local_slope,
                                           explicit_hat)
    try:
        next_state = SchemeState(
            u=u,
            u_prev=state.u if two_step else None,
            omega=omega,
            step_index=state.step_index + 1,
            time=state.time + cfg.tau,
        )
    except StateError as err:  # the given state was valid, so the step broke its mass
        raise SolverError(f"{step_cfg.scheme} step lost mass: {err}") from err
    return next_state, iters
