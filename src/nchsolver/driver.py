"""Time-integration loop with diagnostics and equilibrium detection.

A run advances the selected scheme from an initial field until either the
trajectory reaches a discrete equilibrium or a step budget is exhausted.
The equilibrium criterion combines the increment rate with the variance of
the chemical potential,

    max( ||u^{n+1} - u^n||_2 / tau ,  ||omega - mean(omega)||_2 ) <= eq_tol,

because the limit object is a state with constant chemical potential and
prescribed mass; the increment alone can stall on plateaus.  Runs never
assert that different schemes reach the *same* equilibrium -- each
trajectory converges to *a* steady state, and the driver only records what
it finds.

Per-step diagnostics (mass, the energy and the functional the scheme
dissipates, increment norms, stationarity residuals, Newton iteration
counts) are collected at a configurable cadence
plus always at the terminating step; field snapshots and checkpoints use
the binary formats from :mod:`nchsolver.fieldio`.  Each step returns omega
as its half spectrum, and the stationarity measures ||omega - mean||_2 and
||grad omega||_2 are Parseval sums over one power array of it, built once
per step (``spectral._norm2_mean_free``, ``spectral._norm_grad``), as is
the defect of the potential equation in the equilibrium residual: no row
takes omega back to the grid.  The
step-0 row is built by ``_start``, which ``nch check`` also evaluates, so a
configuration whose run would end at step 0 on a non-finite row is
reported inadmissible before it runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .energetics import Model, chemical_potential, energy
from .errors import ConfigError, SolverError
from .fieldio import write_field
from .grid import Field, GridGeometry, _norm2_values, _reduce, mean, require_same_geometry
from .kernels import SampledKernel
from .spectral import SpectralCache, _norm2_mean_free, _norm_grad, _power, norm2_modes, norm_neg1
from .steppers import SchemeConfig, SchemeState, advance, modified_energy


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of the per-step time series."""

    step: int
    time: float
    mass: float
    energy: float
    modified_energy: Optional[float]
    increment_l2: float
    increment_hneg1: float
    grad_omega_l2: float
    omega_variance: float
    newton_iters: int


@dataclass(frozen=True)
class RunOptions:
    """Loop controls: budget, equilibrium tolerance, record/snapshot cadence."""

    max_steps: int
    eq_tol: float = 1e-9
    record_every: int = 1
    snapshot_every: int = 0
    snapshot_dir: Optional[Path] = None

    def __post_init__(self):
        if self.max_steps < 1:
            raise ConfigError("max_steps must be at least 1")
        if not 0.0 < self.eq_tol < math.inf:
            raise ConfigError(f"eq_tol must be positive and finite, got {self.eq_tol}")
        if self.record_every < 1:
            raise ConfigError("record_every must be at least 1")
        if self.snapshot_every < 0:
            raise ConfigError("snapshot_every must be >= 0")
        if self.snapshot_every > 0 and self.snapshot_dir is None:
            raise ConfigError("snapshot cadence set but no snapshot directory given")


@dataclass(frozen=True)
class RunResult:
    final_state: SchemeState
    records: list[DiagnosticsRecord] = field(repr=False)
    termination: str = "max_steps"  # "equilibrium" | "max_steps" | "error"
    equilibrium_residual: float = math.inf
    error_detail: str = ""


def random_initial_field(geometry: GridGeometry, mean_value: float = 0.0,
                         delta: float = 0.05, seed: int = 0) -> Field:
    """Seeded uniform perturbation in [-delta, delta] about a mean.

    The sample is re-centered so the mass hits the target exactly; the
    conserved quantity then starts at its nominal value.
    """
    rng = np.random.default_rng(seed)
    values = rng.uniform(-delta, delta, size=(geometry.n, geometry.n))
    values += mean_value
    values += mean_value - _reduce(values) / values.size
    # The field keeps a copy.  Handing the sample over uncopied measured
    # slower at N = 512, in set-up and in the steps after it: the heap it
    # left was trimmed and faulted back in on every other set-up.
    return Field(geometry, values)


def equilibrium_residual(u: Field, omega: Field, model: Model) -> float:
    """Distance from the discrete stationary system.

    Combines the variance of the chemical potential (zero iff omega is
    constant) with the defect of the potential equation; both vanish
    exactly at a discrete equilibrium.
    """
    h = u.geometry.h
    defect = omega.spectrum - chemical_potential(u, model).spectrum
    return max(_norm2_mean_free(_power(omega.spectrum), h), norm2_modes(defect, h))


def _record(state: SchemeState, previous: Optional[Field], increment_l2: float,
            omega_power: np.ndarray, omega_variance: float, newton_iters: int,
            cfg: SchemeConfig, model: Model) -> DiagnosticsRecord:
    """The row of ``state``; each functional is evaluated once and reused.

    ``omega_power`` is ``spectral._power`` of the state's omega, from which
    the loop took ``omega_variance``; the row takes the gradient norm from
    it too, scaling it in place.  The energy and ``||du||_{-1}`` read the
    spectra the two levels keep, so a row transforms nothing.  The modified
    energy column is ``steppers.modified_energy`` of them, empty for a
    one-step scheme, whose dissipated functional is the energy column.
    """
    e = energy(state.u, model)
    modified = None
    inc_neg = 0.0
    if previous is not None:
        inc_neg = norm_neg1(state.u.spectrum - previous.spectrum, model.cache)
        modified = modified_energy(cfg, model, e, inc_neg, increment_l2)
    return DiagnosticsRecord(
        step=state.step_index,
        time=state.time,
        mass=mean(state.u),
        energy=e,
        modified_energy=modified,
        increment_l2=increment_l2,
        increment_hneg1=inc_neg,
        grad_omega_l2=_norm_grad(omega_power, model.cache),
        omega_variance=omega_variance,
        newton_iters=newton_iters,
    )


def _quiet():
    """Silence numpy's overflow and invalid-value warnings: ``_non_finite`` names the column."""
    return np.errstate(over="ignore", invalid="ignore")


def _non_finite(record: DiagnosticsRecord) -> str:
    """``step n: <column> is not finite`` for the row's first such column, else ''."""
    for name, value in vars(record).items():
        if value is not None and not math.isfinite(value):
            return f"step {record.step}: {name} is not finite ({value!r})"
    return ""


def _initial_omega(u: Field, model: Model) -> Field:
    """``chemical_potential(u)``, silenced; one that is not finite is a ``ConfigError``.

    The model's scales overflow it before any step.  A fresh start and a
    resumed state without omega (a checkpoint holds none) both take it here.
    """
    with _quiet():
        try:
            return chemical_potential(u, model)
        except ValueError as err:  # the geometries were checked: only finiteness can fail
            raise ConfigError(f"the chemical potential of the initial field is not finite "
                              f"({err}): the model's scales overflow it") from err


def _start(u0: Field, cfg: SchemeConfig, model: Model) -> tuple[SchemeState, DiagnosticsRecord]:
    """The state a fresh run starts from, and its step-0 row; ``nch check`` evaluates it too."""
    state = SchemeState(u=u0, omega=_initial_omega(u0, model))
    with _quiet():
        power = _power(state.omega.spectrum)
        variance = _norm2_mean_free(power, model.cache.geometry.h)
        return state, _record(state, None, 0.0, power, variance, 0, cfg, model)


def run(u0: Optional[Field], cfg: SchemeConfig, kernel: SampledKernel, cache: SpectralCache,
        options: RunOptions, initial_state: Optional[SchemeState] = None) -> RunResult:
    """Advance the scheme until equilibrium or the step budget runs out.

    The run's ``Model`` is built once, from ``cfg.epsilon``,
    ``cfg.potential``, the kernel and the cache, and serves every step;
    each step configuration (a two-step scheme's bootstrap, and ``cfg``) is
    vetted and its operator built once, by ``advance``, which keeps
    ``cfg``'s on the model.
    Exactly one of ``u0`` (a fresh start at step 0) and ``initial_state``
    (resume from a checkpoint) must be given (``ConfigError`` otherwise);
    it must share the kernel's and the cache's geometry
    (``GeometryMismatchError`` otherwise, before any step).  A fresh start,
    and a resumed state without omega (a checkpoint holds none), take omega
    as the chemical potential before the first step, and one that is not
    finite raises ``ConfigError``; so the run's state always holds omega.
    Stepper failures terminate the run with ``termination == "error"`` and
    the failing step in the detail; records collected so far are kept.  A
    step whose record is not finite fails the same way (the model's scales
    can overflow the norms while u and omega stay finite), and so does a run
    whose step-0 record or final equilibrium residual is not finite; the
    detail names the step and the first non-finite column, and numpy's
    overflow warnings from these diagnostics are silenced.  The final state
    is returned as stepped; a run continued from it builds its own model
    and evaluates F_K'(u^{n-1}) of a two_li state again, to the same bits.
    """
    if (u0 is None) == (initial_state is None):
        raise ConfigError("exactly one of u0 and initial_state must be given")
    model = cfg.model(kernel, cache)
    require_same_geometry(model.cache, u0 if initial_state is None else initial_state.u)
    if not model.gamma0 > 0.0:
        raise ConfigError(f"gamma0 = {model.gamma0!r} <= 0: the kernel/epsilon pair violates "
                          "the positive-diffusivity assumption")

    h = model.cache.geometry.h
    records: list[DiagnosticsRecord] = []
    termination, detail = "max_steps", ""
    if initial_state is None:
        state, first = _start(u0, cfg, model)
        records.append(first)
        detail = _non_finite(first)
    else:
        state = initial_state if initial_state.omega is not None else replace(
            initial_state, omega=_initial_omega(initial_state.u, model))

    while not detail and state.step_index < options.max_steps:
        try:
            new, newton_iters = advance(state, cfg, model)
        except SolverError as err:  # also a diverged step: non-finite or losing mass
            detail = f"step {state.step_index + 1}: {err}"
            break

        at_cadence = new.step_index % options.record_every == 0
        with _quiet():
            inc_l2 = _norm2_values(new.u.values - state.u.values, h)
            power = _power(new.omega.spectrum)
            variance = _norm2_mean_free(power, h)
            reached_equilibrium = max(inc_l2 / cfg.tau, variance) <= options.eq_tol
            if at_cadence or reached_equilibrium or new.step_index >= options.max_steps:
                record = _record(new, state.u, inc_l2, power, variance, newton_iters, cfg, model)
                if detail := _non_finite(record):  # the step diverged in its diagnostics
                    break
                records.append(record)
        del power  # read no more: the next step runs without it
        state = new
        if options.snapshot_every and state.step_index % options.snapshot_every == 0:
            write_field(Path(options.snapshot_dir) / f"u_{state.step_index:08d}.nchf",
                        state.u, state.time)
        if reached_equilibrium:
            termination = "equilibrium"
            break

    with _quiet():
        residual = equilibrium_residual(state.u, state.omega, model)
    if not (detail or math.isfinite(residual)):
        detail = f"step {state.step_index}: equilibrium_residual is not finite ({residual!r})"
    return RunResult(final_state=state, records=records,
                     termination="error" if detail else termination,
                     equilibrium_residual=residual, error_detail=detail)

