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

Per-step diagnostics (mass, energies, increment norms, stationarity
residuals, Newton iteration counts) are collected at a configurable cadence
plus always at the terminating step; field snapshots and checkpoints use
the binary formats from :mod:`nchsolver.fieldio`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .energetics import PotentialSpec, chemical_potential, energy
from .errors import ConfigError, SolverError
from .fieldio import write_field
from .grid import Field, GridGeometry, _norm2_values, mean, require_same_geometry
from .kernels import SampledKernel, gamma0
from .spectral import SpectralCache, _forward_differences, _norm_neg1_values
from .steppers import TWO_STEP_SCHEMES, SchemeConfig, SchemeState, advance


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
    values = mean_value + rng.uniform(-delta, delta, size=(geometry.n, geometry.n))
    values += mean_value - values.mean()
    return Field(geometry, values)


def _variance(omega: Field) -> float:
    """``norm2(project_zero_mean(omega))`` with no Field built."""
    return _norm2_values(omega.values - mean(omega), omega.geometry.h)


def equilibrium_residual(u: Field, omega: Field, kernel: SampledKernel, epsilon: float,
                         potential: PotentialSpec) -> float:
    """Distance from the discrete stationary system.

    Combines the variance of the chemical potential (zero iff omega is
    constant) with the defect of the potential equation; both vanish
    exactly at a discrete equilibrium.
    """
    defect = omega.values - chemical_potential(u, kernel, epsilon, potential).values
    return max(_variance(omega), _norm2_values(defect, u.geometry.h))


def _grad_norm(omega: Field) -> float:
    # Periodic data: both half-sums of the edge pairing equal the plain sum.
    gx, gy = _forward_differences(omega.values, omega.geometry.h)
    squares = np.sum(gx * gx, dtype=np.longdouble) + np.sum(gy * gy, dtype=np.longdouble)
    return omega.geometry.h * math.sqrt(float(squares))


def _record(step_index: int, time: float, state: SchemeState, increment: Optional[np.ndarray],
            increment_l2: float, omega: Field, omega_variance: float, newton_iters: int,
            cfg: SchemeConfig, kernel: SampledKernel, cache: SpectralCache) -> DiagnosticsRecord:
    """One diagnostics row; each functional is evaluated once and reused."""
    e = energy(state.u, kernel, cfg.epsilon, cfg.potential)
    modified = None
    inc_neg = 0.0
    if increment is not None:
        inc_neg = _norm_neg1_values(increment, cache)
        if cfg.scheme in TWO_STEP_SCHEMES:
            modified = e + inc_neg**2 / (4.0 * cfg.tau)
            if cfg.scheme == "two_li":
                modified += 0.5 * cfg.beta * increment_l2**2
    return DiagnosticsRecord(
        step=step_index,
        time=time,
        mass=mean(state.u),
        energy=e,
        modified_energy=modified,
        increment_l2=increment_l2,
        increment_hneg1=inc_neg,
        grad_omega_l2=_grad_norm(omega),
        omega_variance=omega_variance,
        newton_iters=newton_iters,
    )


def run(u0: Optional[Field], cfg: SchemeConfig, kernel: SampledKernel, cache: SpectralCache,
        options: RunOptions, initial_state: Optional[SchemeState] = None) -> RunResult:
    """Advance the scheme until equilibrium or the step budget runs out.

    Either ``u0`` (a fresh start at step 0) or ``initial_state`` (resume
    from a checkpoint) must be given; it must share the kernel's and the
    cache's geometry (``GeometryMismatchError`` otherwise, before any step).
    Stepper failures terminate the run with ``termination == "error"`` and
    the failing step in the detail; records collected so far are kept.
    """
    if (u0 is None) == (initial_state is None):
        raise ConfigError("exactly one of u0 and initial_state must be given")
    require_same_geometry(kernel, cache)
    require_same_geometry(kernel, u0 if initial_state is None else initial_state.u)
    g0 = gamma0(kernel, cfg.epsilon)
    if not g0 > 0.0:
        raise ConfigError(
            f"gamma0 = {g0!r} <= 0: the kernel/epsilon pair violates the "
            "positive-diffusivity assumption"
        )

    pot = cfg.potential
    records: list[DiagnosticsRecord] = []
    if initial_state is None:
        state = SchemeState(u=u0, step_index=0, time=0.0)
        omega0 = chemical_potential(u0, kernel, cfg.epsilon, pot)
        records.append(_record(0, 0.0, state, None, 0.0, omega0, _variance(omega0), 0,
                               cfg, kernel, cache))
    else:
        state = initial_state

    termination = "max_steps"
    detail = ""
    final_omega = state.omega
    admitted: set[SchemeConfig] = set()  # bootstrap and main config, checked once each
    while state.step_index < options.max_steps:
        previous = state.u
        try:
            state, result = advance(state, cfg, kernel, cache, admitted)
        except SolverError as err:  # also a diverged step: non-finite or losing mass
            termination = "error"
            detail = f"step {state.step_index + 1}: {err}"
            break
        increment = state.u.values - previous.values
        final_omega = result.omega

        at_cadence = state.step_index % options.record_every == 0
        inc_l2 = _norm2_values(increment, previous.geometry.h)
        variance = _variance(result.omega)
        reached_equilibrium = max(inc_l2 / cfg.tau, variance) <= options.eq_tol
        if at_cadence or reached_equilibrium or state.step_index >= options.max_steps:
            records.append(_record(state.step_index, state.time, state, increment, inc_l2,
                                   result.omega, variance, result.newton_iters,
                                   cfg, kernel, cache))
        if options.snapshot_every and state.step_index % options.snapshot_every == 0:
            write_field(Path(options.snapshot_dir) / f"u_{state.step_index:08d}.nchf",
                        state.u, state.time)
        if reached_equilibrium:
            termination = "equilibrium"
            break

    if final_omega is None:
        final_omega = chemical_potential(state.u, kernel, cfg.epsilon, pot)
    residual = equilibrium_residual(state.u, final_omega, kernel, cfg.epsilon, pot)
    return RunResult(final_state=state, records=records, termination=termination,
                     equilibrium_residual=residual, error_detail=detail)


@dataclass(frozen=True)
class DecayProbe:
    """Empirical decay constants scanned from a trailing window of records.

    ``c2_hat`` is the smallest observed energy-drop ratio
    (E_n - E_{n+1}) / ||du||_2^2 and ``c3_hat`` the largest observed
    gradient-to-increment ratio ||grad omega||_2 / ||du||_2; purely
    observational, steps with negligible increments are excluded.
    """

    c2_hat: Optional[float]
    c3_hat: Optional[float]
    window: int
    steps_used: int


def h1h2_probe(records: Sequence[DiagnosticsRecord], window: int) -> DecayProbe:
    """Estimate the decay constants over the trailing ``window`` records."""
    if len(records) < window:
        raise ValueError(f"need at least {window} records, got {len(records)}")
    tail = records[-window:]
    c2 = None
    c3 = None
    used = 0
    for before, after in zip(tail[:-1], tail[1:]):
        du = after.increment_l2
        if du < 1e-14:
            continue
        used += 1
        drop = (before.energy - after.energy) / du**2
        ratio = after.grad_omega_l2 / du
        c2 = drop if c2 is None else min(c2, drop)
        c3 = ratio if c3 is None else max(c3, ratio)
    return DecayProbe(c2_hat=c2, c3_hat=c3, window=window, steps_used=used)
