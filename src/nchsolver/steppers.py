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

Admissibility is decided by an exact per-mode check instead of a
non-constructive kernel constant: for each nonzero DFT mode the convexity
quantity

    q(m) = 1 / (c_s tau lambda_m) + eps^2 [J(*)1] - eps^2 j_hat_m - 1

must be nonnegative (c_s = 1 for backward Euler, 2/3 for the two-step
scheme, matching the coefficient of the negative-norm term in the
respective convexity computations).  The linear schemes use the closed-form
inequalities on (S, beta) and (beta, tau, gamma0), with the same per-mode
surrogate replacing the kernel constant.  The policy field decides whether
an inadmissible configuration rejects the step, warns, or is ignored.
``advance`` is the one place that applies it, and so the public way to take
a step: on every call, or once per configuration of a run.  The step
functions in ``STEP_FUNCTIONS`` are unchecked solves.

Every scheme is one equation per step,

    a u + (-Lap)(omega(u)) = rhs,

with (a, rhs) = (1/tau, u^n/tau) for the one-step schemes and
(3/(2 tau), (4 u^n - u^{n-1})/(2 tau)) for the two-step ones; the schemes
differ only in how omega treats its terms.  Both operators are diagonal in
the DFT basis and applied only through their half-spectrum symbols:
-Lap through lambda = ``cache.minus_laplacian_eigenvalues`` and the
nonlocal operator eps^2 ([J(*)1] u - [J (*) u]) through G =
``kernels.nonlocal_gap``, built once per step.  The 5-point stencil
``spectral.laplacian_apply`` is the reference the steps are tested
against, not a production path.

The three nonlinear schemes share one Newton step (``_newton_step``): with
omega = local(u) + G u eliminated, it solves for the half-spectrum
coefficients rfft2(u) alone, matrix-free, and reconstructs omega from the
solution.  The linear part a + lambda G is then a product, a residual or
Jacobian apply takes one inverse and one forward transform around the
pointwise part of omega, and the frozen-coefficient preconditioner
a + lambda (slope + G) is a division.  It is close enough to the
Jacobian that ``newton_solve`` first takes fixed-point steps with it, one
residual each, and hands over to Newton-Krylov once they stop contracting.
Convex splitting's nonlocal term is explicit and part of local(u), built
from the same rfft2(u^n) as the guess.  Newton stops at max(newton_tol,
C eps scale), where scale measures the step's equation terms and the
rounding of local(u), so the stop holds at every N although that rounding
grows like 1/h^2.
Backward Euler and BDF2 differ only in (a, rhs).  The two linear schemes
share one DFT-diagonal solve (``_linear_step``) of a u + (-Lap)(explicit + S u + G u) = rhs: ssi1 with
explicit F_K'(u^n) - S u^n, two_li with 2 F_K'(u^n) - F_K'(u^{n-1}) and
S = 0.

Accepted steps re-center the solution mass on the conserved value (a
shift at rounding magnitude), so mass is conserved exactly along
trajectories.  A step that diverges -- a non-finite new level, or a
two-step pair whose masses no longer agree -- raises ``SolverError`` like
a failed solve.

Steps are sequential by nature (level n+1 needs level n); independent
simulations may run concurrently on shared immutable kernels and caches.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from .energetics import PotentialSpec, potential_d1, potential_d2
from .errors import ConfigError, SolverError, StabilityError, StateError
from .grid import Field, GridGeometry, _freeze, _norm2_values, mean
from .kernels import SampledKernel, gamma0, nonlocal_gap
from .solvers import newton_solve
from .spectral import SpectralCache, _modes_norm, _project_hermitian, apply_symbol

SCHEMES = ("backward_euler", "convex_splitting", "ssi1", "bdf2", "two_li")
TWO_STEP_SCHEMES = ("bdf2", "two_li")
STABILITY_POLICIES = ("enforce", "warn", "ignore")


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector with step size, model and solver parameters.

    ``stabilization`` is the linear stabilization constant S of the
    semi-implicit scheme; ``cutoff`` the truncation point K of the modified
    potential (its curvature bound beta = 3K^2 - 1 is derived, never
    user-supplied).  ``potential_variant`` may force the truncated
    potential for the implicit schemes; "auto" resolves to the double well
    for backward Euler / convex splitting / BDF2 and to the truncation for
    the linear schemes, which are defined through F_K.
    """

    scheme: str
    tau: float
    epsilon: float
    stabilization: float = 0.0
    cutoff: float = 2.0
    newton_tol: float = 1e-11
    newton_max_iter: int = 50
    krylov_tol: float = 1e-12
    stability_policy: str = "enforce"
    potential_variant: str = "auto"

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}")
        if not self.tau > 0.0:
            raise ConfigError(f"time step must be positive, got {self.tau}")
        if not self.epsilon > 0.0:
            raise ConfigError(f"interface parameter must be positive, got {self.epsilon}")
        if self.stabilization < 0.0:
            raise ConfigError(f"stabilization constant must be >= 0, got {self.stabilization}")
        if not self.cutoff > 1.0:
            raise ConfigError(f"truncation point K must exceed 1, got {self.cutoff}")
        if self.newton_max_iter < 1:
            raise ConfigError("newton_max_iter must be at least 1")
        if not (self.newton_tol > 0.0 and self.krylov_tol > 0.0):
            raise ConfigError("solver tolerances must be positive")
        if self.stability_policy not in STABILITY_POLICIES:
            raise ConfigError(
                f"unknown stability policy {self.stability_policy!r}; expected one of {STABILITY_POLICIES}"
            )
        if self.potential_variant not in ("auto", "double_well", "truncated"):
            raise ConfigError(f"unknown potential variant {self.potential_variant!r}")
        if self.scheme == "convex_splitting" and self.potential_variant == "truncated":
            raise ConfigError("the convex splitting step is defined for the double-well potential only")
        if self.scheme in ("ssi1", "two_li") and self.potential_variant == "double_well":
            raise ConfigError(f"{self.scheme} requires the truncated potential")
        if self.scheme == "ssi1" and self.stability_policy == "enforce" \
                and self.stabilization < 0.5 * self.beta:
            raise ConfigError(
                f"ssi1 under the enforce policy needs S >= beta/2 = {0.5 * self.beta}, "
                f"got S = {self.stabilization}"
            )

    @property
    def beta(self) -> float:
        """Curvature bound of the truncated potential at the cutoff K."""
        return PotentialSpec("truncated", self.cutoff).curvature_bound

    @property
    def potential(self) -> PotentialSpec:
        if self.potential_variant == "truncated" or self.scheme in ("ssi1", "two_li"):
            return PotentialSpec("truncated", self.cutoff)
        return PotentialSpec("double_well")


@dataclass(frozen=True)
class SchemeState:
    """Trajectory state: current field, optional previous level, bookkeeping."""

    u: Field
    u_prev: Optional[Field] = None
    omega: Optional[Field] = None
    step_index: int = 0
    time: float = 0.0

    def __post_init__(self):
        if self.u_prev is not None:
            m, mp = mean(self.u), mean(self.u_prev)
            if abs(m - mp) > 1e-12 * (1.0 + max(abs(m), abs(mp))):
                raise StateError(
                    f"two-step state with unequal masses: {m!r} vs {mp!r}"
                )


class StepResult(NamedTuple):
    u: Field
    omega: Field
    newton_iters: int


def _step_result(geometry: GridGeometry, u_vals, omega_vals, newton_iters: int) -> StepResult:
    """Wrap a step's new level; a non-finite level (a diverged step) is a solver failure.

    Both arrays are fresh and owned by the step, so they are frozen and the
    ``Field``s adopt them without a copy.
    """
    try:
        return StepResult(Field(geometry, _freeze(u_vals)), Field(geometry, _freeze(omega_vals)),
                          newton_iters)
    except ValueError as err:  # the shapes come from the state: only finiteness can fail
        raise SolverError(f"diverged: {err}") from err


@dataclass(frozen=True)
class SolvabilityReport:
    """Exact per-grid admissibility check of the scheme's step size.

    ``per_mode_min`` is the minimum over nonzero DFT modes of the scheme's
    convexity/stability quantity; ``margin`` the binding margin whose
    nonnegativity decides admissibility (infinite for the unconditional
    scheme).  ``gamma0 > 0`` is required for every scheme.
    """

    scheme: str
    tau: float
    gamma0: float
    conv_one: float
    beta: float
    stabilization: float
    admissible: bool
    margin: float
    per_mode_min: float
    note: str = ""


def check_solvability(cfg: SchemeConfig, kernel: SampledKernel,
                      cache: SpectralCache) -> SolvabilityReport:
    """Evaluate the scheme's admissibility condition mode by mode.

    Boundary cases with margin exactly 0 are admissible; the note records
    that the underlying sufficient conditions are sharp there.
    """
    lam = cache.minus_laplacian_eigenvalues
    mask = lam > 0.0
    lam_nz = lam[mask]
    gap = nonlocal_gap(kernel, cfg.epsilon**2)[mask]
    g0 = gamma0(kernel, cfg.epsilon)
    beta = cfg.beta
    note = ""

    if cfg.scheme == "convex_splitting":
        per_mode_min = margin = np.inf
        admissible = g0 > 0.0
    elif cfg.scheme in ("backward_euler", "bdf2"):
        c_s = 1.0 if cfg.scheme == "backward_euler" else 2.0 / 3.0
        q = 1.0 / (c_s * cfg.tau * lam_nz) + gap - 1.0
        per_mode_min = float(q.min())
        margin = per_mode_min
        admissible = g0 > 0.0 and margin >= 0.0
    elif cfg.scheme == "ssi1":
        q = 1.0 / (cfg.tau * lam_nz) + cfg.stabilization + gap
        per_mode_min = float(q.min())
        margin = cfg.stabilization - 0.5 * beta
        admissible = g0 > 0.0 and margin >= 0.0 and per_mode_min > 0.0
    else:  # two_li
        q = 2.0 / (cfg.tau * lam_nz) + gap - 3.0 * beta
        per_mode_min = float(q.min())
        closed_form = (g0 + 1.0) / 3.0 - beta
        margin = min(closed_form, per_mode_min)
        admissible = g0 > 0.0 and closed_form >= 0.0 and per_mode_min >= 0.0

    if g0 <= 0.0:
        note = f"gamma0 = {g0!r} <= 0 violates the positive-diffusivity assumption"
    elif margin == 0.0:
        note = "margin is exactly 0: admissibility is decided at the sharp boundary"

    return SolvabilityReport(
        scheme=cfg.scheme,
        tau=cfg.tau,
        gamma0=g0,
        conv_one=kernel.conv_one,
        beta=beta,
        stabilization=cfg.stabilization,
        admissible=admissible,
        margin=float(margin),
        per_mode_min=float(per_mode_min),
        note=note,
    )


def _apply_policy(cfg: SchemeConfig, kernel: SampledKernel, cache: SpectralCache):
    if cfg.stability_policy == "ignore":
        return
    report = check_solvability(cfg, kernel, cache)
    if report.admissible:
        return
    message = (
        f"{cfg.scheme} inadmissible at tau = {cfg.tau}: margin = {report.margin:.6e}, "
        f"gamma0 = {report.gamma0:.6e}. {report.note}".rstrip()
    )
    if cfg.stability_policy == "enforce":
        raise StabilityError(message)
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _snap_mass(values: np.ndarray, target: float) -> np.ndarray:
    return values + (target - float(np.sum(values, dtype=np.longdouble)) / values.size)


# C of the Newton stop max(newton_tol, C eps scale).  Convex splitting's
# residual stagnates at 0.15-0.25 eps scale (the benchmark problem at N in
# 128..512, the phase-separating one at N = 64 and 128), the fully implicit
# schemes' far lower, so 4 stops clear of the rounding floor.
NEWTON_FLOOR_ULPS = 4.0


def _newton_step(state: SchemeState, cfg: SchemeConfig, cache: SpectralCache, a: float,
                 rhs_hat: np.ndarray, u_hat: np.ndarray, local, local_slope, slope,
                 gap: Optional[np.ndarray], explicit=0.0) -> StepResult:
    """Newton solve of a u + (-Lap)(omega(u)) = rhs from u^n, shared by the implicit schemes.

    ``rhs_hat`` and ``u_hat`` are rfft2(rhs) and rfft2(u^n), which the
    callers build from one transform of each level.  omega(u) = local(u) +
    G u with G the half-spectrum symbol ``gap`` (None when the nonlocal term
    is explicit, folded into ``local`` as its part ``explicit``), and
    ``local_slope(u)`` the pointwise derivative of ``local``.  The unknown
    is u_hat = rfft2(u), with residual
        (a + lambda G) u_hat - rhs_hat + lambda rfft2(local(irfft2(u_hat)))
    projected onto the coefficients of real fields (rounding breaks their
    symmetry, and GMRES then stalls), and its norm the mesh-weighted L2 norm
    of the field, by Parseval.  The frozen-coefficient preconditioner
    a + lambda (slope + G) is a division; ``newton_solve`` takes fixed-point
    steps with it before Newton-Krylov.  Newton stops at
    max(newton_tol, C eps scale): scale is the norm of rhs_hat, plus that of
    the preconditioner applied forward to u_hat^n, plus lambda_max times the
    norm of |u^n|^3 + |slope| |u^n| + |explicit|.  The last term bounds the
    rounding of local(u), which is white and which lambda amplifies at the
    high modes where u_hat itself is small.  None of it takes a transform.
    """
    lam = cache.minus_laplacian_eigenvalues
    shape = state.u.values.shape
    linear = a if gap is None else a + lam * gap
    shift = slope if gap is None else slope + gap
    symbol = a + lam * shift
    bad = symbol <= 0.0
    if bad.any():
        symbol = np.where(bad, a + lam * np.maximum(shift, 0.0), symbol)

    h = cache.geometry.h
    norm = lambda modes: h * _modes_norm(modes)
    terms = np.abs(state.u.values)
    terms *= terms * terms + abs(slope)
    terms += np.abs(explicit)
    scale = norm(rhs_hat) + norm(symbol * u_hat) + float(lam.max()) * _norm2_values(terms, h)
    tol = max(cfg.newton_tol, NEWTON_FLOOR_ULPS * np.finfo(np.float64).eps * scale)

    # newton_solve applies the Jacobian at the iterate of its last residual,
    # so the field that residual made is kept, and the slope there found once.
    iterate = {}

    def residual(modes):
        iterate["values"] = values = np.fft.irfft2(modes, s=shape)
        iterate["slope"] = None
        return _project_hermitian(linear * modes - rhs_hat + lam * np.fft.rfft2(local(values)))

    def jacobian(modes, v_hat):
        if iterate["slope"] is None:
            iterate["slope"] = local_slope(iterate["values"])
        return linear * v_hat + lam * np.fft.rfft2(iterate["slope"] * np.fft.irfft2(v_hat, s=shape))

    u_hat, iters, _ = newton_solve(residual, jacobian, u_hat, tol, cfg.newton_max_iter,
                                   lambda r: r / symbol, cfg.krylov_tol, norm)
    u_vals = _snap_mass(np.fft.irfft2(u_hat, s=shape), mean(state.u))
    omega_vals = local(u_vals)
    if gap is not None:
        omega_vals += apply_symbol(u_vals, gap)
    return _step_result(state.u.geometry, u_vals, omega_vals, iters)


def _implicit_potential_step(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
                             cache: SpectralCache, a: float, rhs_hat: np.ndarray,
                             u_hat: np.ndarray) -> StepResult:
    """Newton step with the fully implicit chemical potential (backward Euler, BDF2)."""
    pot = cfg.potential
    # Frozen-coefficient symbol: cubic term dropped, local slope -1 kept.
    return _newton_step(state, cfg, cache, a, rhs_hat, u_hat,
                        lambda u: potential_d1(pot, u), lambda u: potential_d2(pot, u),
                        -1.0, nonlocal_gap(kernel, cfg.epsilon**2))


def step_backward_euler(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
                        cache: SpectralCache) -> StepResult:
    """One fully implicit step; nonlinear solve with the previous level as guess."""
    u_hat = np.fft.rfft2(state.u.values)
    return _implicit_potential_step(state, cfg, kernel, cache, 1.0 / cfg.tau, u_hat / cfg.tau, u_hat)


def step_convex_splitting(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
                          cache: SpectralCache) -> StepResult:
    """One convex-splitting step: cubic and strong quadratic implicit, rest explicit.

    Unconditionally uniquely solvable; dissipates the plain energy for every
    step size.
    """
    strong = 2.0 * cfg.epsilon**2 * kernel.conv_one
    u_n = state.u.values
    u_hat = np.fft.rfft2(u_n)
    # Explicit part of the chemical potential, fixed during the solve.
    explicit = u_n + strong * u_n - np.fft.irfft2(nonlocal_gap(kernel, cfg.epsilon**2) * u_hat,
                                                  s=u_n.shape)
    return _newton_step(state, cfg, cache, 1.0 / cfg.tau, u_hat / cfg.tau, u_hat,
                        lambda u: u * u * u + strong * u - explicit,
                        lambda u: 3.0 * (u * u) + strong,
                        strong, None, explicit)


def _linear_step(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
                 cache: SpectralCache, a: float, rhs: np.ndarray, explicit: np.ndarray,
                 s: float) -> StepResult:
    """One DFT-diagonal solve of a u + (-Lap)(explicit + s u + G u) = rhs (ssi1, two_li).

    lambda vanishes at the constant mode, so it needs no special case; the
    mass snap shifts only that mode, and omega takes its implicit part from
    the solved spectrum.
    """
    lam = cache.minus_laplacian_eigenvalues
    shift = s + nonlocal_gap(kernel, cfg.epsilon**2)
    denominator = a + lam * shift
    if denominator.min() <= 0.0:
        raise ConfigError(
            "non-positive modal denominator in the linear solve; "
            "the kernel/stabilization configuration is outside the solvable regime"
        )
    u_hat = (np.fft.rfft2(rhs) - lam * np.fft.rfft2(explicit)) / denominator
    u_vals = _snap_mass(np.fft.irfft2(u_hat, s=rhs.shape), mean(state.u))
    omega_vals = explicit + np.fft.irfft2(shift * u_hat, s=rhs.shape)
    return _step_result(state.u.geometry, u_vals, omega_vals, 0)


def step_ssi1(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
              cache: SpectralCache) -> StepResult:
    """One stabilized linear semi-implicit step (single DFT-diagonal solve)."""
    u_n, s = state.u.values, cfg.stabilization
    return _linear_step(state, cfg, kernel, cache, 1.0 / cfg.tau, u_n / cfg.tau,
                        potential_d1(cfg.potential, u_n) - s * u_n, s)


def _require_history(state: SchemeState, scheme: str) -> Field:
    if state.u_prev is None:
        raise StateError(f"{scheme} needs the previous level u_prev; bootstrap the state first")
    return state.u_prev


def step_bdf2(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
              cache: SpectralCache) -> StepResult:
    """One two-step backward-differentiation step with implicit potential."""
    u_prev = _require_history(state, "bdf2")
    u_hat = np.fft.rfft2(state.u.values)
    rhs_hat = (4.0 * u_hat - np.fft.rfft2(u_prev.values)) / (2.0 * cfg.tau)
    return _implicit_potential_step(state, cfg, kernel, cache, 3.0 / (2.0 * cfg.tau),
                                    rhs_hat, u_hat)


def step_two_li(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
                cache: SpectralCache) -> StepResult:
    """One linearly implicit two-step step with extrapolated nonlinearity."""
    u_prev = _require_history(state, "two_li").values
    pot, u_n = cfg.potential, state.u.values
    return _linear_step(state, cfg, kernel, cache, 3.0 / (2.0 * cfg.tau),
                        (4.0 * u_n - u_prev) / (2.0 * cfg.tau),
                        2.0 * potential_d1(pot, u_n) - potential_d1(pot, u_prev), 0.0)


STEP_FUNCTIONS = {
    "backward_euler": step_backward_euler,
    "convex_splitting": step_convex_splitting,
    "ssi1": step_ssi1,
    "bdf2": step_bdf2,
    "two_li": step_two_li,
}


def bootstrap_config(cfg: SchemeConfig) -> SchemeConfig:
    """First-order startup scheme for the two-step methods.

    BDF2 starts with one backward-Euler step, the linearly implicit scheme
    with one stabilized semi-implicit step (stabilization raised to beta/2
    if needed); either preserves mass, which is all the two-step stability
    results require of the starting pair.
    """
    if cfg.scheme == "bdf2":
        return replace(cfg, scheme="backward_euler")
    if cfg.scheme == "two_li":
        return replace(cfg, scheme="ssi1",
                       stabilization=max(cfg.stabilization, 0.5 * cfg.beta))
    raise ConfigError(f"{cfg.scheme} is a one-step scheme and needs no bootstrap")


def advance(state: SchemeState, cfg: SchemeConfig, kernel: SampledKernel,
            cache: SpectralCache, admitted: Optional[set] = None) -> tuple[SchemeState, StepResult]:
    """Advance one step, bootstrapping a fresh two-step state transparently.

    The one place the stability policy is applied, to the configuration the
    step runs (the bootstrap's for a fresh two-step state).  Without
    ``admitted`` every call checks it; with it, only a configuration not yet
    in that set is checked, and it is added once it passes.  The set belongs
    to one kernel and cache.
    """
    step_cfg = cfg
    if cfg.scheme in TWO_STEP_SCHEMES and state.u_prev is None:
        step_cfg = bootstrap_config(cfg)
    if admitted is None or step_cfg not in admitted:
        _apply_policy(step_cfg, kernel, cache)
        if admitted is not None:
            admitted.add(step_cfg)
    result = STEP_FUNCTIONS[step_cfg.scheme](state, step_cfg, kernel, cache)
    keep_prev = state.u if cfg.scheme in TWO_STEP_SCHEMES else None
    try:
        next_state = SchemeState(
            u=result.u,
            u_prev=keep_prev,
            omega=result.omega,
            step_index=state.step_index + 1,
            time=state.time + cfg.tau,
        )
    except StateError as err:  # the given state was valid, so the step broke its mass
        raise SolverError(f"{step_cfg.scheme} step lost mass: {err}") from err
    return next_state, result
