import numpy as np
import pytest

from nchsolver import (ConfigError, Field, GridGeometry, KernelSpec,
                       SchemeConfig, SchemeState, SolverError, StabilityError, StateError,
                       advance, chemical_potential, check_solvability, energy,
                       laplacian, make_cache, mean,
                       modified_energy_two_step, modified_energy_two_step_linear,
                       newton_solve, norm2, project_zero_mean, sample_kernel)
from nchsolver import solvers, steppers
from nchsolver.spectral import laplacian_apply
from nchsolver.steppers import STEP_FUNCTIONS, TWO_STEP_SCHEMES, bootstrap_config
from nchsolver.oracles import dense_linear_step, dense_nonlinear_step

from conftest import random_field

GEO = GridGeometry(8, 1.0)
CACHE = make_cache(GEO)
GAUSS = sample_kernel(KernelSpec.gaussian(12.5, 10.0), GEO)
STRONG = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)  # admissible for two_li
CONST40 = sample_kernel(KernelSpec.constant(40.0), GEO)


def _cfg(scheme, tau, **kw):
    defaults = dict(epsilon=1.0, stabilization=5.5, cutoff=2.0)
    defaults.update(kw)
    return SchemeConfig(scheme=scheme, tau=tau, **defaults)


def _perturbed_state(rng, scale=0.05, geometry=GEO):
    u = Field(geometry, scale * rng.uniform(-1.0, 1.0, (geometry.n, geometry.n)))
    return SchemeState(u=project_zero_mean(u))


def _two_step_state(rng, cfg, kernel, cache):
    state = _perturbed_state(rng)
    next_state, _ = advance(state, cfg, kernel, cache)  # bootstrap
    return next_state


# --- fixed points -----------------------------------------------------------

@pytest.mark.parametrize("scheme", STEP_FUNCTIONS)
def test_constant_field_is_fixed_point(scheme):
    cfg = _cfg(scheme, tau=0.5, stability_policy="ignore")
    c = 0.35
    state = SchemeState(u=Field.constant(GEO, c),
                        u_prev=Field.constant(GEO, c) if scheme in TWO_STEP_SCHEMES else None)
    for _ in range(10):
        result = STEP_FUNCTIONS[scheme](state, cfg, GAUSS, CACHE)
        state = SchemeState(u=result.u,
                            u_prev=state.u if scheme in TWO_STEP_SCHEMES else None)
    assert np.abs(state.u.values - c).max() <= 1e-13
    # omega of a constant state is the constant F'(c) (F_K'(c) = F'(c) for |c| < K).
    assert np.abs(result.omega.values - (c**3 - c)).max() <= 1e-12


# --- defining equations hold at the returned pair ---------------------------

def test_backward_euler_residual_and_mass(rng):
    cfg = _cfg("backward_euler", tau=0.01)
    state = _perturbed_state(rng)
    result = STEP_FUNCTIONS["backward_euler"](state, cfg, GAUSS, CACHE)
    lhs = (result.u.values - state.u.values) / cfg.tau
    residual = lhs - laplacian(result.omega).values
    assert GEO.h * np.linalg.norm(residual) <= cfg.newton_tol
    omega_expected = chemical_potential(result.u, GAUSS, cfg.epsilon, cfg.potential)
    assert np.abs(result.omega.values - omega_expected.values).max() == 0.0
    assert abs(mean(result.u) - mean(state.u)) <= 1e-15


def test_ssi1_residual_small(rng):
    cfg = _cfg("ssi1", tau=0.1)
    state = _perturbed_state(rng)
    result = STEP_FUNCTIONS["ssi1"](state, cfg, GAUSS, CACHE)
    lhs = (result.u.values - state.u.values) / cfg.tau
    residual = lhs - laplacian(result.omega).values
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(residual).max() <= 1e-12 * scale


def test_two_li_residual_small(rng):
    cfg = _cfg("two_li", tau=0.005)
    state = _two_step_state(rng, cfg, STRONG, CACHE)
    result = STEP_FUNCTIONS["two_li"](state, cfg, STRONG, CACHE)
    lhs = (3.0 * result.u.values - 4.0 * state.u.values + state.u_prev.values) / (2.0 * cfg.tau)
    residual = lhs - laplacian(result.omega).values
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(residual).max() <= 1e-12 * scale


@pytest.mark.parametrize("scheme", ["backward_euler", "convex_splitting", "bdf2"])
def test_newton_steps_satisfy_stencil_equation(scheme, rng):
    # The solve applies -Lap through its symbol; the returned pair must satisfy
    # the finite-difference equation a u - rhs - Lap_h omega = 0 with the stencil.
    geo = GridGeometry(32, 1.0)
    cache = make_cache(geo)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    cfg = _cfg(scheme, tau=1e-4)
    state = _perturbed_state(rng, geometry=geo)
    if scheme in TWO_STEP_SCHEMES:
        state, _ = advance(state, cfg, kernel, cache)  # bootstrap
    result = STEP_FUNCTIONS[scheme](state, cfg, kernel, cache)
    u_n = state.u.values
    if scheme == "bdf2":
        a, rhs = 3.0 / (2.0 * cfg.tau), (4.0 * u_n - state.u_prev.values) / (2.0 * cfg.tau)
    else:
        a, rhs = 1.0 / cfg.tau, u_n / cfg.tau
    residual = a * result.u.values - rhs - laplacian_apply(result.omega.values, geo.h)
    assert geo.h * np.linalg.norm(residual) <= 10.0 * cfg.newton_tol


# --- energy dissipation -----------------------------------------------------

@pytest.mark.parametrize("tau", [0.01, 0.1, 1.0, 10.0])
def test_convex_splitting_dissipates_any_tau(tau, rng):
    cfg = _cfg("convex_splitting", tau=tau)
    state = _perturbed_state(rng)
    e_prev = energy(state.u, GAUSS, cfg.epsilon)
    for _ in range(15):
        u_prev = state.u
        state, result = advance(state, cfg, GAUSS, CACHE)
        e = energy(state.u, GAUSS, cfg.epsilon)
        assert e <= e_prev + 1e-10 * (1.0 + abs(e_prev))
        # Strong convexity of the implicit part gives an explicit decay rate.
        du = Field(GEO, state.u.values - u_prev.values)
        assert e_prev - e >= cfg.epsilon**2 * GAUSS.conv_one * norm2(du) ** 2 \
            - 1e-10 * (1.0 + abs(e_prev))
        e_prev = e


@pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
def test_ssi1_dissipates_truncated_energy(tau, rng):
    cfg = _cfg("ssi1", tau=tau)  # S = 5.5 = beta/2 for K = 2
    state = _perturbed_state(rng)
    pot = cfg.potential
    e_prev = energy(state.u, GAUSS, cfg.epsilon, pot)
    for _ in range(15):
        state, _ = advance(state, cfg, GAUSS, CACHE)
        e = energy(state.u, GAUSS, cfg.epsilon, pot)
        assert e <= e_prev + 1e-10 * (1.0 + abs(e_prev))
        e_prev = e


def test_backward_euler_dissipates_at_admissible_tau(rng):
    cfg = _cfg("backward_euler", tau=0.2)
    assert check_solvability(cfg, GAUSS, CACHE).admissible
    state = _perturbed_state(rng)
    e_prev = energy(state.u, GAUSS, cfg.epsilon)
    for _ in range(15):
        state, _ = advance(state, cfg, GAUSS, CACHE)
        e = energy(state.u, GAUSS, cfg.epsilon)
        assert e <= e_prev + 1e-10 * (1.0 + abs(e_prev))
        e_prev = e


def test_bdf2_dissipates_modified_energy(rng):
    cfg = _cfg("bdf2", tau=0.05)
    assert check_solvability(cfg, GAUSS, CACHE).admissible
    state = _two_step_state(rng, cfg, GAUSS, CACHE)
    du = project_zero_mean(Field(GEO, state.u.values - state.u_prev.values))
    m_prev = modified_energy_two_step(state.u, du, cfg.tau, GAUSS, cfg.epsilon, CACHE)
    for _ in range(15):
        state, _ = advance(state, cfg, GAUSS, CACHE)
        du = project_zero_mean(Field(GEO, state.u.values - state.u_prev.values))
        m = modified_energy_two_step(state.u, du, cfg.tau, GAUSS, cfg.epsilon, CACHE)
        assert m <= m_prev + 1e-10 * (1.0 + abs(m_prev))
        m_prev = m


def test_two_li_dissipates_modified_energy_any_tau_with_constant_kernel(rng):
    # With a constant kernel the per-mode check reduces to the closed form,
    # so beta <= (gamma0 + 1)/3 makes every step size admissible.
    for tau in (0.05, 1.0):
        cfg = _cfg("two_li", tau=tau)
        report = check_solvability(cfg, CONST40, CACHE)
        assert report.admissible
        state = _two_step_state(rng, cfg, CONST40, CACHE)
        pot = cfg.potential
        du = project_zero_mean(Field(GEO, state.u.values - state.u_prev.values))
        m_prev = modified_energy_two_step_linear(state.u, du, cfg.tau, cfg.beta,
                                                 CONST40, cfg.epsilon, CACHE, pot)
        for _ in range(15):
            state, _ = advance(state, cfg, CONST40, CACHE)
            du = project_zero_mean(Field(GEO, state.u.values - state.u_prev.values))
            m = modified_energy_two_step_linear(state.u, du, cfg.tau, cfg.beta,
                                                CONST40, cfg.epsilon, CACHE, pot)
            assert m <= m_prev + 1e-10 * (1.0 + abs(m_prev))
            m_prev = m


# --- dense oracle equivalence ------------------------------------------------

GEO4 = GridGeometry(4, 1.0)
CACHE4 = make_cache(GEO4)
STRONG4 = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO4)


# Odd N: the half spectrum of the production transforms has no Nyquist column.
GEO7 = GridGeometry(7, 1.0)
CACHE7 = make_cache(GEO7)
STRONG7 = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO7)


def _check_step_against_dense_oracle(scheme, tol, kernel, cache, rng):
    geometry = cache.geometry
    cfg = _cfg(scheme, tau=1e-3)
    u0 = project_zero_mean(random_field(geometry, rng, scale=0.5))
    u1 = Field(geometry, u0.values + 0.01 * project_zero_mean(random_field(geometry, rng)).values)
    state = SchemeState(u=u1, u_prev=u0 if scheme in TWO_STEP_SCHEMES else None)
    result = STEP_FUNCTIONS[scheme](state, cfg, kernel, cache)
    if scheme in ("ssi1", "two_li"):
        ref_u, ref_w = dense_linear_step(scheme, u1, u0, cfg.tau, cfg.epsilon,
                                         cfg.stabilization, kernel, cfg.potential)
    else:
        ref_u, ref_w = dense_nonlinear_step(scheme, u1, u0, cfg.tau, cfg.epsilon,
                                            kernel, cfg.potential)
    assert np.abs(result.u.values.ravel() - ref_u).max() <= tol
    assert np.abs(result.omega.values.ravel() - ref_w).max() <= 100 * tol


@pytest.mark.parametrize("scheme,tol", [
    ("backward_euler", 1e-9), ("convex_splitting", 1e-9), ("bdf2", 1e-9),
    ("ssi1", 1e-11), ("two_li", 1e-11),
])
def test_steps_match_dense_oracles(scheme, tol, rng):
    _check_step_against_dense_oracle(scheme, tol, STRONG4, CACHE4, rng)


@pytest.mark.parametrize("scheme,tol", [
    ("backward_euler", 1e-9), ("convex_splitting", 1e-9), ("bdf2", 1e-9),
    ("ssi1", 1e-11), ("two_li", 1e-11),
])
def test_steps_match_dense_oracles_at_odd_n(scheme, tol, rng):
    _check_step_against_dense_oracle(scheme, tol, STRONG7, CACHE7, rng)


# --- solvability check -------------------------------------------------------

def test_margin_monotone_in_tau():
    taus = [1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0]
    margins = [check_solvability(_cfg("backward_euler", tau=t), GAUSS, CACHE).margin
               for t in taus]
    assert all(a >= b for a, b in zip(margins, margins[1:]))
    assert margins[0] > 10.0 * margins[-1]  # tau -> 0 grows the margin without bound


def test_constant_kernel_admissible_for_every_tau():
    for tau in (1e-6, 1.0, 1e12):
        report = check_solvability(_cfg("backward_euler", tau=tau), CONST40, CACHE)
        assert report.admissible
        assert report.margin >= report.gamma0 - 1e-12


def test_gamma0_boundary_inadmissible_for_all_tau():
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    for tau in (1e-9, 1e-3, 1.0):
        report = check_solvability(
            _cfg("backward_euler", tau=tau, stability_policy="warn"), boundary, CACHE)
        assert not report.admissible
        assert report.gamma0 == pytest.approx(0.0, abs=1e-14)


def test_bdf2_check_is_stricter_than_backward_euler():
    # Same per-mode quantity with coefficient 3/(2 tau) instead of 1/tau.
    tau = 0.3
    be = check_solvability(_cfg("backward_euler", tau=tau), GAUSS, CACHE)
    bdf2 = check_solvability(_cfg("bdf2", tau=tau), GAUSS, CACHE)
    assert bdf2.per_mode_min >= be.per_mode_min


def test_ssi1_margin_is_stabilization_slack():
    report = check_solvability(_cfg("ssi1", tau=0.5), GAUSS, CACHE)
    assert report.admissible
    assert report.margin == pytest.approx(5.5 - 0.5 * report.beta)
    weak = check_solvability(
        _cfg("ssi1", tau=0.5, stabilization=2.0, stability_policy="warn"), GAUSS, CACHE)
    assert not weak.admissible


def test_two_li_beta_bound_is_binding():
    # gamma0 of the weak kernel is far below 3 beta - 1, so no tau is admissible.
    for tau in (1e-8, 1e-2):
        report = check_solvability(_cfg("two_li", tau=tau, stability_policy="warn"),
                                   GAUSS, CACHE)
        assert not report.admissible
    ok = check_solvability(_cfg("two_li", tau=1e-3), STRONG, CACHE)
    assert ok.admissible


# --- policy handling ---------------------------------------------------------

def test_enforce_policy_rejects_step(rng):
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    cfg = _cfg("backward_euler", tau=0.1, stability_policy="enforce")
    state = _perturbed_state(rng)
    with pytest.raises(StabilityError):
        advance(state, cfg, boundary, CACHE)


def test_warn_policy_warns_and_steps(rng):
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    cfg = _cfg("backward_euler", tau=1e-3, stability_policy="warn")
    state = _perturbed_state(rng)
    with pytest.warns(RuntimeWarning):
        _, result = advance(state, cfg, boundary, CACHE)
    assert np.isfinite(result.u.values).all()


@pytest.mark.parametrize("scheme", STEP_FUNCTIONS)
def test_step_functions_never_check_admissibility(scheme, rng, monkeypatch):
    # advance alone applies the stability policy; the steps are pure solves.
    def refuse(*args):
        raise AssertionError("a step function checked admissibility")

    monkeypatch.setattr(steppers, "check_solvability", refuse)
    cfg = _cfg(scheme, tau=1e-3, stability_policy="enforce")
    state = _perturbed_state(rng)
    if scheme in TWO_STEP_SCHEMES:
        state = SchemeState(u=state.u, u_prev=state.u)
    result = STEP_FUNCTIONS[scheme](state, cfg, GAUSS, CACHE)
    assert np.isfinite(result.u.values).all()


def test_missing_history_raises_state_error(rng):
    state = _perturbed_state(rng)
    for scheme in TWO_STEP_SCHEMES:
        with pytest.raises(StateError):
            STEP_FUNCTIONS[scheme](state, _cfg(scheme, tau=0.01, stability_policy="ignore"),
                                   GAUSS, CACHE)


def test_state_mass_invariant():
    with pytest.raises(StateError):
        SchemeState(u=Field.constant(GEO, 0.1), u_prev=Field.constant(GEO, 0.2))


def test_ssi1_config_invariant_under_enforce():
    with pytest.raises(ConfigError):
        SchemeConfig(scheme="ssi1", tau=0.1, epsilon=1.0, stabilization=1.0, cutoff=2.0,
                     stability_policy="enforce")
    # The same constants are constructible under warn/ignore.
    SchemeConfig(scheme="ssi1", tau=0.1, epsilon=1.0, stabilization=1.0, cutoff=2.0,
                 stability_policy="warn")


def test_bootstrap_config_selection():
    assert bootstrap_config(_cfg("bdf2", tau=0.1)).scheme == "backward_euler"
    boot = bootstrap_config(_cfg("two_li", tau=0.1, stabilization=0.0,
                                 stability_policy="ignore"))
    assert boot.scheme == "ssi1"
    assert boot.stabilization == pytest.approx(5.5)  # raised to beta/2
    with pytest.raises(ConfigError):
        bootstrap_config(_cfg("backward_euler", tau=0.1))


# --- newton_solve ------------------------------------------------------------

def test_newton_returns_initial_guess_when_converged():
    u0 = np.zeros((4, 4))
    calls = []

    def residual(u):
        calls.append(1)
        return np.zeros_like(u)

    u, iters, history = newton_solve(residual, lambda u, v: v, u0, 1e-11, 10, lambda v: v)
    assert iters == 0
    assert np.array_equal(u, u0)


def test_newton_linear_problem_converges_in_one_iteration(rng):
    a = rng.uniform(-1, 1, (4, 4))
    u, iters, _ = newton_solve(lambda u: u - a, lambda u, v: v,
                               np.zeros((4, 4)), 1e-12, 10, lambda v: v)
    assert iters == 1
    assert np.abs(u - a).max() <= 1e-12


def test_newton_exact_preconditioner_needs_no_jacobian(rng):
    # A preconditioner equal to the Jacobian of a linear problem makes the
    # first fixed-point step exact: no Krylov solve, no Jacobian apply.
    d = rng.uniform(1.0, 3.0, (4, 4))
    b = rng.uniform(-1, 1, (4, 4))

    def jacobian(u, v):
        raise AssertionError("jacobian_apply called")

    u, iters, history = newton_solve(lambda u: d * u - b, jacobian,
                                     np.zeros((4, 4)), 1e-12, 10, lambda r: r / d)
    assert iters == 1 and len(history) == 2
    assert np.abs(u - b / d).max() <= 1e-15


def test_newton_nonconvergence_raises_with_history():
    # Residual with no root: r(u) = u^2 + 1 elementwise.
    with pytest.raises(SolverError) as excinfo:
        newton_solve(lambda u: u * u + 1.0, lambda u, v: 2.0 * u * v,
                     np.zeros((2, 2)), 1e-12, 5, lambda v: v)
    assert len(excinfo.value.residuals) >= 1


def test_newton_counts_inner_solves_that_did_not_converge(monkeypatch, rng):
    real_gmres = solvers.gmres

    def capped_gmres(*args, **kwargs):
        x, _ = real_gmres(*args, **kwargs)
        return x, 4  # as if every inner solve hit its iteration cap

    monkeypatch.setattr(solvers, "gmres", capped_gmres)
    # A direction that still reduces the residual is taken: the step converges.
    a = rng.uniform(-1, 1, (4, 4))
    u, iters, _ = newton_solve(lambda u: u - a, lambda u, v: v,
                               np.zeros((4, 4)), 1e-12, 10, lambda v: v)
    assert iters == 1
    assert np.abs(u - a).max() <= 1e-12
    with pytest.raises(SolverError, match=r"\b(\d+) of \1 inner solves did not converge"):
        newton_solve(lambda u: u * u + 1.0, lambda u, v: 2.0 * u * v,
                     np.ones((2, 2)), 1e-12, 5, lambda v: v)


def test_newton_step_stops_at_the_rounding_floor(rng):
    # A tolerance far below rounding in the residual's terms (which scale like
    # 1/h^2) still converges, at C eps scale, in a few iterations.
    geo = GridGeometry(64, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    state = _perturbed_state(rng, geometry=geo)
    for scheme in ("backward_euler", "convex_splitting"):
        cfg = _cfg(scheme, tau=1e-4, newton_tol=1e-30)
        result = STEP_FUNCTIONS[scheme](state, cfg, kernel, make_cache(geo))
        assert 1 <= result.newton_iters <= 5


# --- mass conservation -------------------------------------------------------

@pytest.mark.parametrize("scheme", STEP_FUNCTIONS)
def test_mass_conserved_over_fifty_steps(scheme, rng):
    kernel = STRONG
    cfg = _cfg(scheme, tau=2e-3)
    state = SchemeState(u=Field(GEO, 0.1 + 0.05 * rng.uniform(-1, 1, (8, 8))))
    m0 = mean(state.u)
    for _ in range(50):
        state, _ = advance(state, cfg, kernel, CACHE)
    assert abs(mean(state.u) - m0) <= 1e-12 * max(1.0, abs(m0))
