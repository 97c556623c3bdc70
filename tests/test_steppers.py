import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from nchsolver import (ConfigError, Field, GeometryMismatchError, GridGeometry, KernelSpec, RunOptions,
                       SchemeConfig, SchemeState, SolverError, StabilityError, StateError,
                       advance, chemical_potential, check_solvability, energy,
                       make_cache, mean, newton_solve, norm2,
                       random_initial_field, run, sample_kernel)
from nchsolver import solvers, steppers
from nchsolver.spectral import laplacian_apply, norm_neg1
from nchsolver.steppers import _SCHEMES, SCHEMES, TWO_STEP_SCHEMES
from nchsolver.oracles import dense_linear_step, dense_nonlinear_step, zero_mean

from conftest import overflowing_checkpoint_state, random_field, recomposed_modified_energy

GEO = GridGeometry(8, 1.0)
CACHE = make_cache(GEO)
GAUSS = sample_kernel(KernelSpec.gaussian(12.5, 10.0), GEO)
STRONG = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)  # admissible for two_li
CONST40 = sample_kernel(KernelSpec.constant(40.0), GEO)


def _cfg(scheme, tau, **kw):
    defaults = dict(epsilon=1.0, stabilization=5.5, cutoff=2.0)
    defaults.update(kw)
    return SchemeConfig(scheme=scheme, tau=tau, **defaults)


def _unchecked(state, cfg, model):
    """One step with no admissibility check: the new state and its Newton iterations."""
    return advance(state, replace(cfg, stability_policy="ignore"), model)


def _check(cfg, kernel):
    return check_solvability(cfg, cfg.model(kernel, CACHE))


def _perturbed_state(rng, scale=0.05, geometry=GEO):
    u = Field(geometry, scale * rng.uniform(-1.0, 1.0, (geometry.n, geometry.n)))
    return SchemeState(u=zero_mean(u))


def _two_step_state(rng, cfg, kernel, cache):
    state = _perturbed_state(rng)
    next_state, _ = advance(state, cfg, cfg.model(kernel, cache))  # bootstrap
    return next_state


# --- fixed points -----------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
def test_constant_field_is_fixed_point(scheme):
    cfg = _cfg(scheme, tau=0.5, stability_policy="ignore")
    c = 0.35
    level = Field(GEO, np.full((8, 8), c))
    state = SchemeState(u=level, u_prev=level if scheme in TWO_STEP_SCHEMES else None)
    model = cfg.model(GAUSS, CACHE)
    for _ in range(10):
        state, _ = advance(state, cfg, model)
    assert np.abs(state.u.values - c).max() <= 1e-13
    # omega of a constant state is the constant F'(c) (F_K'(c) = F'(c) for |c| < K).
    assert np.abs(state.omega.values - (c**3 - c)).max() <= 1e-12


# --- defining equations hold at the returned pair ---------------------------

def test_backward_euler_residual_and_mass(rng):
    cfg = _cfg("backward_euler", tau=0.01)
    state = _perturbed_state(rng)
    result, _ = _unchecked(state, cfg, cfg.model(GAUSS, CACHE))
    lhs = (result.u.values - state.u.values) / cfg.tau
    residual = lhs - laplacian_apply(result.omega.values, GEO.h)
    assert GEO.h * np.linalg.norm(residual) <= cfg.newton_tol
    # omega is rfft2(F'(u)) at the solve's mass-snapped values, which u
    # adopts, plus G rfft2(u): chemical_potential(u) bit for bit.
    omega_expected = chemical_potential(result.u, cfg.model(GAUSS, CACHE))
    assert np.array_equal(result.omega.spectrum, omega_expected.spectrum)
    assert abs(mean(result.u) - mean(state.u)) <= 1e-15


def test_bdf2_residual_and_mass(rng):
    cfg = _cfg("bdf2", tau=0.01)
    model = cfg.model(GAUSS, CACHE)
    state = _two_step_state(rng, cfg, GAUSS, CACHE)
    result, _ = _unchecked(state, cfg, model)
    lhs = (3.0 * result.u.values - 4.0 * state.u.values + state.u_prev.values) / (2.0 * cfg.tau)
    residual = lhs - laplacian_apply(result.omega.values, GEO.h)
    assert GEO.h * np.linalg.norm(residual) <= cfg.newton_tol
    assert np.array_equal(result.omega.spectrum, chemical_potential(result.u, model).spectrum)
    assert abs(mean(result.u) - mean(state.u)) <= 1e-15


@pytest.mark.parametrize("wrong", ["ssi1", "zero"])
def test_backward_euler_step_from_a_wrong_omega_reaches_the_same_level(wrong, rng):
    # The guess's residual is built from the state's omega.  A wrong one (an
    # ssi1 step's, or 0, which makes that residual vanish at a state far
    # from the solution) may cost iterations, but the step still converges
    # on evaluated residuals to the level the true omega leads to.
    cfg = _cfg("backward_euler", tau=0.01)
    model = cfg.model(GAUSS, CACHE)
    ssi1 = _cfg("ssi1", tau=0.01)
    start, _ = advance(_perturbed_state(rng), ssi1, ssi1.model(GAUSS, CACHE))
    omega = start.omega if wrong == "ssi1" else Field(GEO, np.zeros((8, 8)))
    assert not np.array_equal(omega.spectrum, chemical_potential(start.u, model).spectrum)
    true, _ = _unchecked(SchemeState(u=start.u, omega=chemical_potential(start.u, model)), cfg, model)
    result, newton_iters = advance(SchemeState(u=start.u, omega=omega), cfg, model)
    assert newton_iters >= 1
    assert norm2(Field(GEO, result.u.values - true.u.values)) <= cfg.newton_tol
    assert np.array_equal(result.omega.spectrum, chemical_potential(result.u, model).spectrum)


def test_ssi1_residual_small(rng):
    cfg = _cfg("ssi1", tau=0.1)
    state = _perturbed_state(rng)
    result, _ = _unchecked(state, cfg, cfg.model(GAUSS, CACHE))
    lhs = (result.u.values - state.u.values) / cfg.tau
    residual = lhs - laplacian_apply(result.omega.values, GEO.h)
    scale = max(np.abs(lhs).max(), 1.0)
    assert np.abs(residual).max() <= 1e-12 * scale


def test_two_li_residual_small(rng):
    cfg = _cfg("two_li", tau=0.005)
    state = _two_step_state(rng, cfg, STRONG, CACHE)
    result, _ = _unchecked(state, cfg, cfg.model(STRONG, CACHE))
    lhs = (3.0 * result.u.values - 4.0 * state.u.values + state.u_prev.values) / (2.0 * cfg.tau)
    residual = lhs - laplacian_apply(result.omega.values, GEO.h)
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
    model = cfg.model(kernel, cache)
    if scheme in TWO_STEP_SCHEMES:
        state, _ = advance(state, cfg, model)  # bootstrap
    result, _ = _unchecked(state, cfg, model)
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
    model = cfg.model(GAUSS, CACHE)
    e_prev = energy(state.u, model)
    for _ in range(15):
        u_prev = state.u
        state, result = advance(state, cfg, model)
        e = energy(state.u, model)
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
    model = cfg.model(GAUSS, CACHE)
    e_prev = energy(state.u, model)
    for _ in range(15):
        state, _ = advance(state, cfg, model)
        e = energy(state.u, model)
        assert e <= e_prev + 1e-10 * (1.0 + abs(e_prev))
        e_prev = e


def test_backward_euler_dissipates_at_admissible_tau(rng):
    cfg = _cfg("backward_euler", tau=0.2)
    model = cfg.model(GAUSS, CACHE)
    assert check_solvability(cfg, model).admissible
    state = _perturbed_state(rng)
    e_prev = energy(state.u, model)
    for _ in range(15):
        state, _ = advance(state, cfg, model)
        e = energy(state.u, model)
        assert e <= e_prev + 1e-10 * (1.0 + abs(e_prev))
        e_prev = e


def test_bdf2_dissipates_modified_energy(rng):
    cfg = _cfg("bdf2", tau=0.05)
    model = cfg.model(GAUSS, CACHE)
    assert check_solvability(cfg, model).admissible
    state = _two_step_state(rng, cfg, GAUSS, CACHE)
    du = zero_mean(Field(GEO, state.u.values - state.u_prev.values))
    m_prev = recomposed_modified_energy(state.u, du, cfg.tau, model)
    for _ in range(15):
        state, _ = advance(state, cfg, model)
        du = zero_mean(Field(GEO, state.u.values - state.u_prev.values))
        m = recomposed_modified_energy(state.u, du, cfg.tau, model)
        assert m <= m_prev + 1e-10 * (1.0 + abs(m_prev))
        m_prev = m


def test_two_li_dissipates_modified_energy_any_tau_with_constant_kernel(rng):
    # With a constant kernel the per-mode check reduces to the closed form,
    # so beta <= (gamma0 + 1)/3 makes every step size admissible.
    for tau in (0.05, 1.0):
        cfg = _cfg("two_li", tau=tau)
        model = cfg.model(CONST40, CACHE)
        report = check_solvability(cfg, model)
        assert report.admissible
        state = _two_step_state(rng, cfg, CONST40, CACHE)
        du = zero_mean(Field(GEO, state.u.values - state.u_prev.values))
        beta = model.potential.curvature_bound
        m_prev = recomposed_modified_energy(state.u, du, cfg.tau, model, beta)
        for _ in range(15):
            state, _ = advance(state, cfg, model)
            du = zero_mean(Field(GEO, state.u.values - state.u_prev.values))
            m = recomposed_modified_energy(state.u, du, cfg.tau, model, beta)
            assert m <= m_prev + 1e-10 * (1.0 + abs(m_prev))
            m_prev = m


@pytest.mark.parametrize("scheme", SCHEMES)
def test_modified_energy_is_the_two_step_functional(scheme, rng):
    # A one-step scheme dissipates E itself; a two-step scheme the recomposed
    # modified energy, with the (beta/2) ||du||^2 term for two_li only.
    cfg = _cfg(scheme, tau=0.05)
    u = random_field(GEO, rng)
    du = zero_mean(random_field(GEO, rng, scale=0.1))
    model = cfg.model(GAUSS, CACHE)
    e = energy(u, model)
    actual = steppers.modified_energy(cfg, model, e, norm_neg1(du.spectrum, CACHE), norm2(du))
    if scheme not in TWO_STEP_SCHEMES:
        assert actual is None
        return
    beta = model.potential.curvature_bound if scheme == "two_li" else 0.0
    expected = recomposed_modified_energy(u, du, cfg.tau, model, beta)
    assert actual == pytest.approx(expected, rel=1e-14)
    assert actual > e


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
    u0 = zero_mean(random_field(geometry, rng, scale=0.5))
    u1 = Field(geometry, u0.values + 0.01 * zero_mean(random_field(geometry, rng)).values)
    state = SchemeState(u=u1, u_prev=u0 if scheme in TWO_STEP_SCHEMES else None)
    result, _ = _unchecked(state, cfg, cfg.model(kernel, cache))
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
    margins = [_check(_cfg("backward_euler", tau=t), GAUSS).margin for t in taus]
    assert all(a >= b for a, b in zip(margins, margins[1:]))
    assert margins[0] > 10.0 * margins[-1]  # tau -> 0 grows the margin without bound


def test_constant_kernel_admissible_for_every_tau():
    for tau in (1e-6, 1.0, 1e12):
        cfg = _cfg("backward_euler", tau=tau)
        model = cfg.model(CONST40, CACHE)
        report = check_solvability(cfg, model)
        assert report.admissible
        assert report.margin >= model.gamma0 - 1e-12


def test_gamma0_boundary_inadmissible_for_all_tau():
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    for tau in (1e-9, 1e-3, 1.0):
        cfg = _cfg("backward_euler", tau=tau, stability_policy="warn")
        model = cfg.model(boundary, CACHE)
        assert not check_solvability(cfg, model).admissible
        assert model.gamma0 == pytest.approx(0.0, abs=1e-14)


def test_bdf2_check_is_stricter_than_backward_euler():
    # Same per-mode quantity with coefficient 3/(2 tau) instead of 1/tau.
    tau = 0.3
    be = _check(_cfg("backward_euler", tau=tau), GAUSS)
    bdf2 = _check(_cfg("bdf2", tau=tau), GAUSS)
    assert bdf2.per_mode_min >= be.per_mode_min


def test_ssi1_margin_is_stabilization_slack():
    cfg = _cfg("ssi1", tau=0.5)
    report = _check(cfg, GAUSS)
    assert report.admissible
    assert report.margin == pytest.approx(5.5 - 0.5 * (3 * 2.0**2 - 1))
    weak = _check(_cfg("ssi1", tau=0.5, stabilization=2.0, stability_policy="warn"), GAUSS)
    assert not weak.admissible


def test_two_li_beta_bound_is_binding():
    # gamma0 of the weak kernel is far below 3 beta - 1, so no tau is admissible.
    for tau in (1e-8, 1e-2):
        report = _check(_cfg("two_li", tau=tau, stability_policy="warn"), GAUSS)
        assert not report.admissible
    ok = _check(_cfg("two_li", tau=1e-3), STRONG)
    assert ok.admissible


# --- policy handling ---------------------------------------------------------

def test_enforce_policy_rejects_step(rng):
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    cfg = _cfg("backward_euler", tau=0.1, stability_policy="enforce")
    state = _perturbed_state(rng)
    with pytest.raises(StabilityError):
        advance(state, cfg, cfg.model(boundary, CACHE))


def test_warn_policy_warns_and_steps(rng):
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    cfg = _cfg("backward_euler", tau=1e-3, stability_policy="warn")
    state = _perturbed_state(rng)
    with pytest.warns(RuntimeWarning) as record:
        result, _ = advance(state, cfg, cfg.model(boundary, CACHE))
    assert np.isfinite(result.u.values).all()
    # The warning names advance's caller, this file, not a frame inside the library.
    assert [w.filename for w in record] == [__file__]


def test_warn_policy_warns_once_per_configuration_and_model(rng):
    # The model keeps each configuration it vetted, so steps under one model
    # warn once; another model vets the configuration again.
    boundary = sample_kernel(KernelSpec.constant(1.0), GEO)
    cfg = _cfg("backward_euler", tau=1e-3, stability_policy="warn")
    model = cfg.model(boundary, CACHE)
    state = _perturbed_state(rng)
    with pytest.warns(RuntimeWarning) as record:
        for _ in range(3):
            state, _ = advance(state, cfg, model)
    assert len(record) == 1
    with pytest.warns(RuntimeWarning) as record:
        advance(state, cfg, cfg.model(boundary, CACHE))
    assert len(record) == 1


def test_a_configuration_steps_under_each_model_with_that_models_own_operator():
    # One ssi1 configuration stepped under two models in turn: the second
    # step is a fresh model's bit for bit, and a second model with gamma0 < 0
    # is refused under enforce although the first model passed the check.
    geo = GridGeometry(16, 1.0)
    cache = make_cache(geo)
    cfg = _cfg("ssi1", tau=1e-3)
    state = SchemeState(u=random_initial_field(geo, 0.0, 0.05, seed=7))
    first = cfg.model(sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo), cache)
    strong = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    under_first, _ = advance(state, cfg, first)
    second, _ = advance(state, cfg, cfg.model(strong, cache))
    fresh, _ = advance(state, cfg, cfg.model(strong, cache))
    assert not np.array_equal(second.u.values, under_first.u.values)
    assert np.array_equal(second.u.values, fresh.u.values)
    assert np.array_equal(second.u.spectrum, fresh.u.spectrum)
    assert np.array_equal(second.omega.spectrum, fresh.omega.spectrum)
    negative = cfg.model(sample_kernel(KernelSpec.constant(0.16), geo), cache)
    assert negative.gamma0 < 0.0
    with pytest.raises(StabilityError, match="gamma0"):
        advance(state, cfg, negative)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_ignore_policy_never_checks_admissibility(scheme, rng, monkeypatch):
    # Under ignore, advance is a pure solve: the check is never evaluated.
    def refuse(*args):
        raise AssertionError("step checked admissibility")

    monkeypatch.setattr(steppers, "check_solvability", refuse)
    cfg = _cfg(scheme, tau=1e-3, stability_policy="ignore")
    state = _perturbed_state(rng)
    if scheme in TWO_STEP_SCHEMES:
        state = SchemeState(u=state.u, u_prev=state.u)
    result, _ = advance(state, cfg, cfg.model(GAUSS, CACHE))
    assert np.isfinite(result.u.values).all()


def test_state_mass_invariant():
    with pytest.raises(StateError):
        SchemeState(u=Field(GEO, np.full((8, 8), 0.1)), u_prev=Field(GEO, np.full((8, 8), 0.2)))


def test_state_previous_level_on_another_grid_is_a_geometry_mismatch():
    # Equal masses, so only the grids differ; a bdf2 resume from this state
    # must fail before its first step, not inside numpy's broadcasting.
    with pytest.raises(GeometryMismatchError):
        SchemeState(u=Field(GridGeometry(32, 1.0), np.full((32, 32), 0.1)),
                    u_prev=Field(GridGeometry(16, 1.0), np.full((16, 16), 0.1)))


def test_state_omega_on_another_grid_is_a_geometry_mismatch():
    with pytest.raises(GeometryMismatchError):
        SchemeState(u=Field(GEO, np.full((8, 8), 0.1)),
                    omega=Field(GridGeometry(16, 1.0), np.zeros((16, 16))))


def test_ssi1_config_invariant_under_enforce(rng):
    # S = 1 < beta/2 = 5.5 builds under every policy: advance applies the rule.
    cfg = SchemeConfig(scheme="ssi1", tau=0.1, epsilon=1.0, stabilization=1.0, cutoff=2.0,
                       stability_policy="enforce")
    with pytest.raises(StabilityError, match=r"ssi1 inadmissible .*margin = -4\.5"):
        advance(_perturbed_state(rng), cfg, cfg.model(GAUSS, CACHE))


def test_advance_rejects_a_model_of_another_configuration():
    # The check reads beta from the configuration (K = 1.05, so S = 1.2 >=
    # beta/2 passes), the step eps and the potential from the model (K = 1.5,
    # where S < beta/2 = 2.875): such a pair is refused before any step.
    geo = GridGeometry(16, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
    cfg = SchemeConfig("ssi1", 0.1, 1.0, stabilization=1.2, cutoff=1.05)
    model = SchemeConfig("ssi1", 0.1, 2.0, stabilization=1.2, cutoff=1.5).model(kernel, make_cache(geo))
    state = SchemeState(u=random_initial_field(geo, 0.0, 0.05, seed=7))
    with pytest.raises(ConfigError, match="does not match the model"):
        advance(state, cfg, model)
    assert not model._operators


def test_bootstrap_config_selection():
    bdf2 = _cfg("bdf2", tau=0.1)
    assert _SCHEMES["bdf2"].bootstrap(bdf2, bdf2.model(GAUSS, CACHE)).scheme == "backward_euler"
    two_li = _cfg("two_li", tau=0.1, stabilization=0.0, stability_policy="ignore")
    boot = _SCHEMES["two_li"].bootstrap(two_li, two_li.model(GAUSS, CACHE))
    assert boot.scheme == "ssi1"
    assert boot.stabilization == pytest.approx(5.5)  # raised to beta/2


@pytest.mark.parametrize("scheme, variant", [
    ("bdf2", "auto"), ("bdf2", "double_well"), ("bdf2", "truncated"),
    ("two_li", "auto"), ("two_li", "truncated"),  # two_li is defined through F_K only
])
def test_bootstrap_keeps_the_model(scheme, variant):
    # One Model serves a run's startup step and the steps after it.
    cfg = _cfg(scheme, tau=0.1, potential_variant=variant, cutoff=1.5)
    boot = _SCHEMES[scheme].bootstrap(cfg, cfg.model(GAUSS, CACHE))
    assert boot.potential == cfg.potential
    assert boot.epsilon == cfg.epsilon


# --- newton_solve ------------------------------------------------------------

def test_newton_returns_initial_guess_when_converged():
    u0 = np.zeros((4, 4))
    calls = []

    def residual(u):
        calls.append(1)
        return np.zeros_like(u)

    u, iters, history = newton_solve(residual, lambda u, v: v, u0, 1e-11, 10, lambda v: v,
                                     np.linalg.norm)
    assert iters == 0
    assert np.array_equal(u, u0)


def test_newton_linear_problem_converges_in_one_iteration(rng):
    a = rng.uniform(-1, 1, (4, 4))
    u, iters, _ = newton_solve(lambda u: u - a, lambda u, v: v,
                               np.zeros((4, 4)), 1e-12, 10, lambda v: v, np.linalg.norm)
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
                                     np.zeros((4, 4)), 1e-12, 10, lambda r: r / d,
                                     np.linalg.norm)
    assert iters == 1 and len(history) == 2
    assert np.abs(u - b / d).max() <= 1e-15


def test_newton_rejected_fixed_point_trial_costs_no_second_residual(rng):
    # A preconditioner pointing uphill makes the fixed-point trial worse, so it
    # is dropped; Newton then applies the Jacobian at the kept guess without
    # evaluating the guess's residual again.
    a = rng.uniform(-1, 1, (4, 4))
    u0 = np.zeros((4, 4))
    evaluated_at, applied_at = [], []

    def residual(u):
        evaluated_at.append(u.copy())
        return u - a

    def jacobian(u, v):
        applied_at.append(u.copy())
        return v

    u, iters, _ = newton_solve(residual, jacobian, u0, 1e-12, 10, lambda r: -r,
                               np.linalg.norm)
    assert iters == 1 and np.abs(u - a).max() <= 1e-12
    # The guess, the dropped trial and the Newton step, once each.
    assert len(evaluated_at) == 3
    assert applied_at and all(np.array_equal(at, u0) for at in applied_at)


def test_newton_never_takes_a_supplied_residual_as_converged(rng):
    # A supplied residual of 0 at a guess that is not a solution: the guess is
    # evaluated before it could pass, and the solve goes on from there.
    a = rng.uniform(-1, 1, (4, 4))
    evaluated_at = []

    def residual(u):
        evaluated_at.append(u.copy())
        return u - a

    u0 = np.zeros((4, 4))
    u, iters, history = newton_solve(residual, lambda u, v: v, u0, 1e-12, 10, lambda r: r,
                                     np.linalg.norm, np.zeros((4, 4)))
    assert iters == 1 and np.abs(u - a).max() <= 1e-12
    assert np.array_equal(evaluated_at[0], u0) and history[0] == np.linalg.norm(a)


def test_newton_supplied_residual_is_evaluated_once_its_first_trial_is_dropped(rng):
    # A small wrong residual makes the first fixed-point trial worse than it
    # claims, so the trial is dropped; Newton-Krylov then solves against the
    # guess's evaluated residual, not against the supplied one (whose
    # direction no line search could accept).
    a = rng.uniform(-1, 1, (4, 4))
    evaluated_at = []

    def residual(u):
        evaluated_at.append(u.copy())
        return u - a

    u0 = np.zeros((4, 4))
    u, iters, _ = newton_solve(residual, lambda u, v: v, u0, 1e-12, 10, lambda r: r,
                               np.linalg.norm, 1e-3 * a)
    assert iters == 1 and np.abs(u - a).max() <= 1e-12
    # The dropped trial, the guess and the Newton step, once each.
    assert len(evaluated_at) == 3 and np.array_equal(evaluated_at[1], u0)


def test_newton_returns_the_guess_when_its_own_residual_meets_the_tolerance(monkeypatch):
    # The supplied residual is wrong and its first trial is dropped; the
    # guess's own residual then meets tol, so the guess returns with 0
    # iterations and no Krylov solve.
    def gmres(*args, **kwargs):
        raise AssertionError("gmres called")

    monkeypatch.setattr(solvers, "gmres", gmres)
    u0 = np.zeros((4, 4))
    u, iters, history = newton_solve(lambda u: u, lambda u, v: v, u0, 1e-12, 10,
                                     lambda r: r, np.linalg.norm, np.ones((4, 4)))
    assert u is u0 and iters == 0 and history == [0.0]


def test_newton_raises_when_the_krylov_solve_fails(monkeypatch):
    # GMRES returns info < 0 for an illegal input or a breakdown.
    monkeypatch.setattr(solvers, "gmres", lambda A, b, **kwargs: (np.zeros_like(b), -1))
    with pytest.raises(SolverError, match=r"inner Krylov solve failed \(info=-1\)") as excinfo:
        newton_solve(lambda u: u * u + 1.0, lambda u, v: 2.0 * u * v,
                     np.ones((2, 2)), 1e-12, 5, lambda v: v, np.linalg.norm)
    assert len(excinfo.value.residuals) >= 1


def test_newton_nonconvergence_raises_with_history():
    # Residual with no root: r(u) = u^2 + 1 elementwise.
    with pytest.raises(SolverError) as excinfo:
        newton_solve(lambda u: u * u + 1.0, lambda u, v: 2.0 * u * v,
                     np.zeros((2, 2)), 1e-12, 5, lambda v: v, np.linalg.norm)
    assert len(excinfo.value.residuals) >= 1


def test_newton_stops_on_its_last_allowed_iteration_or_raises(rng):
    # Fixed-point steps that cut the residual 20-fold each reach the tolerance
    # at the third: a cap of 3 returns 3 iterations, a cap of 2 raises.
    a = rng.uniform(-1, 1, (4, 4))
    tol = 3.0 * 0.05**3 * np.linalg.norm(a)

    def solve(max_iter):
        return newton_solve(lambda u: u - a, lambda u, v: v, np.zeros((4, 4)), tol, max_iter,
                            lambda r: 0.95 * r, np.linalg.norm)

    _, iters, history = solve(3)
    assert iters == 3 and len(history) == 4 and history[-1] <= tol
    with pytest.raises(SolverError, match="did not reach tolerance") as excinfo:
        solve(2)
    assert len(excinfo.value.residuals) == 3


def test_newton_counts_inner_solves_that_did_not_converge(monkeypatch, rng):
    real_gmres = solvers.gmres

    def capped_gmres(*args, **kwargs):
        x, _ = real_gmres(*args, **kwargs)
        return x, 4  # as if every inner solve hit its iteration cap

    monkeypatch.setattr(solvers, "gmres", capped_gmres)
    # A direction that still reduces the residual is taken: the step converges.
    a = rng.uniform(-1, 1, (4, 4))
    u, iters, _ = newton_solve(lambda u: u - a, lambda u, v: v,
                               np.zeros((4, 4)), 1e-12, 10, lambda v: v, np.linalg.norm)
    assert iters == 1
    assert np.abs(u - a).max() <= 1e-12
    with pytest.raises(SolverError, match=r"\b(\d+) of \1 inner solves did not converge"):
        newton_solve(lambda u: u * u + 1.0, lambda u, v: 2.0 * u * v,
                     np.ones((2, 2)), 1e-12, 5, lambda v: v, np.linalg.norm)


def test_newton_step_stops_at_the_rounding_floor(rng):
    # A tolerance far below rounding in the residual's terms (which scale like
    # 1/h^2) still converges, at C eps scale, in a few iterations.
    geo = GridGeometry(64, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    state = _perturbed_state(rng, geometry=geo)
    for scheme in ("backward_euler", "convex_splitting"):
        cfg = _cfg(scheme, tau=1e-4, newton_tol=1e-30)
        _, newton_iters = _unchecked(state, cfg, cfg.model(kernel, make_cache(geo)))
        assert 1 <= newton_iters <= 5


@pytest.mark.parametrize("scheme", ["backward_euler", "convex_splitting", "bdf2"])
def test_newton_stop_stays_finite_at_a_tiny_tau(scheme, monkeypatch):
    # At tau = 1e-300 the right-hand side u^n / tau squares past the float
    # range.  The stop's norms are rescaled there, so every stop is finite,
    # and each step accepts u^n, right to O(tau), with no numpy warning.
    geo = GridGeometry(8, 1.0)
    stops = []
    real_newton = steppers.newton_solve

    def recording(residual, jacobian, u_init, tol, *args, **kwargs):
        stops.append(tol)
        return real_newton(residual, jacobian, u_init, tol, *args, **kwargs)

    monkeypatch.setattr(steppers, "newton_solve", recording)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(u0, _cfg(scheme, tau=1e-300), sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo),
                     make_cache(geo), RunOptions(max_steps=3))
    assert result.termination == "max_steps", result.error_detail
    assert len(stops) == 3 and all(0.0 < stop < np.inf for stop in stops)
    assert [r.newton_iters for r in result.records] == [0, 0, 0, 0]
    assert np.array_equal(result.final_state.u.values, u0.values)


def test_newton_step_whose_stop_overflows_fails_as_a_solver_error(rng):
    # Values near 1e52 leave u and F'(u) finite, but the norm of the stop's
    # rounding term |u|^3 does not fit a float.  A stop that is not finite
    # would accept any finite iterate, so it is a solver failure.
    cfg = _cfg("backward_euler", tau=1e-3)
    u = Field(GEO, 1e52 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, (8, 8))))
    with pytest.raises(SolverError, match="Newton stop overflows"):
        _unchecked(SchemeState(u=u), cfg, cfg.model(STRONG, CACHE))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", ["backward_euler", "convex_splitting", "bdf2"])
def test_newton_step_from_a_state_whose_chemical_potential_overflows_is_a_solver_error(scheme, tmp_path):
    # A state without omega, read from a checkpoint: its step fails as a
    # diverged step does, with no numpy warning, not with a ValueError.
    state, kernel, cache = overflowing_checkpoint_state(tmp_path)
    cfg = SchemeConfig(scheme, 1e-4, 1.0)
    with pytest.raises(SolverError):
        advance(state, cfg, cfg.model(kernel, cache))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", ["backward_euler", "bdf2"])
def test_newton_step_whose_first_residual_overflows_under_a_finite_stop_is_a_solver_error(scheme):
    # On L = 1000 the lowest mode's lambda is 4e-5, so G u_hat overflows at
    # G = 1e300 while the stop's lambda G u_hat does not: the chemical
    # potential the guess's residual reads is not finite, and the stop is.
    geo = GridGeometry(8, 1000.0)
    values = np.repeat(3e7 * np.cos(2.0 * np.pi * np.arange(8) / 8)[:, None], 8, axis=1)
    cfg = SchemeConfig(scheme, 1e-4, 1e147)
    model = cfg.model(sample_kernel(KernelSpec.constant(1.0), geo), make_cache(geo))
    with pytest.raises(SolverError, match="the chemical potential of u\\^n is not finite"):
        advance(SchemeState(u=Field(geo, values)), cfg, model)


def test_norm_of_non_finite_modes_is_not_finite():
    # The rescaled retry needs a finite largest component; inf or NaN modes
    # keep the non-finite norm.
    modes = np.zeros((8, 5), dtype=complex)
    for bad, expected in ((np.inf, np.inf), (complex(0.0, -np.inf), np.inf), (np.nan, None)):
        modes[1, 1] = bad
        norm = steppers._norm(modes, GEO.h)
        assert np.isnan(norm) if expected is None else norm == expected


@pytest.mark.parametrize("scheme", ["ssi1", "two_li"])
def test_linear_step_that_overflows_fails_as_a_diverged_solver_error(scheme, rng):
    # At tau = 1e-300, u^n / tau overflows for |u| near 1e10: the solved level
    # is not finite, which is a solver failure, with no numpy warning.
    cfg = _cfg(scheme, tau=1e-300, stability_policy="ignore")
    u = Field(GEO, 1e10 * (1.0 + 0.01 * rng.uniform(-1.0, 1.0, (8, 8))))
    state = SchemeState(u=u, u_prev=u if scheme in TWO_STEP_SCHEMES else None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="^diverged: "):
            advance(state, cfg, cfg.model(STRONG, CACHE))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_stepped_levels_keep_the_spectrum_of_their_solve(scheme):
    # A stepped level keeps the spectrum its solve produced in place of
    # rfft2(values): the coefficients of a real field (Hermitian on columns 0
    # and N/2), with the constant mode N^2 times the mass the step conserves,
    # and rfft2(values) to rounding.
    geo = GridGeometry(64, 1.0)
    cfg = _cfg(scheme, tau=1e-4)
    model = cfg.model(sample_kernel(KernelSpec.gaussian(130.0, 10.0, 3), geo), make_cache(geo))
    n, eps = geo.n, np.finfo(np.float64).eps
    mirror = -np.arange(n) % n
    state = SchemeState(u=random_initial_field(geo, 0.1, 0.05, seed=7))
    for _ in range(3):  # a two-step scheme's bootstrap and two of its own steps
        new, _ = advance(state, cfg, model)
        modes = new.u.spectrum
        for col in (0, n // 2):
            assert np.array_equal(modes[mirror, col], np.conj(modes[:, col]))
        assert modes[0, 0] == n**2 * mean(state.u)
        assert abs(mean(new.u) - mean(state.u)) <= 64 * eps
        assert np.abs(modes - scipy.fft.rfft2(new.u.values)).max() <= 64 * eps * np.abs(modes).max()
        state = new


@pytest.mark.parametrize("scheme", ["backward_euler", "bdf2"])
def test_newton_step_with_a_nonpositive_preconditioner_symbol_fails_as_a_solver_error(scheme):
    # Far outside the admissible step sizes, a + lambda (slope + G) <= 0 at 62
    # half-spectrum modes; the preconditioner falls back there, and the solve
    # stagnates into a SolverError (bdf2's fresh state takes backward Euler).
    geo = GridGeometry(32, 1.0)
    cache = make_cache(geo)
    kernel = sample_kernel(KernelSpec.gaussian(76.4, 200.0), geo)
    cfg = _cfg(scheme, tau=5.0, stability_policy="ignore")
    model = cfg.model(kernel, cache)
    symbol = 1.0 / cfg.tau + cache.minus_laplacian_eigenvalues * (model.gap - 1.0)
    assert np.count_nonzero(symbol <= 0.0) == 62
    u0 = random_initial_field(geo, 0.0, 0.5, seed=7)
    with pytest.raises(SolverError, match="Newton stagnated"):
        advance(SchemeState(u=u0), cfg, model)
    result = run(u0, cfg, kernel, cache, RunOptions(max_steps=5))
    assert result.termination == "error"
    assert result.error_detail.startswith("step 1:") and "Newton stagnated" in result.error_detail


# --- mass conservation -------------------------------------------------------

@pytest.mark.parametrize("scheme", SCHEMES)
def test_mass_conserved_over_fifty_steps(scheme, rng):
    kernel = STRONG
    cfg = _cfg(scheme, tau=2e-3)
    state = SchemeState(u=Field(GEO, 0.1 + 0.05 * rng.uniform(-1, 1, (8, 8))))
    m0 = mean(state.u)
    model = cfg.model(kernel, CACHE)
    for _ in range(50):
        state, _ = advance(state, cfg, model)
    assert abs(mean(state.u) - m0) <= 1e-12 * max(1.0, abs(m0))


# --- dispersion oracle at production N ---------------------------------------

def _dispersion_errors(delta):
    """Per scheme: max over modes of |u_hat_step - prediction| / max |prediction|.

    The phase-separating problem at N = 512 (Gaussian cJ 3000, xi 1000,
    eps 1, K 1.05, S = beta/2), from u^0 = delta v with v uniform in
    [-1, 1] and mean 0; one step, or for a two-step scheme the step after
    its bootstrap.  Near u = 0 each scheme is diagonal in the DFT basis, so
    a step multiplies each mode by a closed-form factor, up to an O(delta^2)
    relative error from the cubic.  The factors are written here from
    lambda, G = eps^2 ([J(*)1] - j_hat), sigma = 2 eps^2 [J(*)1] and
    c = F''(0) = -1, with lambda taken from the stencil, not read from the
    library's operators.
    """
    geo = GridGeometry(512, 1.0)
    kernel, cache = sample_kernel(KernelSpec.gaussian(3000.0, 1000.0), geo), make_cache(geo)
    n = geo.n
    k, l = np.arange(n)[:, None], np.arange(n // 2 + 1)[None, :]
    lam = 4.0 / geo.h**2 * (np.sin(np.pi * k / n) ** 2 + np.sin(np.pi * l / n) ** 2)
    gap, sigma, c = kernel.conv_one - kernel.symbol, 2.0 * kernel.conv_one, -1.0
    stabilization = (3.0 * 1.05**2 - 1.0) / 2.0
    u0 = Field(geo, delta * random_initial_field(geo, 0.0, 1.0, seed=7).values)
    errors = {}
    for scheme, tau in (("backward_euler", 1e-3), ("convex_splitting", 1e-3), ("ssi1", 1e-3),
                        ("bdf2", 1e-3), ("two_li", 1e-4)):
        cfg = SchemeConfig(scheme, tau, 1.0, stabilization=stabilization, cutoff=1.05)
        model = cfg.model(kernel, cache)
        state, _ = advance(SchemeState(u=u0), cfg, model)
        w0, w1, tl = u0.spectrum, state.u.spectrum, tau * lam
        if scheme == "backward_euler":
            predicted = w0 / (1.0 + tl * (c + gap))
        elif scheme == "convex_splitting":
            predicted = (1.0 - tl * (gap - 1.0 - sigma)) / (1.0 + tl * sigma) * w0
        elif scheme == "ssi1":
            predicted = (1.0 + tl * (stabilization - c)) / (1.0 + tl * (stabilization + gap)) * w0
        else:
            state, _ = advance(state, cfg, model)
            if scheme == "bdf2":
                predicted = (2.0 * w1 - 0.5 * w0) / (1.5 + tl * (c + gap))
            else:
                predicted = ((2.0 - 2.0 * tl * c) * w1 - (0.5 - tl * c) * w0) / (1.5 + tl * gap)
        errors[scheme] = np.abs(state.u.spectrum - predicted).max() / np.abs(predicted).max()
    return errors


def test_each_scheme_follows_its_linear_multipliers_at_n512():
    # A wrong linear part fails at O(1); a wrong nonlinear part fails the delta^2 scaling.
    coarse, fine = _dispersion_errors(1e-3), _dispersion_errors(1e-5)
    for scheme in SCHEMES:
        assert fine[scheme] < 1e-10, (scheme, fine[scheme])
        assert coarse[scheme] >= 1e3 * fine[scheme], (scheme, coarse[scheme], fine[scheme])


def test_two_li_step_evaluates_one_potential_derivative_after_the_bootstrap(rng, monkeypatch):
    # Each two_li step evaluates F_K'(u^n) and reads F_K'(u^{n-1}) as the step
    # to u^n left it on the model: the bootstrap's, then its predecessor's.
    calls = []
    original = steppers.potential_d1

    def counting(pot, values):
        calls.append(pot)
        return original(pot, values)

    monkeypatch.setattr(steppers, "potential_d1", counting)
    cfg = _cfg("two_li", tau=1e-3)
    model = cfg.model(STRONG, CACHE)
    state, _ = advance(_perturbed_state(rng), cfg, model)  # the ssi1 bootstrap
    assert len(calls) == 1
    for steps in range(1, 6):
        state, _ = advance(state, cfg, model)
        assert len(calls) == 1 + steps
    # The model keeps F_K' of the last level a step left, so a state stepped
    # a second time, like one read from a checkpoint, evaluates both levels,
    # and all three steps give the same bits.
    resumed = SchemeState(u=state.u, u_prev=state.u_prev, step_index=state.step_index,
                          time=state.time)
    kept, _ = advance(state, cfg, model)
    for source, evaluations in ((state, 2), (resumed, 2)):
        del calls[:]
        again, _ = advance(source, cfg, model)
        assert len(calls) == evaluations
        assert np.array_equal(again.u.values, kept.u.values)
        assert np.array_equal(again.u.spectrum, kept.u.spectrum)
        assert np.array_equal(again.omega.spectrum, kept.omega.spectrum)
    # A kept array belongs to its model: under another cutoff it is evaluated again.
    other = _cfg("two_li", tau=1e-3, cutoff=1.5)
    del calls[:]
    advance(kept, other, other.model(STRONG, CACHE))
    assert len(calls) == 2 and {pot.cutoff for pot in calls} == {1.5}


@pytest.mark.parametrize("scheme", TWO_STEP_SCHEMES)
def test_run_map_keeps_no_bootstrap_operator(scheme, rng):
    # A bootstrap steps once per run: it is vetted and built for that step,
    # and only the scheme's own configuration is kept on the model.
    cfg = _cfg(scheme, tau=1e-3)
    model = cfg.model(STRONG, CACHE)
    state, _ = advance(_perturbed_state(rng), cfg, model)
    assert model._operators == {}
    for _ in range(2):
        state, _ = advance(state, cfg, model)
    assert list(model._operators) == [cfg]
