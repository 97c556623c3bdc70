import importlib
import math
import pkgutil
import sys

import numpy as np
import pytest
import scipy.fft

import nchsolver
from nchsolver import (ConfigError, Field, GeometryMismatchError, GridGeometry, KernelSpec,
                       RunOptions, SchemeConfig, SchemeState, advance, energy, equilibrium_residual,
                       make_cache, mean, norm2,
                       random_initial_field, run, sample_kernel)
from nchsolver.spectral import _forward_differences, norm_neg1
from nchsolver import grid, kernels, oracles, solvers, spectral, steppers
from nchsolver.fieldio import read_checkpoint, write_checkpoint
from nchsolver.oracles import dense_minus_laplacian_pinv, zero_mean

from conftest import negative_gap_table, overflowing_checkpoint_state, recomposed_modified_energy

GEO = GridGeometry(16, 1.0)
CACHE = make_cache(GEO)
GAUSS = sample_kernel(KernelSpec.gaussian(12.5, 10.0), GEO)


def _cfg(scheme="backward_euler", tau=0.05, **kw):
    defaults = dict(epsilon=1.0, stabilization=5.5, cutoff=2.0)
    defaults.update(kw)
    return SchemeConfig(scheme=scheme, tau=tau, **defaults)


def test_random_initial_field_hits_target_mass_and_range():
    u = random_initial_field(GEO, mean_value=0.1, delta=0.05, seed=42)
    assert mean(u) == pytest.approx(0.1, abs=1e-15)
    assert np.abs(u.values - 0.1).max() <= 0.05 + 1e-12
    again = random_initial_field(GEO, mean_value=0.1, delta=0.05, seed=42)
    assert np.array_equal(u.values, again.values)


@pytest.mark.parametrize("n, mean_value, seed", [(8, 0.1, 42), (24, 0.0, 7), (64, -0.3, 3),
                                                  (512, 0.0, 7)])
def test_random_initial_field_is_recentred_as_by_numpy_mean(n, mean_value, seed):
    # Re-centring through grid._reduce keeps every seeded field byte for byte.
    rng = np.random.default_rng(seed)
    values = mean_value + rng.uniform(-0.05, 0.05, size=(n, n))
    values += mean_value - values.mean()
    u = random_initial_field(GridGeometry(n, 1.0), mean_value, 0.05, seed=seed)
    assert u.values.tobytes() == values.tobytes()


def test_constant_init_terminates_first_step():
    u0 = Field(GEO, np.full((16, 16), 0.2))
    result = run(u0, _cfg(), GAUSS, CACHE, RunOptions(max_steps=100))
    assert result.termination == "equilibrium"
    assert result.final_state.step_index == 1
    assert result.equilibrium_residual <= 1e-13
    assert result.records[-1].increment_l2 <= 1e-14


def test_run_reaches_equilibrium_with_monotone_energy():
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=7)
    result = run(u0, _cfg(), GAUSS, CACHE, RunOptions(max_steps=5000, eq_tol=1e-9))
    assert result.termination == "equilibrium"
    energies = [r.energy for r in result.records]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 1e-10 * (1.0 + abs(before))
    assert result.records[-1].omega_variance <= 1e-9
    masses = [r.mass for r in result.records]
    assert max(abs(m - masses[0]) for m in masses) <= 1e-11 * max(1.0, abs(masses[0]))


def test_all_schemes_reach_the_same_kind_of_stationarity():
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=11)
    finals = {}
    strong = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)
    for scheme in ("backward_euler", "convex_splitting", "ssi1", "bdf2", "two_li"):
        cfg = _cfg(scheme, tau=2e-3)
        result = run(u0, cfg, strong, CACHE, RunOptions(max_steps=20000, eq_tol=1e-9))
        assert result.termination == "equilibrium", scheme
        assert result.equilibrium_residual <= 1e-9
        finals[scheme] = result.records[-1].energy
    # Recorded for inspection; no cross-scheme equality is asserted.
    spread = max(finals.values()) - min(finals.values())
    assert np.isfinite(spread)


def test_equilibrium_residual_examples():
    c = 0.3
    u = Field(GEO, np.full((16, 16), c))
    omega = Field(GEO, np.full((16, 16), c**3 - c))
    model = _cfg().model(GAUSS, CACHE)
    assert equilibrium_residual(u, omega, model) == pytest.approx(0.0, abs=1e-13)
    rng = np.random.default_rng(3)
    bump = zero_mean(Field(GEO, rng.uniform(-1, 1, (16, 16))))
    noisy = Field(GEO, omega.values + bump.values)
    assert equilibrium_residual(u, noisy, model) >= norm2(bump) * (1 - 1e-12)


def test_run_rejects_invalid_gamma0():
    weak = sample_kernel(KernelSpec.constant(0.5), GEO)
    with pytest.raises(ConfigError):
        run(Field(GEO, np.zeros((16, 16))), _cfg(), weak, CACHE, RunOptions(max_steps=10))


def test_run_increment_tail_below_ten_eq_tol():
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=23)
    options = RunOptions(max_steps=5000, eq_tol=1e-9)
    result = run(u0, _cfg(tau=0.02), GAUSS, CACHE, options)
    assert result.termination == "equilibrium"
    last_step = result.final_state.step_index
    tail = [r for r in result.records if r.step >= 0.9 * last_step and r.step > 0]
    assert max(r.increment_l2 for r in tail) <= 10.0 * options.eq_tol


def test_error_termination_carries_step_index():
    # Narrow kernel: gamma0 > 0 but the per-mode margin fails at this tau.
    from nchsolver import check_solvability
    narrow = sample_kernel(KernelSpec.gaussian(76.4, 200.0), GEO)
    cfg = _cfg(tau=5.0, stability_policy="enforce")
    assert not check_solvability(cfg, cfg.model(narrow, CACHE)).admissible
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=5)
    result = run(u0, cfg, narrow, CACHE, RunOptions(max_steps=10))
    assert result.termination == "error"
    assert "step 1" in result.error_detail


def test_error_termination_names_first_step_of_two_step_config():
    # The ssi1 bootstrap is admissible, the two_li step itself is not
    # (beta = 11 exceeds (gamma0 + 1) / 3 for the weak kernel).
    cfg = _cfg("two_li", tau=1e-4, stability_policy="enforce")
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=5)
    result = run(u0, cfg, GAUSS, CACHE, RunOptions(max_steps=10))
    assert result.termination == "error"
    assert result.error_detail.startswith("step 2:")
    assert [r.step for r in result.records] == [0, 1]


@pytest.mark.parametrize("scheme, failed_step", [("ssi1", 1), ("two_li", 2)])
def test_unsolvable_linear_step_ends_run_with_error(scheme, failed_step):
    # gamma0 = 1 > 0, but a + lambda (S + G) < 0 at the high modes; two_li's
    # bootstrap ssi1 step raises S to beta/2 and still solves.
    geo = GridGeometry(8, 1.0)
    cfg = SchemeConfig(scheme, tau=1.0, epsilon=1.0, stabilization=0.0, cutoff=2.0,
                       stability_policy="ignore")
    kernel = sample_kernel(KernelSpec.tabulated(negative_gap_table()), geo)
    result = run(random_initial_field(geo, seed=3), cfg, kernel, make_cache(geo),
                 RunOptions(max_steps=10))
    assert result.termination == "error"
    assert result.error_detail.startswith(f"step {failed_step}: non-positive modal denominator")
    assert result.final_state.step_index == failed_step - 1


@pytest.mark.parametrize("scheme", ["ssi1", "two_li"])
def test_diverging_step_ends_run_with_error(scheme):
    # S = 0 < beta/2 under the ignore policy: the explicit potential term
    # blows the field up, ssi1 to non-finite values, two_li first through
    # its two-step mass check.
    strong = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)
    cfg = SchemeConfig(scheme, tau=0.1, epsilon=0.2, stabilization=0.0, cutoff=1.1,
                       stability_policy="ignore")
    u0 = random_initial_field(GEO, delta=3.0, seed=1)
    with np.errstate(all="ignore"):
        result = run(u0, cfg, strong, CACHE, RunOptions(max_steps=5000))
    assert result.termination == "error"
    failed_step = result.final_state.step_index + 1
    assert result.error_detail.startswith(f"step {failed_step}:")
    assert result.records[-1].step == failed_step - 1


def test_warn_policy_warns_during_run():
    cfg = _cfg("two_li", tau=1e-4, stability_policy="warn")
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=5)
    with pytest.warns(RuntimeWarning, match="two_li inadmissible"):
        result = run(u0, cfg, GAUSS, CACHE, RunOptions(max_steps=3, eq_tol=1e-14))
    assert result.termination == "max_steps"


def test_admissibility_checked_once_per_config(monkeypatch):
    calls = []
    original = steppers.check_solvability

    def counting(cfg, model):
        calls.append(cfg.scheme)
        return original(cfg, model)

    validations = []
    validate = SchemeConfig.__post_init__

    def counting_validation(self):
        validations.append(self.scheme)
        validate(self)

    cfg = _cfg("bdf2", tau=0.01)
    monkeypatch.setattr(steppers, "check_solvability", counting)
    monkeypatch.setattr(SchemeConfig, "__post_init__", counting_validation)
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=3)
    per_run = []
    for max_steps in (10, 20):
        calls.clear()
        validations.clear()
        result = run(u0, cfg, GAUSS, CACHE, RunOptions(max_steps=max_steps, eq_tol=1e-14))
        assert result.final_state.step_index == max_steps
        assert calls == ["backward_euler", "bdf2"]
        per_run.append(list(validations))
    # Only the bootstrap config is built, once per run, not once per step.
    assert per_run == [["backward_euler"], ["backward_euler"]]


def test_run_rejects_mixed_grids():
    small = GridGeometry(8, 1.0)
    kernel_small = sample_kernel(KernelSpec.gaussian(12.5, 10.0), small)
    u_small = random_initial_field(small, 0.0, 0.05, seed=1)
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=1)
    options = RunOptions(max_steps=2)
    with pytest.raises(GeometryMismatchError):  # cache for N=16, kernel and field for N=8
        run(u_small, _cfg(), kernel_small, CACHE, options)
    with pytest.raises(GeometryMismatchError):
        run(u_small, _cfg(), GAUSS, CACHE, options)
    with pytest.raises(GeometryMismatchError):
        run(None, _cfg(), GAUSS, CACHE, options, initial_state=SchemeState(u=u_small))
    with pytest.raises(GeometryMismatchError):
        run(u0, _cfg(), kernel_small, make_cache(small), options)


@pytest.mark.parametrize("scheme", ["bdf2", "two_li"])
def test_records_match_public_functionals(scheme):
    # The one-pass record against the documented functionals, within the
    # 64-ulp rounding bound the benchmark applies to energies.
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)
    cfg = _cfg(scheme, tau=2e-3)
    model = cfg.model(kernel, CACHE)
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=37)
    result = run(u0, cfg, kernel, CACHE, RunOptions(max_steps=6, eq_tol=1e-14))
    ulps = 64 * np.finfo(np.float64).eps

    def close(actual, expected):
        return abs(actual - expected) <= ulps * max(1.0, abs(expected))

    state = SchemeState(u=u0)
    assert close(result.records[0].energy, energy(u0, model))
    for record in result.records[1:]:
        state, _ = advance(state, cfg, model)
        assert record.step == state.step_index
        du = zero_mean(Field(GEO, state.u.values - state.u_prev.values))
        modified = recomposed_modified_energy(state.u, du, cfg.tau, model,
                                              model.potential.curvature_bound
                                              if scheme == "two_li" else 0.0)
        assert close(record.energy, energy(state.u, model))
        assert close(record.modified_energy, modified)
        assert close(record.increment_hneg1, norm_neg1(du.spectrum, CACHE))


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_record_increment_hneg1_matches_dense_quadratic_form(scheme):
    # The record's ||du||_{-1} against sqrt(h^2 v . pinv v) with the dense
    # pseudo-inverse of minus the Laplacian, independent of the DFT.
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)
    cfg = _cfg(scheme, tau=2e-3)
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=37)
    result = run(u0, cfg, kernel, CACHE, RunOptions(max_steps=4, eq_tol=1e-14))
    pinv = dense_minus_laplacian_pinv(GEO)
    assert [r.step for r in result.records] == [0, 1, 2, 3, 4]
    model = cfg.model(kernel, CACHE)
    state = SchemeState(u=u0)
    for record in result.records[1:]:
        previous = state.u
        state, _ = advance(state, cfg, model)
        v = (state.u.values - previous.values).ravel()
        expected = math.sqrt(GEO.h**2 * float(v @ (pinv @ v)))
        assert expected > 0.0
        assert abs(record.increment_hneg1 - expected) <= 1e-10 * expected


@pytest.mark.parametrize("scheme", ["bdf2", "two_li"])
def test_loop_norms_equal_field_definitions(scheme):
    # The run loop takes ||du||_2 from the values, bit for bit the Field-level
    # definition, and the norms of omega from its spectrum by Parseval, within
    # 64 eps of their grid definitions.
    geo = GridGeometry(8, 1.0)
    cache = make_cache(geo)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    cfg = _cfg(scheme, tau=2e-3)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=41)
    result = run(u0, cfg, kernel, cache, RunOptions(max_steps=5, eq_tol=1e-14))
    assert len(result.records) == 6
    model = cfg.model(kernel, cache)
    state = SchemeState(u=u0)
    for record in result.records[1:]:
        previous = state.u
        state, _ = advance(state, cfg, model)
        gx, gy = _forward_differences(state.omega.values, geo.h)
        squares = float(np.sum(gx * gx)) + float(np.sum(gy * gy))
        assert record.increment_l2 == norm2(Field(geo, state.u.values - previous.values))
        assert record.omega_variance == pytest.approx(norm2(zero_mean(state.omega)),
                                                      rel=64 * np.finfo(np.float64).eps, abs=0.0)
        assert record.grad_omega_l2 == pytest.approx(geo.h * math.sqrt(squares),
                                                     rel=64 * np.finfo(np.float64).eps, abs=0.0)


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_production_path_never_calls_reference_code(scheme, monkeypatch):
    # Steps and records apply every operator through its symbol, as a product
    # with a spectrum; the direct convolution, the stencil and the apply of a
    # symbol on the grid are references only.
    references = (kernels.convolve, kernels.convolve_values, spectral.laplacian_apply,
                  oracles.apply_symbol)

    def forbidden(*args, **kwargs):
        raise AssertionError("reference code called on the production path")

    for info in pkgutil.iter_modules(nchsolver.__path__):
        importlib.import_module(f"nchsolver.{info.name}")
    patched = set()
    for name, module in list(sys.modules.items()):
        if name == "nchsolver" or name.startswith("nchsolver."):
            for attr, value in list(vars(module).items()):
                if any(value is ref for ref in references):
                    monkeypatch.setattr(module, attr, forbidden)
                    patched.add(attr)
    assert patched == {"convolve", "convolve_values", "laplacian_apply", "apply_symbol"}
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=43)
    result = run(u0, _cfg(scheme, tau=2e-3), kernel, make_cache(geo),
                 RunOptions(max_steps=4, eq_tol=1e-14))
    assert result.termination == "max_steps"
    assert [r.step for r in result.records] == [0, 1, 2, 3, 4]


class _SymbolReads:
    """A sampled kernel that counts the reads of its symbol j_hat, from which G is built."""

    def __init__(self, kernel):
        self._kernel, self.reads = kernel, 0

    def __getattr__(self, name):
        if name == "symbol":
            self.reads += 1
        return getattr(self._kernel, name)


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_nonlocal_symbol_is_built_once_per_run(scheme):
    # G = eps^2 ([J(*)1] - j_hat) is formed once, when the run builds its
    # Model; no step, check or record of four recorded steps forms it again.
    geo = GridGeometry(8, 1.0)
    kernel = _SymbolReads(sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo))
    u0 = random_initial_field(geo, 0.0, 0.05, seed=43)
    result = run(u0, _cfg(scheme, tau=2e-3), kernel, make_cache(geo),
                 RunOptions(max_steps=4, eq_tol=1e-14))
    assert [r.step for r in result.records] == [0, 1, 2, 3, 4]
    assert kernel.reads == 1


def _import_package():
    for info in pkgutil.iter_modules(nchsolver.__path__):
        importlib.import_module(f"nchsolver.{info.name}")
    return [module for name, module in list(sys.modules.items())
            if name == "nchsolver" or name.startswith("nchsolver.")]


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_production_path_never_calls_scipy_fft(scheme, monkeypatch):
    # Every production transform is the package's own pair, grid.rfft2 and
    # grid.irfft2, from numpy.fft: no production module binds scipy.fft or
    # one of its functions, and a run completes with all of them patched to
    # raise.  The reference modules, verify and oracles, may use it.
    def forbidden(*args, **kwargs):
        raise AssertionError("scipy.fft called on the production path")

    scipy_fft = [scipy.fft] + [getattr(scipy.fft, attr) for attr in scipy.fft.__all__]
    for module in _import_package():
        if module.__name__ in ("nchsolver.verify", "nchsolver.oracles"):
            continue
        bound = [attr for attr, value in vars(module).items()
                 if any(value is target for target in scipy_fft)]
        assert bound == [], f"{module.__name__} binds scipy.fft as {bound}"
    for attr in scipy.fft.__all__:
        monkeypatch.setattr(scipy.fft, attr, forbidden)
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=43)
    result = run(u0, _cfg(scheme, tau=2e-3), kernel, make_cache(geo),
                 RunOptions(max_steps=4, eq_tol=1e-14))
    assert result.termination == "max_steps", result.error_detail


def _count_transforms(monkeypatch) -> dict:
    """Count the package's rfft2/irfft2 calls, patched wherever a module binds them."""
    counts = {"rfft2": 0, "irfft2": 0}

    def counting(name, transform):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)
        return wrapper

    wrappers = [(getattr(grid, name), counting(name, getattr(grid, name)))
                for name in counts]
    patched = set()
    for module in _import_package():
        for attr, value in list(vars(module).items()):
            for transform, wrapper in wrappers:
                if value is transform:
                    monkeypatch.setattr(module, attr, wrapper)
                    patched.add(attr)
    assert patched == set(counts)
    return counts


def _fourth_step_transforms(scheme: str, counts: dict) -> dict:
    """Transforms of step 4 of a run recording every step: a 4-step run minus a 3-step one.

    Each run starts from a fresh field, so no spectrum is carried between them.
    """
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    cache = make_cache(geo)
    taken = []
    for steps in (3, 4):
        before = dict(counts)
        u0 = random_initial_field(geo, 0.0, 0.05, seed=43)
        result = run(u0, _cfg(scheme, tau=2e-3), kernel, cache,
                     RunOptions(max_steps=steps, eq_tol=1e-14))
        assert result.termination == "max_steps", result.error_detail
        taken.append({name: counts[name] - before[name] for name in counts})
    return {name: taken[1][name] - taken[0][name] for name in counts}


@pytest.mark.parametrize("scheme", ["ssi1", "two_li"])
def test_recorded_linear_step_takes_one_rfft2_and_one_irfft2(scheme, monkeypatch):
    # rfft2 of the explicit term and irfft2 of the solved spectrum alone.  The
    # new level keeps that spectrum, which the energy, the increment's
    # ||.||_{-1} and the next step all read; omega stays a spectrum, whose
    # norms the record takes by Parseval, and no level is transformed forward.
    counts = _count_transforms(monkeypatch)
    assert _fourth_step_transforms(scheme, counts) == {"rfft2": 1, "irfft2": 1}


def _count_newton_applies(counts: dict, monkeypatch, guess_evaluated: bool) -> None:
    """Count a Newton step's residuals and applies (residuals and Jacobian applies) in ``counts``.

    Unless ``guess_evaluated``, a residual at the level the step leaves fails.
    """
    counts["applies"] = counts["residuals"] = 0
    real_newton = steppers.newton_solve

    def counting_newton(residual, jacobian, u_init, *args, **kwargs):
        def counted_residual(modes):
            assert guess_evaluated or not np.array_equal(modes, u_init), \
                "residual evaluated at the level's spectrum"
            counts["applies"] += 1
            counts["residuals"] += 1
            return residual(modes)

        def counted_jacobian(modes, v_hat):
            counts["applies"] += 1
            return jacobian(modes, v_hat)

        return real_newton(counted_residual, counted_jacobian, u_init, *args, **kwargs)

    monkeypatch.setattr(steppers, "newton_solve", counting_newton)


@pytest.mark.parametrize("scheme", ["backward_euler", "bdf2"])
def test_newton_step_transforms_only_its_applies_and_the_new_level(scheme, monkeypatch):
    # Residuals and Jacobian applies take one transform each way, and a
    # recorded step takes no other: u is the last residual's values and
    # iterate, and omega's spectrum its rfft2(local(u)) plus G times that
    # iterate, so neither takes a transform.  The guess's residual is built
    # from the state's omega, so no residual is evaluated at the level the
    # step leaves: this step takes 2 residuals, where evaluating the guess's
    # took 3.
    counts = _count_transforms(monkeypatch)
    _count_newton_applies(counts, monkeypatch, guess_evaluated=False)
    step = _fourth_step_transforms(scheme, counts)
    assert step["residuals"] == 2
    assert step["applies"] >= 2
    assert step["rfft2"] == step["applies"]
    assert step["irfft2"] == step["applies"]


def test_convex_splitting_step_transforms_only_its_applies_and_the_new_level(monkeypatch):
    # Convex splitting's explicit part (G - 1 - sigma) u_hat^n is a product
    # with the spectrum of u^n, so G is never applied on the grid.  Its first
    # residual is evaluated at u^n, whose grid values the level holds: one
    # rfft2 and no irfft2.  Every other apply takes one transform each way,
    # and the new level keeps its iterate as its spectrum.
    counts = _count_transforms(monkeypatch)
    _count_newton_applies(counts, monkeypatch, guess_evaluated=True)
    step = _fourth_step_transforms("convex_splitting", counts)
    assert step["applies"] >= 2
    assert step["rfft2"] == step["applies"]
    assert step["irfft2"] == step["applies"] - 1


@pytest.mark.parametrize("n, scheme, steps", [(256, "backward_euler", 4),
                                                (256, "convex_splitting", 4),
                                                (256, "bdf2", 4),
                                                (512, "convex_splitting", 1)])
def test_newton_schemes_run_at_production_grid_sizes(n, scheme, steps, monkeypatch):
    # The benchmark problem with default solver settings, at the grid sizes it
    # is run at: every step converges, and so does any inner GMRES.
    infos = []
    real_gmres = solvers.gmres

    def recording_gmres(*args, **kwargs):
        x, info = real_gmres(*args, **kwargs)
        infos.append(info)
        return x, info

    monkeypatch.setattr(solvers, "gmres", recording_gmres)
    geo = GridGeometry(n, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0, 3), geo)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=7)
    result = run(u0, SchemeConfig(scheme, 1e-4, 1.0), kernel, make_cache(geo),
                 RunOptions(max_steps=steps))
    assert result.termination == "max_steps", result.error_detail
    ulp = np.finfo(np.float64).eps
    masses = [r.mass for r in result.records]
    assert max(abs(m - masses[0]) for m in masses) <= 64 * ulp * max(1.0, abs(masses[0]))
    dissipated = [r.modified_energy if scheme == "bdf2" else r.energy for r in result.records]
    dissipated = [value for value in dissipated if value is not None]
    for before, after in zip(dissipated, dissipated[1:]):
        assert after <= before + 64 * ulp * max(1.0, abs(before))
    assert all(info == 0 for info in infos)


def test_newton_krylov_takes_over_on_a_phase_separating_step(monkeypatch):
    # On a problem with unstable modes (cJ=3000, xi=1000) at the largest
    # admissible step size, fixed-point steps alone solve the first step, and
    # in the second they stop contracting and Newton-Krylov finishes the solve.
    infos = []
    real_gmres = solvers.gmres

    def recording_gmres(*args, **kwargs):
        x, info = real_gmres(*args, **kwargs)
        infos.append(info)
        return x, info

    monkeypatch.setattr(solvers, "gmres", recording_gmres)
    geo = GridGeometry(64, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(3000.0, 1000.0), geo)
    cache = make_cache(geo)
    cfg = SchemeConfig("backward_euler", 7.9e-3, 1.0)
    model = cfg.model(kernel, cache)
    state, _ = advance(SchemeState(u=random_initial_field(geo, 0.0, 0.05, seed=7)), cfg, model)
    assert infos == []
    state, newton_iters = advance(state, cfg, model)
    assert infos and all(info == 0 for info in infos)
    assert newton_iters > len(infos)  # a fixed-point step came first


@pytest.mark.parametrize("tau, steps", [(1e-2, 130), (1e-1, 120)])
def test_convex_splitting_completes_a_phase_separating_run(tau, steps):
    # Rounding in the pointwise part of omega is white, and lambda amplifies
    # it up to 8/h^2: the Newton stop must sit above that floor although the
    # high modes of u are small (the run used to stall just above newton_tol).
    geo = GridGeometry(64, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(3000.0, 1000.0), geo)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=7)
    result = run(u0, SchemeConfig("convex_splitting", tau, 1.0), kernel, make_cache(geo),
                 RunOptions(max_steps=steps))
    assert result.termination == "max_steps", result.error_detail
    energies = [r.energy for r in result.records]
    assert all(after <= before for before, after in zip(energies, energies[1:]))


def test_ssi1_conserves_mass_on_a_phase_separated_state():
    # Float64 sums on the phase-separating problem: 2,000 ssi1 steps take the
    # mean-zero field into both wells with the mass within 64 ulp of its start
    # and no energy rise beyond rounding.
    geo = GridGeometry(64, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(3000.0, 1000.0), geo)
    beta = 3 * 1.05**2 - 1
    cfg = SchemeConfig("ssi1", 1e-3, 1.0, stabilization=beta / 2, cutoff=1.05)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=7)
    result = run(u0, cfg, kernel, make_cache(geo), RunOptions(max_steps=2000))
    assert result.termination == "max_steps", result.error_detail
    ulp = np.finfo(np.float64).eps
    masses = [r.mass for r in result.records]
    assert max(abs(m - masses[0]) for m in masses) <= 64 * ulp * max(1.0, abs(masses[0]))
    energies = [r.energy for r in result.records]
    for before, after in zip(energies, energies[1:]):
        assert after <= before + 64 * ulp * abs(before)
    u = result.final_state.u.values
    assert u.min() < -0.9 and u.max() > 0.9


def test_package_exports_no_modules():
    modules = [name for name in nchsolver.__all__
               if isinstance(getattr(nchsolver, name), type(nchsolver))]
    assert modules == []
    assert {"run", "newton_solve", "SchemeConfig"} <= set(nchsolver.__all__)


def test_max_steps_termination():
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=9)
    result = run(u0, _cfg(tau=1e-4), GAUSS, CACHE, RunOptions(max_steps=3, eq_tol=1e-14))
    assert result.termination == "max_steps"
    assert result.final_state.step_index == 3
    assert result.records[-1].step == 3


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_restart_reproduces_records_bit_identically(scheme, tmp_path):
    # A checkpoint holds each level's values and spectrum, so a resumed run
    # reads the spectrum the uninterrupted run's solve produced.  two_li is
    # inadmissible on GAUSS (cJ 12.5), so it resumes on a kernel where it is.
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=31)
    cfg = _cfg(scheme, tau=1e-4 if scheme == "two_li" else 0.01)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO) if scheme == "two_li" else GAUSS
    options_full = RunOptions(max_steps=20, eq_tol=1e-14)
    full = run(u0, cfg, kernel, CACHE, options_full)

    options_half = RunOptions(max_steps=10, eq_tol=1e-14)
    half = run(u0, cfg, kernel, CACHE, options_half)
    ckpt = tmp_path / "state.nchk"
    write_checkpoint(ckpt, half.final_state)
    resumed_state = read_checkpoint(ckpt)
    tail = run(None, cfg, kernel, CACHE, options_full, initial_state=resumed_state)
    assert full.termination == tail.termination == "max_steps"

    full_tail = [r for r in full.records if r.step > 10]
    resumed_records = tail.records
    assert len(full_tail) == len(resumed_records) == 10
    for a, b in zip(full_tail, resumed_records):
        assert a == b  # bit-identical dataclasses, float for float


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_a_run_resumes_from_levels_given_as_values_alone(scheme):
    # Levels built from their values alone take rfft2(values) as their
    # spectra: the run is the one resumed from levels given both forms, and
    # follows the uninterrupted run to rounding.
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=31)
    cfg = _cfg(scheme, tau=1e-4 if scheme == "two_li" else 0.01)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO) if scheme == "two_li" else GAUSS
    options = RunOptions(max_steps=8, eq_tol=1e-14)
    full = run(u0, cfg, kernel, CACHE, options)
    half = run(u0, cfg, kernel, CACHE, RunOptions(max_steps=4, eq_tol=1e-14)).final_state

    def level(field, with_spectrum):
        if field is None:
            return None
        return Field(GEO, field.values, scipy.fft.rfft2(field.values) if with_spectrum else None)

    values_alone, both_forms = (
        run(None, cfg, kernel, CACHE, options, initial_state=SchemeState(
            u=level(half.u, both), u_prev=level(half.u_prev, both), step_index=4, time=half.time))
        for both in (False, True))
    assert values_alone.termination == "max_steps"
    assert [r.step for r in values_alone.records] == [5, 6, 7, 8]
    assert values_alone.records == both_forms.records
    for resumed, uninterrupted in zip(values_alone.records, full.records[5:]):
        assert resumed.step == uninterrupted.step
        assert resumed.mass == pytest.approx(uninterrupted.mass, rel=0.0, abs=1e-17)
        assert resumed.energy == pytest.approx(uninterrupted.energy, rel=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme", ["backward_euler", "convex_splitting", "bdf2"])
def test_a_resumed_state_whose_chemical_potential_overflows_is_a_config_error(scheme, tmp_path):
    # A checkpoint holds no omega: the run evaluates it before the first step,
    # as a fresh start does, so one that is not finite is the ConfigError of a
    # fresh start from the same level, with no numpy warning.
    state, kernel, cache = overflowing_checkpoint_state(tmp_path)
    cfg = SchemeConfig(scheme, 1e-4, 1.0)
    for u0, initial_state in ((None, state), (state.u, None)):
        with pytest.raises(ConfigError, match="chemical potential of the initial field is not finite"):
            run(u0, cfg, kernel, cache, RunOptions(max_steps=5), initial_state=initial_state)


@pytest.mark.parametrize("given", ["both", "neither"])
def test_run_takes_exactly_one_of_u0_and_initial_state(given):
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=3)
    state = SchemeState(u=u0) if given == "both" else None
    with pytest.raises(ConfigError, match="exactly one of u0 and initial_state must be given"):
        run(u0 if given == "both" else None, _cfg(), GAUSS, CACHE, RunOptions(max_steps=1),
            initial_state=state)


@pytest.mark.filterwarnings("error")
def test_a_final_equilibrium_residual_that_overflows_ends_the_run_with_error():
    # A resumed state at its step budget takes no step.  Its omega is finite,
    # but its power overflows, so the residual is not finite: the run ends in
    # error at that step, with no numpy warning.
    u = random_initial_field(GEO, 0.0, 0.05, seed=3)
    signs = np.where(np.indices((16, 16)).sum(axis=0) % 2 == 0, 1.0, -1.0)
    state = SchemeState(u=u, omega=Field(GEO, 1e200 * signs), step_index=3, time=0.03)
    result = run(None, _cfg("ssi1"), GAUSS, CACHE, RunOptions(max_steps=3), initial_state=state)
    assert result.termination == "error" and result.records == []
    assert result.final_state is state and not math.isfinite(result.equilibrium_residual)
    assert result.error_detail == (f"step 3: equilibrium_residual is not finite "
                                   f"({result.equilibrium_residual!r})")


def test_two_li_final_state_drops_its_kept_array_and_continues_bit_for_bit():
    # A two_li step keeps F_K'(u^n) on the run's model, for the next step; a
    # run continued from the final state builds its own model and evaluates
    # it again, to the same bits.
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO)  # two_li-admissible
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=31)
    cfg = _cfg("two_li", tau=1e-4)
    full = run(u0, cfg, kernel, CACHE, RunOptions(max_steps=20, eq_tol=1e-14))
    half = run(u0, cfg, kernel, CACHE, RunOptions(max_steps=10, eq_tol=1e-14))
    assert full.termination == half.termination == "max_steps"
    tail = run(None, cfg, kernel, CACHE, RunOptions(max_steps=20, eq_tol=1e-14),
               initial_state=half.final_state)
    assert tail.termination == "max_steps"
    assert tail.records == [r for r in full.records if r.step > 10]


def test_record_cadence_and_final_record():
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=13)
    result = run(u0, _cfg(tau=1e-4), GAUSS, CACHE,
                 RunOptions(max_steps=10, eq_tol=1e-14, record_every=4))
    steps = [r.step for r in result.records]
    assert steps == [0, 4, 8, 10]


def test_snapshot_cadence_writes_files(tmp_path):
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=17)
    options = RunOptions(max_steps=6, eq_tol=1e-14, snapshot_every=2, snapshot_dir=tmp_path)
    run(u0, _cfg(tau=1e-4), GAUSS, CACHE, options)
    names = sorted(p.name for p in tmp_path.glob("u_*.nchf"))
    assert names == ["u_00000002.nchf", "u_00000004.nchf", "u_00000006.nchf"]


def _decay_ratios(records):
    """Per step with an increment of at least 1e-14: the ratios (E_n - E_{n+1}) / ||du||_2^2
    (H1's) and ||grad omega||_2 / ||du||_2 (H2's)."""
    return [((before.energy - after.energy) / after.increment_l2**2,
             after.grad_omega_l2 / after.increment_l2)
            for before, after in zip(records, records[1:]) if after.increment_l2 >= 1e-14]


def test_h1h2_probe_convex_splitting_bound():
    # The paper's (H1) for convex splitting, energy decrease >= eps^2 [J(*)1] ||du||^2,
    # over the last 12 records, and a positive (H2) gradient-to-increment ratio.
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=19)
    cfg = _cfg("convex_splitting", tau=0.1)
    result = run(u0, cfg, GAUSS, CACHE, RunOptions(max_steps=25, eq_tol=1e-14))
    ratios = _decay_ratios(result.records[-12:])
    assert ratios
    assert min(drop for drop, _ in ratios) >= cfg.epsilon**2 * GAUSS.conv_one - 1e-10
    assert max(grad for _, grad in ratios) > 0.0


def test_h1h2_probe_backward_euler_positive_c2():
    # Short run: past ~10 steps the energy drops fall below one ulp of E
    # and the ratio scan would only measure the rounding floor.
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=29)
    result = run(u0, _cfg(tau=0.05), GAUSS, CACHE, RunOptions(max_steps=9, eq_tol=1e-14))
    ratios = _decay_ratios(result.records)
    assert ratios and min(drop for drop, _ in ratios) > 0.0
