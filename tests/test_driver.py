import importlib
import math
import pkgutil
import sys

import numpy as np
import pytest

import nchsolver
from nchsolver import (ConfigError, Field, GeometryMismatchError, GridGeometry, KernelSpec,
                       RunOptions, SchemeConfig, SchemeState, advance, energy, equilibrium_residual,
                       h1h2_probe, make_cache, mean, modified_energy_two_step,
                       modified_energy_two_step_linear, norm2, norm_neg1, project_zero_mean,
                       random_initial_field, run, sample_kernel)
from nchsolver.spectral import gradient
from nchsolver import kernels, solvers, spectral, steppers
from nchsolver.fieldio import read_checkpoint, write_checkpoint

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


def test_constant_init_terminates_first_step():
    u0 = Field.constant(GEO, 0.2)
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
    u = Field.constant(GEO, c)
    omega = Field.constant(GEO, c**3 - c)
    pot = _cfg().potential
    assert equilibrium_residual(u, omega, GAUSS, 1.0, pot) == pytest.approx(0.0, abs=1e-13)
    rng = np.random.default_rng(3)
    bump = project_zero_mean(Field(GEO, rng.uniform(-1, 1, (16, 16))))
    noisy = Field(GEO, omega.values + bump.values)
    assert equilibrium_residual(u, noisy, GAUSS, 1.0, pot) >= norm2(bump) * (1 - 1e-12)


def test_run_rejects_invalid_gamma0():
    weak = sample_kernel(KernelSpec.constant(0.5), GEO)
    with pytest.raises(ConfigError):
        run(Field.constant(GEO, 0.0), _cfg(), weak, CACHE, RunOptions(max_steps=10))


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
    assert not check_solvability(cfg, narrow, CACHE).admissible
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

    def counting(cfg, kernel, cache):
        calls.append(cfg.scheme)
        return original(cfg, kernel, cache)

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
    pot = cfg.potential
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=37)
    result = run(u0, cfg, kernel, CACHE, RunOptions(max_steps=6, eq_tol=1e-14))
    ulps = 64 * np.finfo(np.float64).eps

    def close(actual, expected):
        return abs(actual - expected) <= ulps * max(1.0, abs(expected))

    state = SchemeState(u=u0)
    assert close(result.records[0].energy, energy(u0, kernel, cfg.epsilon, pot))
    for record in result.records[1:]:
        state, _ = advance(state, cfg, kernel, CACHE)
        assert record.step == state.step_index
        du = project_zero_mean(Field(GEO, state.u.values - state.u_prev.values))
        if scheme == "bdf2":
            modified = modified_energy_two_step(state.u, du, cfg.tau, kernel, cfg.epsilon,
                                                CACHE, pot)
        else:
            modified = modified_energy_two_step_linear(state.u, du, cfg.tau, cfg.beta, kernel,
                                                       cfg.epsilon, CACHE, pot)
        assert close(record.energy, energy(state.u, kernel, cfg.epsilon, pot))
        assert close(record.modified_energy, modified)
        assert close(record.increment_hneg1, norm_neg1(du, CACHE))


@pytest.mark.parametrize("scheme", ["bdf2", "two_li"])
def test_loop_norms_equal_field_definitions(scheme):
    # The run loop takes its norms from arrays; they must equal, bit for bit,
    # the Field-level definitions they replace.
    geo = GridGeometry(8, 1.0)
    cache = make_cache(geo)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    cfg = _cfg(scheme, tau=2e-3)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=41)
    result = run(u0, cfg, kernel, cache, RunOptions(max_steps=5, eq_tol=1e-14))
    assert len(result.records) == 6
    state = SchemeState(u=u0)
    for record in result.records[1:]:
        previous = state.u
        state, step = advance(state, cfg, kernel, cache)
        g = gradient(step.omega)
        squares = np.sum(g.x * g.x, dtype=np.longdouble) + np.sum(g.y * g.y, dtype=np.longdouble)
        assert record.increment_l2 == norm2(Field(geo, state.u.values - previous.values))
        assert record.omega_variance == norm2(project_zero_mean(step.omega))
        assert record.grad_omega_l2 == geo.h * math.sqrt(float(squares))


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_production_path_never_calls_reference_code(scheme, monkeypatch):
    # Steps and records apply every operator through its symbol; the direct
    # convolution, the stencil and the public negative norm are references only.
    references = (kernels.convolve, kernels.convolve_values, spectral.laplacian_apply,
                  spectral.norm_neg1)

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
    assert patched == {"convolve", "convolve_values", "laplacian_apply", "norm_neg1"}
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    u0 = random_initial_field(geo, 0.0, 0.05, seed=43)
    result = run(u0, _cfg(scheme, tau=2e-3), kernel, make_cache(geo),
                 RunOptions(max_steps=4, eq_tol=1e-14))
    assert result.termination == "max_steps"
    assert [r.step for r in result.records] == [0, 1, 2, 3, 4]


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
    state, _ = advance(SchemeState(u=random_initial_field(geo, 0.0, 0.05, seed=7)),
                       cfg, kernel, cache)
    assert infos == []
    state, result = advance(state, cfg, kernel, cache)
    assert infos and all(info == 0 for info in infos)
    assert result.newton_iters > len(infos)  # a fixed-point step came first


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


def test_restart_reproduces_records_bit_identically(tmp_path):
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=31)
    cfg = _cfg("bdf2", tau=0.01)
    options_full = RunOptions(max_steps=20, eq_tol=1e-14)
    full = run(u0, cfg, GAUSS, CACHE, options_full)

    options_half = RunOptions(max_steps=10, eq_tol=1e-14)
    half = run(u0, cfg, GAUSS, CACHE, options_half)
    ckpt = tmp_path / "state.nchk"
    write_checkpoint(ckpt, half.final_state)
    resumed_state = read_checkpoint(ckpt)
    tail = run(None, cfg, GAUSS, CACHE, options_full, initial_state=resumed_state)

    full_tail = [r for r in full.records if r.step > 10]
    resumed_records = tail.records
    assert len(full_tail) == len(resumed_records)
    for a, b in zip(full_tail, resumed_records):
        assert a == b  # bit-identical dataclasses, float for float


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


def test_h1h2_probe_convex_splitting_bound():
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=19)
    cfg = _cfg("convex_splitting", tau=0.1)
    result = run(u0, cfg, GAUSS, CACHE, RunOptions(max_steps=25, eq_tol=1e-14))
    probe = h1h2_probe(result.records, window=12)
    assert probe.steps_used > 0
    assert probe.c2_hat >= cfg.epsilon**2 * GAUSS.conv_one - 1e-10
    assert probe.c3_hat > 0.0


def test_h1h2_probe_empty_on_stationary_run():
    u0 = Field.constant(GEO, 0.25)
    cfg = _cfg("backward_euler", tau=0.1)
    result = run(u0, cfg, GAUSS, CACHE, RunOptions(max_steps=5))
    # Pad with copies of the last record so the window precondition is met.
    records = result.records + result.records[-1:] * 10
    probe = h1h2_probe(records, window=8)
    assert probe.steps_used == 0
    assert probe.c2_hat is None and probe.c3_hat is None


def test_h1h2_probe_backward_euler_positive_c2():
    # Short run: past ~10 steps the energy drops fall below one ulp of E
    # and the ratio scan would only measure the rounding floor.
    u0 = random_initial_field(GEO, 0.0, 0.05, seed=29)
    result = run(u0, _cfg(tau=0.05), GAUSS, CACHE, RunOptions(max_steps=9, eq_tol=1e-14))
    probe = h1h2_probe(result.records, window=len(result.records))
    assert probe.c2_hat is not None and probe.c2_hat > 0.0


def test_h1h2_probe_requires_window():
    with pytest.raises(ValueError):
        h1h2_probe([], window=4)
