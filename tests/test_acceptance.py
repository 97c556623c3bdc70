"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the stated runtime budgets are
asserted where the criterion carries one.
"""

import time

import numpy as np
import pytest

from nchsolver import (Field, GridGeometry, KernelSpec, RunOptions, SchemeConfig,
                       SchemeState, check_solvability, energy, make_cache, mean, norm2,
                       random_initial_field, run, sample_kernel)
from nchsolver.grid import inner_product, project_zero_mean
from nchsolver.kernels import _reflect, convolve
from nchsolver.oracles import (dense_linear_step, dense_minus_laplacian,
                               dense_nonlinear_step, dense_nonlocal_matrix,
                               direct_convolution, nonlocal_eigenvalue_formula)
from nchsolver.spectral import (_apply_to_field, _forward_differences, laplacian_apply,
                                laplacian_eigenvalues)
from nchsolver.steppers import TWO_STEP_SCHEMES, advance, step

from conftest import DW, model_of, recomposed_modified_energy

GEO32 = GridGeometry(32, 1.0)
CACHE32 = make_cache(GEO32)
GAUSS32 = sample_kernel(KernelSpec.gaussian(12.5, 10.0), GEO32)   # gamma0 ~ 2.93
STRONG32 = sample_kernel(KernelSpec.gaussian(130.0, 10.0), GEO32)  # two_li-friendly
SLOW32 = sample_kernel(KernelSpec.gaussian(4.0, 10.0), GEO32)      # gamma0 ~ 0.26
# Near-flat symbol: slow dynamics while keeping gamma0 large enough for two_li.
STRONG_NARROW = sample_kernel(KernelSpec.gaussian(124.0, 54.2), GEO32)

ALL_SCHEMES = ("backward_euler", "convex_splitting", "ssi1", "bdf2", "two_li")


def _cfg(scheme, tau, **kw):
    defaults = dict(epsilon=1.0, stabilization=5.5, cutoff=2.0)
    defaults.update(kw)
    return SchemeConfig(scheme=scheme, tau=tau, **defaults)


def _admissible_tau(scheme, kernel, cache, start, **kw):
    tau = start
    for _ in range(20):
        cfg = _cfg(scheme, tau, **kw)
        if check_solvability(cfg, cfg.model(kernel, cache)).admissible:
            return tau
        tau /= 2.0
    raise AssertionError(f"no admissible step size found for {scheme}")


def _march(state, cfg, kernel, cache, n_steps):
    model = cfg.model(kernel, cache)
    for _ in range(n_steps):
        state, result = advance(state, cfg, model)
    return state, result


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_c01_summation_by_parts():
    # The forward differences against both Laplacians: the stencil and the
    # symbol apply the schemes use.
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    worst = 0.0
    for n in (4, 8, 16):
        geo = GridGeometry(n, 1.0)
        h, h2 = geo.h, geo.h**2
        minus_lambda = -make_cache(geo).minus_laplacian_eigenvalues
        laplacians = (lambda f: laplacian_apply(f.values, h),
                      lambda f: _apply_to_field(f, minus_lambda))
        for _ in range(100):
            phi = Field(geo, rng.uniform(-1, 1, (n, n)))
            psi = Field(geo, rng.uniform(-1, 1, (n, n)))
            lhs = h2 * sum(inner_product(Field(geo, a), Field(geo, b))
                           for a, b in zip(_forward_differences(phi.values, h),
                                           _forward_differences(psi.values, h)))
            for laplacian in laplacians:
                rhs = -h2 * inner_product(phi, Field(geo, laplacian(psi)))
                worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30))
                adj = h2 * inner_product(Field(geo, laplacian(phi)), psi)
                worst = max(worst, abs(adj - (-lhs)) / max(abs(adj), abs(lhs), 1e-30))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(1, f"summation by parts, 100 pairs at N in (4, 8, 16), "
               f"max rel err {worst:.2e} <= 1e-12 ({elapsed:.2f} s)")


def test_c02_spectral_correctness():
    started = time.perf_counter()
    worst = 0.0
    for n in (4, 8):
        geo = GridGeometry(n, 1.0)
        dense = dense_minus_laplacian(geo)
        spectrum = np.linalg.eigvalsh(dense)
        formula = np.sort(laplacian_eigenvalues(geo).ravel())
        worst = max(worst, float(np.abs(spectrum - formula).max()))
        assert spectrum[0] == pytest.approx(0.0, abs=1e-10)
        assert spectrum[1] > 1e-6  # simple zero
        assert np.abs(dense @ np.ones(n * n)).max() <= 1e-10

        kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
        dense_j = dense_nonlocal_matrix(kernel)
        spectrum_j = np.linalg.eigvalsh(dense_j)
        formula_j = np.sort(nonlocal_eigenvalue_formula(kernel).ravel())
        worst = max(worst, float(np.abs(spectrum_j - formula_j).max()))
        assert spectrum_j[0] == pytest.approx(0.0, abs=1e-10)
        assert spectrum_j[1] > 1e-8  # simple zero
        assert np.abs(dense_j @ np.ones(n * n)).max() <= 1e-10
    elapsed = time.perf_counter() - started
    assert worst <= 1e-10
    assert elapsed < 5.0
    _report(2, f"eigenvalue formulas vs dense spectra at N in (4, 8), "
               f"max abs err {worst:.2e} <= 1e-10 ({elapsed:.2f} s)")


def test_c03_convolution_oracle():
    rng = np.random.default_rng(103)
    geo = GridGeometry(8, 1.0)
    started = time.perf_counter()
    worst = 0.0
    for case in range(50):
        if case % 2 == 0:
            kernel = sample_kernel(KernelSpec.gaussian(rng.uniform(1, 20),
                                                       rng.uniform(5, 50)), geo)
        else:
            # A tabulated kernel must be even: the table is averaged with its reflection.
            raw = rng.uniform(0, 1, (8, 8))
            kernel = sample_kernel(KernelSpec.tabulated(0.5 * (raw + _reflect(raw))), geo)
        phi = Field(geo, rng.uniform(-1, 1, (8, 8)))
        fast = convolve(kernel, phi).values
        slow = direct_convolution(kernel, phi.values)
        worst = max(worst, float(np.abs(fast - slow).max()) / max(np.abs(slow).max(), 1e-30))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-12
    assert elapsed < 1.0
    _report(3, f"DFT convolution vs direct sum, 50 cases at N = 8, "
               f"max rel err {worst:.2e} <= 1e-12 ({elapsed:.2f} s)")


def test_c04_convolution_lemma_suite():
    rng = np.random.default_rng(104)
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
    failures = 0
    for _ in range(100):
        phi = Field(geo, rng.uniform(-1, 1, (8, 8)))
        psi = Field(geo, rng.uniform(-1, 1, (8, 8)))
        lhs = inner_product(phi, convolve(kernel, psi))
        rhs = inner_product(psi, convolve(kernel, phi))
        if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs), 1.0):
            failures += 1
        for alpha in (0.1, 1.0, 10.0):
            bound = kernel.conv_one * (0.5 * alpha * inner_product(phi, phi)
                                       + inner_product(psi, psi) / (2 * alpha))
            if abs(lhs) > bound * (1 + 1e-12):
                failures += 1
    assert failures == 0
    _report(4, "self-adjointness and the alpha-weighted bound, 100 pairs, 0 failures")


def test_c05_mass_conservation():
    u0 = random_initial_field(GEO32, 0.1, 0.05, seed=105)
    m0 = mean(u0)
    drifts = {}
    for scheme in ALL_SCHEMES:
        cfg = _cfg(scheme, tau=2e-3)
        model = cfg.model(STRONG32, CACHE32)
        state = SchemeState(u=u0)
        worst = 0.0
        for _ in range(200):
            state, _ = advance(state, cfg, model)
            worst = max(worst, abs(mean(state.u) - m0))
        drifts[scheme] = worst / abs(m0)
        assert drifts[scheme] <= 1e-11, scheme
    worst = max(drifts.values())
    _report(5, f"mass drift over 200 steps at N = 32, all schemes, "
               f"max relative drift {worst:.2e} <= 1e-11")


def _assert_non_increasing(values, what):
    for before, after in zip(values, values[1:]):
        assert after <= before + 1e-10 * (1.0 + abs(before)), what


def test_c06_energy_dissipation():
    started = time.perf_counter()
    u0 = random_initial_field(GEO32, 0.0, 0.05, seed=106)
    steps = 50

    # (a) convex splitting at every step size.
    for tau in (0.01, 0.1, 1.0, 10.0):
        cfg = _cfg("convex_splitting", tau)
        model = cfg.model(GAUSS32, CACHE32)
        state = SchemeState(u=u0)
        energies = [energy(state.u, model)]
        for _ in range(steps):
            state, _ = advance(state, cfg, model)
            energies.append(energy(state.u, model))
        _assert_non_increasing(energies, f"convex_splitting tau={tau}")

    # (b) stabilized linear scheme at S = beta/2, K = 2.
    for tau in (0.01, 0.1, 1.0, 10.0):
        cfg = _cfg("ssi1", tau)  # stabilization 5.5 = beta/2
        model = cfg.model(GAUSS32, CACHE32)
        state = SchemeState(u=u0)
        energies = [energy(state.u, model)]
        for _ in range(steps):
            state, _ = advance(state, cfg, model)
            energies.append(energy(state.u, model))
        _assert_non_increasing(energies, f"ssi1 tau={tau}")

    # (c) backward Euler and BDF2 at an admissible step size.
    tau = _admissible_tau("backward_euler", GAUSS32, CACHE32, 0.1)
    cfg = _cfg("backward_euler", tau)
    model = cfg.model(GAUSS32, CACHE32)
    state = SchemeState(u=u0)
    energies = [energy(state.u, model)]
    for _ in range(steps):
        state, _ = advance(state, cfg, model)
        energies.append(energy(state.u, model))
    _assert_non_increasing(energies, "backward_euler")

    tau = _admissible_tau("bdf2", GAUSS32, CACHE32, 0.1)
    cfg = _cfg("bdf2", tau)
    model = cfg.model(GAUSS32, CACHE32)
    state, _ = advance(SchemeState(u=u0), cfg, model)  # bootstrap
    du = project_zero_mean(Field(GEO32, state.u.values - u0.values))
    modified = [recomposed_modified_energy(state.u, du, tau, model)]
    for _ in range(steps):
        prev = state.u
        state, _ = advance(state, cfg, model)
        du = project_zero_mean(Field(GEO32, state.u.values - prev.values))
        modified.append(recomposed_modified_energy(state.u, du, tau, model))
    _assert_non_increasing(modified, "bdf2 modified energy")

    # (d) linearly implicit two-step scheme under the curvature bound.
    assert cfg.beta <= (model_of(STRONG32, 1.0, DW, CACHE32).gamma0 + 1.0) / 3.0
    tau = _admissible_tau("two_li", STRONG32, CACHE32, 0.01)
    cfg = _cfg("two_li", tau)
    model = cfg.model(STRONG32, CACHE32)
    state, _ = advance(SchemeState(u=u0), cfg, model)
    du = project_zero_mean(Field(GEO32, state.u.values - u0.values))
    modified = [recomposed_modified_energy(state.u, du, tau, model, cfg.beta)]
    for _ in range(steps):
        prev = state.u
        state, _ = advance(state, cfg, model)
        du = project_zero_mean(Field(GEO32, state.u.values - prev.values))
        modified.append(recomposed_modified_energy(state.u, du, tau, model, cfg.beta))
    _assert_non_increasing(modified, "two_li modified energy")

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(6, f"scheme energies non-increasing under the stated conditions, "
               f"N = 32, 50 steps each ({elapsed:.1f} s)")


def test_c07_dense_oracle_equivalence():
    rng = np.random.default_rng(107)
    started = time.perf_counter()
    geo = GridGeometry(4, 1.0)
    cache = make_cache(geo)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    u0 = project_zero_mean(Field(geo, rng.uniform(-0.5, 0.5, (4, 4))))
    u1 = Field(geo, u0.values + 0.01 * project_zero_mean(
        Field(geo, rng.uniform(-1, 1, (4, 4)))).values)
    worst_nonlinear = worst_linear = 0.0
    for scheme in ALL_SCHEMES:
        cfg = _cfg(scheme, tau=1e-3)
        state = SchemeState(u=u1, u_prev=u0 if scheme in TWO_STEP_SCHEMES else None)
        result = step(state, cfg, cfg.model(kernel, cache))
        if scheme in ("ssi1", "two_li"):
            ref_u, _ = dense_linear_step(scheme, u1, u0, cfg.tau, cfg.epsilon,
                                         cfg.stabilization, kernel, cfg.potential)
            worst_linear = max(worst_linear, float(np.abs(result.u.values.ravel() - ref_u).max()))
        else:
            ref_u, _ = dense_nonlinear_step(scheme, u1, u0, cfg.tau, cfg.epsilon,
                                            kernel, cfg.potential)
            worst_nonlinear = max(worst_nonlinear,
                                  float(np.abs(result.u.values.ravel() - ref_u).max()))
    elapsed = time.perf_counter() - started
    assert worst_nonlinear <= 1e-9
    assert worst_linear <= 1e-11
    assert elapsed < 10.0
    _report(7, f"dense assembled solves at N = 4: nonlinear err {worst_nonlinear:.2e} "
               f"<= 1e-9, linear err {worst_linear:.2e} <= 1e-11 ({elapsed:.2f} s)")


def _self_convergence_rate(scheme, kernel, u0, tau0, horizon, **kw):
    solutions = []
    for level in range(4):
        tau = tau0 / 2**level
        cfg = _cfg(scheme, tau, **kw)
        assert check_solvability(cfg, cfg.model(kernel, CACHE32)).admissible, (scheme, tau)
        state = SchemeState(u=u0)
        state, _ = _march(state, cfg, kernel, CACHE32, round(horizon / tau))
        solutions.append(state.u)
    gaps = [norm2(Field(GEO32, a.values - b.values))
            for a, b in zip(solutions, solutions[1:])]
    return np.log2(gaps[-2] / gaps[-1])


def test_c08_temporal_order():
    started = time.perf_counter()
    x, y = np.meshgrid(*GEO32.cell_coords(), indexing="ij")
    smooth = Field(GEO32, 0.08 * np.sin(2 * np.pi * x) + 0.06 * np.cos(2 * np.pi * y))
    horizon = 0.1

    rates = {
        "backward_euler": _self_convergence_rate("backward_euler", SLOW32, smooth, 0.0125, horizon),
        "convex_splitting": _self_convergence_rate("convex_splitting", SLOW32, smooth,
                                                   0.00078125, horizon),
        "ssi1": _self_convergence_rate("ssi1", SLOW32, smooth, 0.0015625, horizon,
                                       stabilization=1.154, cutoff=1.05),
        "bdf2": _self_convergence_rate("bdf2", SLOW32, smooth, 0.0125, horizon),
        "two_li": _self_convergence_rate("two_li", STRONG_NARROW, smooth, 0.00125, horizon,
                                         stabilization=0.0, cutoff=1.05),
    }
    for scheme in ("backward_euler", "convex_splitting", "ssi1"):
        assert abs(rates[scheme] - 1.0) <= 0.15, (scheme, rates[scheme])
    for scheme in ("bdf2", "two_li"):
        assert abs(rates[scheme] - 2.0) <= 0.2, (scheme, rates[scheme])
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    summary = ", ".join(f"{s} {r:.3f}" for s, r in rates.items())
    _report(8, f"self-convergence rates on a smooth N = 32 run: {summary} ({elapsed:.1f} s)")


def test_c09_convergence_to_equilibrium():
    u0 = random_initial_field(GEO32, 0.0, 0.05, seed=109)
    setups = {
        "backward_euler": (GAUSS32, 0.05, {}),
        "convex_splitting": (GAUSS32, 0.05, {}),
        "ssi1": (GAUSS32, 0.05, {}),
        "bdf2": (GAUSS32, 0.05, {}),
        "two_li": (STRONG32, _admissible_tau("two_li", STRONG32, CACHE32, 0.01), {}),
    }
    for scheme, (kernel, tau, kw) in setups.items():
        started = time.perf_counter()
        cfg = _cfg(scheme, tau, **kw)
        options = RunOptions(max_steps=1_000_000, eq_tol=1e-9, record_every=1)
        result = run(u0, cfg, kernel, CACHE32, options)
        elapsed = time.perf_counter() - started
        assert result.termination == "equilibrium", scheme
        assert result.equilibrium_residual <= 1e-9, scheme
        last = result.final_state.step_index
        tail = [r.increment_l2 for r in result.records if r.step > 0 and r.step >= 0.9 * last]
        assert max(tail) <= 1e-8, scheme
        assert result.records[-1].omega_variance <= 1e-9, scheme
        assert elapsed < 600.0, scheme
    _report(9, "every scheme reached a discrete equilibrium at N = 32 "
               "(residual <= 1e-9, tail increments <= 1e-8, omega variance <= 1e-9)")


def test_c10_constant_fixed_points():
    c = 0.3
    worst = 0.0
    for scheme in ALL_SCHEMES:
        kernel = STRONG32  # admissible for every scheme at this step size
        tau = _admissible_tau(scheme, kernel, CACHE32, 0.05)
        cfg = _cfg(scheme, tau)
        state = SchemeState(u=Field.constant(GEO32, c))
        state, _ = _march(state, cfg, kernel, CACHE32, 10)
        worst = max(worst, float(np.abs(state.u.values - c).max()))
    assert worst <= 1e-13
    _report(10, f"constant data invariant under all five schemes after 10 steps, "
                f"max deviation {worst:.2e} <= 1e-13")


def test_c11_determinism(tmp_path):
    from nchsolver.cli import main

    config_text = "\n".join([
        "grid.N = 32", "grid.L = 1.0", "model.epsilon = 1.0",
        "model.kernel.type = gaussian", "model.kernel.cJ = 12.5",
        "model.kernel.xi = 10.0", "scheme.name = backward_euler",
        "scheme.tau = 0.05", "run.max_steps = 40", "run.seed = 2024",
        f"output.dir = {tmp_path / 'a'}",
    ]) + "\n"
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    assert main(["run", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "b")]) == 0
    bytes_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
    assert bytes_a == bytes_b
    _report(11, "fixed-seed runs produced byte-identical diagnostics CSV")
