"""Built-in oracle suite: cross-checks the production paths at small sizes.

Each check compares a production computation against an independent
reference from :mod:`nchsolver.oracles` (naive loops, dense matrices,
direct transforms, dense solves) and reports the worst observed error
against its tolerance.  The CLI ``verify`` command runs the whole table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import energetics, grid, kernels, oracles, spectral, steppers
from .grid import Field, GridGeometry
from .steppers import SchemeConfig, SchemeState


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_error: float
    tolerance: float
    detail: str = ""


def _result(name: str, max_error: float, tolerance: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(max_error <= tolerance), float(max_error), tolerance, detail)


def _random_field(geometry: GridGeometry, rng) -> Field:
    return Field(geometry, rng.uniform(-1.0, 1.0, size=(geometry.n, geometry.n)))


def _gaussian_kernel(geometry: GridGeometry) -> kernels.SampledKernel:
    return kernels.sample_kernel(kernels.KernelSpec.gaussian(12.5, 10.0), geometry)


def check_summation_by_parts() -> CheckResult:
    """Both operator identities tying the forward differences to the stencil and to the symbol."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (4, 8):
        geometry = GridGeometry(n, 1.0)
        h, h2 = geometry.h, geometry.h**2
        minus_lambda = -spectral.make_cache(geometry).minus_laplacian_eigenvalues
        laplacians = (lambda f: spectral.laplacian_apply(f.values, h),
                      lambda f: oracles.apply_symbol(f, minus_lambda))
        for _ in range(40):
            phi, psi = _random_field(geometry, rng), _random_field(geometry, rng)
            # The edge pairing (D phi || D psi), component by component.
            edges = zip(spectral._forward_differences(phi.values, h),
                        spectral._forward_differences(psi.values, h))
            lhs = h2 * sum(oracles.naive_inner_product(a, b) for a, b in edges)
            for laplacian in laplacians:
                rhs = -h2 * oracles.naive_inner_product(phi.values, laplacian(psi))
                scale = max(abs(lhs), abs(rhs), 1e-30)
                worst = max(worst, abs(lhs - rhs) / scale)
                adj = h2 * oracles.naive_inner_product(laplacian(phi), psi.values)
                scale = max(abs(adj), abs(rhs), 1e-30)
                worst = max(worst, abs(adj + rhs) / scale)
    return _result("summation-by-parts", worst, 1e-12,
                   "forward differences vs stencil and symbol, N in {4, 8}")


def check_laplacian_eigenvalues() -> CheckResult:
    """Closed-form symbol vs dense eigendecomposition, including the simple zero."""
    worst = 0.0
    detail = "formula vs dense spectrum, N in {4, 8}"
    for n in (4, 8):
        geometry = GridGeometry(n, 1.0)
        formula = np.sort(spectral.laplacian_eigenvalues(geometry).ravel())
        dense = np.linalg.eigvalsh(oracles.dense_minus_laplacian(geometry))
        worst = max(worst, float(np.abs(formula - dense).max()))
        ones = np.ones(n * n)
        worst = max(worst, float(np.abs(oracles.dense_minus_laplacian(geometry) @ ones).max()))
        if dense[1] <= 1e-8:  # zero eigenvalue must be simple
            worst = max(worst, 1.0)
            detail = f"zero eigenvalue not simple at N = {n}"
    return _result("laplacian-eigenvalues", worst, 1e-10, detail)


def check_nonlocal_matrix() -> CheckResult:
    """Dense nonlocal operator: row sums, symmetry, PSD; production symbol mode by mode."""
    worst = 0.0
    for n in (7, 8):  # odd N: the half spectrum has no Nyquist column
        geometry = GridGeometry(n, 1.0)
        kernel = _gaussian_kernel(geometry)
        dense = oracles.dense_nonlocal_matrix(kernel)
        worst = max(worst, float(np.abs(dense.sum(axis=1)).max()))
        worst = max(worst, float(np.abs(dense - dense.T).max()))
        eigvals = np.linalg.eigvalsh(dense)
        worst = max(worst, max(0.0, -float(eigvals[0])))
        formula = oracles.nonlocal_eigenvalue_formula(kernel)
        worst = max(worst, float(np.abs(eigvals - np.sort(formula.ravel())).max()))
        model = energetics.Model(kernel, spectral.make_cache(geometry), 1.0,
                                 energetics.PotentialSpec("double_well"))
        worst = max(worst, float(np.abs(model.gap - formula[:, : n // 2 + 1]).max()))
    return _result("nonlocal-matrix", worst, 1e-10,
                   "row sums, PSD, eigenvalue formula and the model's G per mode, N in {7, 8}")


def check_convolution() -> CheckResult:
    """DFT convolution vs the direct quadruple-loop definition."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for n in (4, 7, 8):  # odd N: the half spectrum has no Nyquist column
        geometry = GridGeometry(n, 1.0)
        kernel = _gaussian_kernel(geometry)
        for _ in range(5):
            phi = _random_field(geometry, rng)
            fast = kernels.convolve(kernel, phi).values
            slow = oracles.direct_convolution(kernel, phi.values)
            scale = max(float(np.abs(slow).max()), 1e-30)
            worst = max(worst, float(np.abs(fast - slow).max()) / scale)
    return _result("convolution", worst, 1e-12, "DFT vs direct sum, N in {4, 7, 8}")


def check_inverse_laplacian() -> CheckResult:
    """Inverse symbol 1/lambda vs dense pseudo-inverse plus the stencil residual of the solve."""
    rng = np.random.default_rng(13)
    geometry = GridGeometry(8, 1.0)
    cache = spectral.make_cache(geometry)
    pinv = oracles.dense_minus_laplacian_pinv(geometry)
    worst = 0.0
    for _ in range(5):
        phi = oracles.zero_mean(_random_field(geometry, rng))
        psi = oracles.apply_symbol(phi, cache.inverse_eigenvalues)
        reference = pinv @ phi.values.ravel()
        scale = max(float(np.abs(reference).max()), 1e-30)
        worst = max(worst, float(np.abs(psi.ravel() - reference).max()) / scale)
        residual = spectral.laplacian_apply(psi, geometry.h) + phi.values
        worst = max(worst, geometry.h * float(np.linalg.norm(residual)) / max(grid.norm2(phi), 1e-30))
    return _result("inverse-laplacian", worst, 1e-10, "dense pseudo-inverse and residual at N = 8")


def check_negative_norm() -> CheckResult:
    """Spectral negative-order norm vs the dense quadratic form."""
    rng = np.random.default_rng(17)
    geometry = GridGeometry(8, 1.0)
    cache = spectral.make_cache(geometry)
    pinv = oracles.dense_minus_laplacian_pinv(geometry)
    worst = 0.0
    for _ in range(5):
        phi = oracles.zero_mean(_random_field(geometry, rng))
        vec = phi.values.ravel()
        reference = np.sqrt(geometry.h**2 * float(vec @ (pinv @ vec)))
        value = spectral.norm_neg1(phi.spectrum, cache)
        worst = max(worst, abs(value - reference) / max(reference, 1e-30))
    return _result("negative-norm", worst, 1e-10, "dense quadratic form at N = 8")


def check_dft_roundtrip() -> CheckResult:
    """The production pair ``grid.rfft2``/``irfft2`` vs the O(N^4) direct sum, and the round trip.

    The pair must also give ``scipy.fft``'s bits both ways; any
    difference fails the check.
    """
    rng = np.random.default_rng(19)
    worst = 0.0
    for n in (7, 8):  # odd N: the half spectrum has no Nyquist column
        values = _random_field(GridGeometry(n, 1.0), rng).values
        fast = grid.rfft2(values)
        slow = oracles.direct_dft2(values)[:, : n // 2 + 1]
        scale = max(float(np.abs(slow).max()), 1e-30)
        worst = max(worst, float(np.abs(fast - slow).max()) / scale)
        back = grid.irfft2(fast)
        worst = max(worst, float(np.abs(back - values).max()))
        if not (np.array_equal(fast, scipy.fft.rfft2(values))
                and np.array_equal(back, scipy.fft.irfft2(fast, s=values.shape))):
            worst = np.inf
    return _result("dft-roundtrip", worst, 1e-12,
                   "grid.rfft2 vs direct sum, irfft2 round trip, both scipy.fft bit for bit, "
                   "N in {7, 8}")


def check_kernel_mass() -> CheckResult:
    """Sampled kernel mass vs high-resolution quadrature of the periodized kernel."""
    geometry = GridGeometry(32, 1.0)
    spec = kernels.KernelSpec.gaussian(1.0, 10.0, images=3)
    kernel = kernels.sample_kernel(spec, geometry)
    reference = oracles.periodized_gaussian_mass(1.0, 10.0, 1.0, 3)
    error = abs(kernel.conv_one - reference) / reference
    return _result("kernel-mass-quadrature", error, 1e-6, "periodized Gaussian at N = 32")


def check_energy() -> CheckResult:
    """Production energy vs the loop-and-direct-convolution evaluation."""
    rng = np.random.default_rng(23)
    geometry = GridGeometry(8, 1.0)
    kernel = _gaussian_kernel(geometry)
    worst = 0.0
    for spec in (energetics.PotentialSpec("double_well"), energetics.PotentialSpec("truncated", 2.0)):
        model = energetics.Model(kernel, spectral.make_cache(geometry), 1.0, spec)
        for _ in range(3):
            u = _random_field(geometry, rng)
            fast = energetics.energy(u, model)
            slow = oracles.naive_energy(u.values, kernel, 1.0, spec)
            worst = max(worst, abs(fast - slow) / max(abs(slow), 1e-30))
    return _result("energy-naive", worst, 1e-12, "loops plus direct convolution at N = 8")


def check_dense_scheme_steps() -> CheckResult:
    """All five steps vs dense assembled solves at N = 4."""
    rng = np.random.default_rng(29)
    geometry = GridGeometry(4, 1.0)
    cache = spectral.make_cache(geometry)
    # Strong enough interaction that every scheme is admissible at this step.
    kernel = kernels.sample_kernel(kernels.KernelSpec.gaussian(130.0, 10.0), geometry)
    u0 = oracles.zero_mean(_random_field(geometry, rng))
    u1 = Field(geometry, u0.values + 0.01 * oracles.zero_mean(_random_field(geometry, rng)).values)
    worst = 0.0
    detail = []
    for scheme in steppers.SCHEMES:
        cfg = SchemeConfig(scheme=scheme, tau=1e-3, epsilon=1.0, stabilization=5.5,
                           cutoff=2.0, stability_policy="ignore")
        state = SchemeState(u=u1, u_prev=u0 if scheme in steppers.TWO_STEP_SCHEMES else None)
        result, _ = steppers.advance(state, cfg, cfg.model(kernel, cache))
        if scheme in ("ssi1", "two_li"):
            ref_u, _ = oracles.dense_linear_step(scheme, u1, u0, cfg.tau, cfg.epsilon,
                                                 cfg.stabilization, kernel, cfg.potential)
            tol_label = "linear"
        else:
            ref_u, _ = oracles.dense_nonlinear_step(scheme, u1, u0, cfg.tau, cfg.epsilon,
                                                    kernel, cfg.potential)
            tol_label = "nonlinear"
        err = float(np.abs(result.u.values.ravel() - ref_u).max())
        detail.append(f"{scheme}({tol_label}) {err:.2e}")
        worst = max(worst, err if tol_label == "nonlinear" else err * 100.0)
    # Linear errors are held to a 100x tighter bar via the scaling above.
    return _result("dense-scheme-steps", worst, 1e-9, "; ".join(detail))


ALL_CHECKS = (
    check_summation_by_parts,
    check_laplacian_eigenvalues,
    check_nonlocal_matrix,
    check_convolution,
    check_inverse_laplacian,
    check_negative_norm,
    check_dft_roundtrip,
    check_kernel_mass,
    check_energy,
    check_dense_scheme_steps,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]


def render_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}  {status}  max_err={r.max_error:.3e}  "
                     f"tol={r.tolerance:.1e}  {r.detail}")
    total = sum(r.passed for r in results)
    lines.append(f"{total}/{len(results)} checks passed")
    return "\n".join(lines)
