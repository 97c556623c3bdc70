import warnings

import numpy as np
import pytest
from scipy.fft import rfft2

from nchsolver import (ConfigError, Field, GridGeometry, KernelSpec, RunOptions, SchemeConfig, kernels,
                       make_cache, mean, random_initial_field, run, sample_kernel)
from nchsolver.steppers import SCHEMES
from nchsolver.grid import inner_product
from nchsolver.kernels import convolve
from nchsolver.oracles import (dense_nonlocal_matrix, direct_convolution,
                               nonlocal_eigenvalue_formula, periodized_gaussian_mass)

from conftest import DW, model_of, random_field


def _reflected(values):
    return np.roll(values[::-1, ::-1], 1, axis=(0, 1))


def test_kernel_spec_validation():
    with pytest.raises(ConfigError):
        KernelSpec.gaussian(-1.0, 10.0)
    with pytest.raises(ConfigError):
        KernelSpec.gaussian(1.0, 0.0)
    with pytest.raises(ConfigError):
        KernelSpec("gaussian", amplitude=1.0, decay_rate=1.0, images=-1)
    with pytest.raises(ConfigError):
        KernelSpec("nope")
    with pytest.raises(ConfigError):
        KernelSpec("tabulated")


def test_constant_kernel_mass_is_amplitude_times_area():
    for n, length, c in ((4, 1.0, 2.0), (8, 2.0, 0.5), (16, 1.0, 7.0)):
        kernel = sample_kernel(KernelSpec.constant(c), GridGeometry(n, length))
        assert kernel.conv_one == pytest.approx(c * length**2, rel=1e-14)


def test_gaussian_mass_matches_quadrature():
    geo = GridGeometry(32, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(1.0, 10.0, images=3), geo)
    reference = periodized_gaussian_mass(1.0, 10.0, 1.0, 3)
    assert kernel.conv_one == pytest.approx(reference, rel=1e-6)


def test_tabulated_even_table_passes_through(rng, geo8):
    raw = rng.uniform(0.0, 1.0, (8, 8))
    even = 0.5 * (raw + _reflected(raw))
    kernel = sample_kernel(KernelSpec.tabulated(even), geo8)
    assert np.abs(kernel.values - even).max() <= 1e-15


def test_sampled_kernel_is_even_and_nonnegative(geo8):
    kernel = sample_kernel(KernelSpec.gaussian(3.0, 25.0), geo8)
    assert np.abs(kernel.values - _reflected(kernel.values)).max() <= 1e-15
    assert kernel.values.min() >= 0.0


def test_symbol_zero_mode_equals_conv_one_and_is_real(gaussian_kernel8):
    assert gaussian_kernel8.symbol[0, 0] == gaussian_kernel8.conv_one
    assert gaussian_kernel8.symbol.dtype == np.float64


def test_convolution_with_constant_kernel_is_mean_projection(rng, geo8):
    kernel = sample_kernel(KernelSpec.constant(2.0), geo8)
    phi = random_field(geo8, rng)
    out = convolve(kernel, phi)
    expected = 2.0 * geo8.area * mean(phi)
    assert np.abs(out.values - expected).max() <= 1e-12


def test_convolution_of_ones_gives_conv_one(gaussian_kernel8, geo8):
    out = convolve(gaussian_kernel8, Field.constant(geo8, 1.0))
    assert np.abs(out.values - gaussian_kernel8.conv_one).max() <= 1e-12


@pytest.mark.parametrize("n", [4, 7, 8])
def test_convolution_matches_direct_loop(n, rng):
    geo = GridGeometry(n, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
    for _ in range(10):
        phi = random_field(geo, rng)
        fast = convolve(kernel, phi).values
        slow = direct_convolution(kernel, phi.values)
        assert np.abs(fast - slow).max() <= 1e-12 * max(np.abs(slow).max(), 1e-30)


def test_gamma0_frozen_cases(geo8):
    constant = sample_kernel(KernelSpec.constant(2.0), GridGeometry(8, 1.0))
    assert model_of(constant, 1.0, DW).gamma0 == pytest.approx(1.0, rel=1e-14)
    # Boundary: eps^2 conv_one = 1 exactly.
    boundary = sample_kernel(KernelSpec.constant(1.0), GridGeometry(8, 1.0))
    assert model_of(boundary, 1.0, DW).gamma0 == pytest.approx(0.0, abs=1e-14)


def test_gamma0_consistent_with_quadrature():
    geo = GridGeometry(32, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(4.0, 10.0, images=3), geo)
    reference = 0.25 * periodized_gaussian_mass(4.0, 10.0, 1.0, 3) - 1.0
    assert model_of(kernel, 0.5, DW).gamma0 == pytest.approx(reference, rel=1e-6)


def test_nonlocal_matrix_row_sums_and_psd(gaussian_kernel8):
    dense = dense_nonlocal_matrix(gaussian_kernel8)
    assert np.abs(dense.sum(axis=1)).max() <= 1e-12
    eigvals = np.linalg.eigvalsh(dense)
    assert eigvals.min() >= -1e-10
    ones = np.ones(dense.shape[0])
    assert np.abs(dense @ ones).max() <= 1e-12
    # Symmetric and (weakly) diagonally dominant.
    assert np.abs(dense - dense.T).max() <= 1e-13
    off_diagonal = np.abs(dense).sum(axis=1) - np.abs(np.diag(dense))
    assert (np.diag(dense) >= off_diagonal - 1e-12).all()


def test_nonlocal_eigenvalue_formula_matches_dense(gaussian_kernel8):
    dense = np.sort(np.linalg.eigvalsh(dense_nonlocal_matrix(gaussian_kernel8)))
    formula = np.sort(nonlocal_eigenvalue_formula(gaussian_kernel8).ravel())
    assert np.abs(dense - formula).max() <= 1e-10
    # The production symbol, mode by mode on the half spectrum.
    half = nonlocal_eigenvalue_formula(gaussian_kernel8)[:, : 8 // 2 + 1]
    assert np.abs(model_of(gaussian_kernel8, 1.0, DW).gap - half).max() <= 1e-10


def test_convolution_self_adjointness(rng, geo8, gaussian_kernel8):
    # (phi || [f (*) psi]) = (psi || [f (*) phi]) for even kernels.
    for _ in range(100):
        phi, psi = random_field(geo8, rng), random_field(geo8, rng)
        lhs = inner_product(phi, convolve(gaussian_kernel8, psi))
        rhs = inner_product(psi, convolve(gaussian_kernel8, phi))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
def test_convolution_young_bound(alpha, rng, geo8, gaussian_kernel8):
    # |(phi || [f (*) psi])| <= [f (*) 1] (alpha/2 (phi||phi) + 1/(2 alpha) (psi||psi)).
    for _ in range(100):
        phi, psi = random_field(geo8, rng), random_field(geo8, rng)
        lhs = abs(inner_product(phi, convolve(gaussian_kernel8, psi)))
        bound = gaussian_kernel8.conv_one * (
            0.5 * alpha * inner_product(phi, phi)
            + inner_product(psi, psi) / (2.0 * alpha))
        assert lhs <= bound * (1.0 + 1e-12)


def test_convolve_geometry_mismatch(gaussian_kernel8):
    other = Field.constant(GridGeometry(4, 1.0), 1.0)
    with pytest.raises(ValueError):
        convolve(gaussian_kernel8, other)


def test_symbol_bounded_by_zero_mode_for_nonnegative_kernels(geo8):
    for spec in (KernelSpec.gaussian(5.0, 40.0), KernelSpec.constant(3.0),
                 KernelSpec.gaussian(0.7, 5.0)):
        kernel = sample_kernel(spec, geo8)
        assert kernel.values.min() >= 0.0
        assert kernel.symbol.max() <= kernel.conv_one * (1.0 + 1e-14)


# The Gaussian and constant kernels are sampled through their 1-D factor:
# their symbol is an outer product of 1-D transforms, checked here against
# the 2-D transform of the table.
SEPARABLE = [pytest.param(KernelSpec.gaussian(130.0, xi, images), id=f"gaussian-xi{xi:g}-images{images}")
             for xi in (10.0, 1000.0) for images in (0, 1, 3)] + [
    pytest.param(KernelSpec.constant(2.5), id="constant")]
EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("n", [8, 9, 32, 64, 128])
@pytest.mark.parametrize("spec", SEPARABLE)
def test_separable_symbol_matches_the_2d_transform_of_the_table(spec, n):
    geo = GridGeometry(n, 1.0)
    kernel = sample_kernel(spec, geo)
    reference = geo.h**2 * rfft2(kernel.values).real
    assert kernel.symbol.shape == reference.shape == (n, n // 2 + 1)
    assert np.abs(kernel.symbol - reference).max() <= 64 * EPS * np.abs(kernel.symbol).max()


@pytest.mark.parametrize("n", [8, 9, 32, 64, 128])
@pytest.mark.parametrize("spec", SEPARABLE)
def test_separable_table_is_even_bit_for_bit_and_its_mass_is_the_zero_mode(spec, n):
    geo = GridGeometry(n, 1.0)
    kernel = sample_kernel(spec, geo)
    assert np.array_equal(kernel.values, kernels._reflect(kernel.values))
    assert kernel.symbol[0, 0] == kernel.conv_one
    direct = geo.h**2 * np.sum(kernel.values)
    assert abs(kernel.conv_one - direct) <= 64 * EPS * abs(direct)


def test_separable_kernels_take_no_2d_transform(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rfft2 called while sampling a separable kernel")

    monkeypatch.setattr(kernels, "rfft2", forbidden)
    geo = GridGeometry(16, 1.0)
    for spec in (KernelSpec.gaussian(130.0, 10.0), KernelSpec.constant(2.0)):
        kernel = sample_kernel(spec, geo)
        assert kernel.symbol.shape == (16, 9) and kernel.symbol[0, 0] == kernel.conv_one


def test_tabulated_kernel_keeps_the_2d_symmetrization_and_the_evenness_check(rng, geo8, monkeypatch):
    # A table that differs from its reflection beyond rounding is rejected,
    # not replaced by its even part.  Entries near 1e300 make the difference
    # overflow: it raises all the same, with no numpy warning.
    for raw in (rng.uniform(0.0, 1.0, (8, 8)), 1e300 * rng.standard_normal((8, 8)),
                np.arange(64.0).reshape(8, 8)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"), pytest.raises(ConfigError, match="not even"):
                sample_kernel(KernelSpec.tabulated(raw), geo8)
    # An even table plus rounding-level noise samples, averaged with its reflection.
    raw = rng.uniform(0.0, 1.0, (8, 8))
    table = 0.5 * (raw + kernels._reflect(raw)) * (1.0 + 4 * EPS * rng.standard_normal((8, 8)))
    assert not np.array_equal(table, kernels._reflect(table))
    kernel = sample_kernel(KernelSpec.tabulated(table), geo8)
    assert np.array_equal(kernel.values, 0.5 * (table + kernels._reflect(table)))
    assert np.abs(kernel.symbol - geo8.h**2 * rfft2(kernel.values).real).max() <= 64 * EPS
    # Its symbol must come out real: with the 2-D reflection the identity,
    # the table passes the evenness check and fails the symbol's, while the
    # separable kernels, which never reflect in 2-D, still sample.
    monkeypatch.setattr(kernels, "_reflect", lambda values: values)
    with pytest.raises(ConfigError, match="imaginary part"):
        sample_kernel(KernelSpec.tabulated(raw), geo8)
    sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo8)
    sample_kernel(KernelSpec.constant(2.0), geo8)


def test_runs_never_build_a_separable_table(geo8):
    # The production path reads only conv_one and the symbol: a separable
    # kernel's table is built on first read, by the reference code alone.
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo8)
    cache = make_cache(geo8)
    u0 = random_initial_field(geo8, 0.0, 0.05, seed=7)
    for scheme in SCHEMES:
        cfg = SchemeConfig(scheme, 1e-4, 1.0, stabilization=5.5, cutoff=2.0)
        result = run(u0, cfg, kernel, cache, RunOptions(max_steps=3, eq_tol=1e-14))
        assert result.termination == "max_steps", result.error_detail
    assert "values" not in vars(kernel)
    assert np.array_equal(kernel.values, np.outer(*kernel._factors))
    assert not kernel.values.flags.writeable and kernel.values is kernel.values
