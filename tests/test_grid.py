from pathlib import Path

import numpy as np
import pytest
import scipy.fft

from nchsolver import (Field, GridGeometry, KernelSpec,
                       SchemeConfig, SchemeState, advance, grid, make_cache, mean, norm2,
                       sample_kernel, steppers)
from nchsolver.oracles import dense_minus_laplacian_pinv, naive_mean, naive_norm2, zero_mean
from nchsolver.spectral import laplacian_eigenvalues, norm_neg1

from conftest import random_field


def test_geometry_basics():
    geo = GridGeometry(4, 2.0)
    assert geo.h == 0.5
    assert geo.area == 4.0
    with pytest.raises(ValueError):
        GridGeometry(1, 1.0)
    with pytest.raises(ValueError):
        GridGeometry(4, -1.0)


def test_geometry_rejects_lengths_whose_squares_leave_the_float_range():
    # L^2 (the area), h^2 and the Laplacian's 8/h^2 must stay finite and positive.
    for length in (1e308, 1e200, 1e-200):
        with pytest.raises(ValueError, match="out of range"):
            GridGeometry(4, length)
    GridGeometry(4, 1e150)
    GridGeometry(4, 1e-150)


def test_field_spectrum_is_the_read_only_rfft2_of_its_values(rng, geo8):
    for geometry in (geo8, GridGeometry(7, 1.0)):
        phi = random_field(geometry, rng)
        spectrum = phi.spectrum
        assert spectrum.shape == (geometry.n, geometry.n // 2 + 1)
        assert np.array_equal(spectrum, scipy.fft.rfft2(phi.values))  # bit for bit
        assert phi.spectrum is spectrum  # transformed once
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0, 0] = 0.0


@pytest.mark.parametrize("n", [*range(2, 65), 96, 100, 127, 256, 257])
def test_transform_pair_is_scipy_fft_bit_for_bit(n):
    # The package's own pair, from numpy.fft, gives scipy.fft's bits both
    # ways, for odd and even N, a real field's spectrum and any other half
    # spectrum, and the inverse with or without a work array.
    rng = np.random.default_rng(n)
    values = rng.uniform(-1.0, 1.0, size=(n, n))
    modes = grid._freeze(grid.rfft2(values))
    assert np.array_equal(modes, scipy.fft.rfft2(values))
    scaled = grid._freeze(modes * rng.uniform(0.5, 2.0, size=modes.shape))
    for spectrum in (modes, scaled):
        expected = scipy.fft.irfft2(spectrum, s=(n, n))
        assert np.array_equal(grid.irfft2(spectrum), expected)
        assert np.array_equal(grid.irfft2(spectrum, np.empty_like(spectrum)), expected)


def test_field_from_spectrum_computes_its_values_once(rng, geo8):
    for geometry in (geo8, GridGeometry(7, 1.0)):
        values = random_field(geometry, rng).values
        modes = scipy.fft.rfft2(values)
        phi = Field(geometry, spectrum=modes)
        assert phi.spectrum is not modes  # a writeable caller array is copied
        assert np.array_equal(phi.spectrum, modes)
        first = phi.values
        assert np.array_equal(first, scipy.fft.irfft2(modes, s=values.shape))  # bit for bit
        assert phi.values is first  # transformed once
        assert not first.flags.writeable and not phi.spectrum.flags.writeable
        assert mean(phi) == pytest.approx(mean(Field(geometry, values)), abs=1e-15)
        frozen = grid._freeze(modes.copy())
        assert Field(geometry, spectrum=frozen).spectrum is frozen  # adopted, no copy


def test_field_from_spectrum_checks_the_spectrum(geo8):
    with pytest.raises(ValueError, match="shape"):
        Field(geo8, spectrum=np.zeros((8, 8), dtype=complex))
    modes = np.zeros((8, 5), dtype=complex)
    modes[1, 1] = complex(np.inf, 0.0)
    with pytest.raises(ValueError, match="spectrum must be finite"):
        Field(geo8, spectrum=modes)


def test_field_needs_its_values_or_its_spectrum(geo8):
    with pytest.raises(ValueError, match="values, its spectrum or both"):
        Field(geo8)


def test_field_rejects_nonfinite():
    geo = GridGeometry(4, 1.0)
    values = np.zeros((4, 4))
    values[1, 1] = np.nan
    with pytest.raises(ValueError):
        Field(geo, values)


def test_field_is_immutable_and_wraps():
    geo = GridGeometry(4, 1.0)
    f = Field(geo, np.arange(16.0).reshape(4, 4))
    with pytest.raises(ValueError):
        f.values[0, 0] = 7.0


def test_field_copies_a_writeable_caller_array():
    geo = GridGeometry(4, 1.0)
    arr = np.arange(16.0).reshape(4, 4)
    f = Field(geo, arr)
    arr[0, 0] = -1.0
    assert f.values[0, 0] == 0.0
    assert arr.flags.writeable
    assert not f.values.flags.writeable


@pytest.mark.parametrize("scheme", steppers.SCHEMES)
def test_step_levels_are_read_only_and_adopted_without_copy(scheme, rng, monkeypatch):
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo)
    cfg = SchemeConfig(scheme, 2e-3, 1.0, stabilization=5.5, cutoff=2.0)
    frozen = []

    def recording_freeze(values):
        frozen.append(values)
        return grid._freeze(values)

    monkeypatch.setattr(steppers, "_freeze", recording_freeze)
    u = zero_mean(random_field(geo, rng, 0.05))
    state = SchemeState(u=u, u_prev=u if scheme in steppers.TWO_STEP_SCHEMES else None)
    result, _ = advance(state, cfg, cfg.model(kernel, make_cache(geo)))
    assert not result.u.values.flags.writeable
    assert not result.omega.spectrum.flags.writeable
    assert not result.omega.values.flags.writeable
    # The fields hold the very arrays the step froze last, u its values and
    # spectrum and omega its spectrum (the operator's symbols are frozen
    # before them): no copy was made.
    assert result.u.values is frozen[-3]
    assert result.u.spectrum is frozen[-2]
    assert result.omega.spectrum is frozen[-1]


def test_mean_and_projection_constant():
    geo = GridGeometry(8, 1.0)
    c = Field(geo, np.full((8, 8), 0.7))
    assert mean(c) == pytest.approx(0.7, rel=1e-15)
    assert np.abs(zero_mean(c).values).max() <= 1e-15


def test_projection_fixes_zero_mean_sine(geo16):
    centres = (np.arange(geo16.n) + 0.5) * geo16.h
    x, y = np.meshgrid(centres, centres, indexing="ij")
    phi = Field(geo16, np.sin(2 * np.pi * x))
    projected = zero_mean(phi)
    assert np.abs(projected.values - phi.values).max() <= 1e-15


def test_mean_matches_naive_oracle(rng, geo16):
    phi = random_field(geo16, rng)
    assert mean(phi) == pytest.approx(naive_mean(phi.values), rel=1e-13)


def test_mean_reduces_each_field_once(monkeypatch, rng, geo8):
    calls = []
    reduce = grid._reduce

    def counting(values):
        calls.append(values.shape)
        return reduce(values)

    monkeypatch.setattr(grid, "_reduce", counting)
    phi = random_field(geo8, rng)
    first = mean(phi)
    assert mean(phi) == first == reduce(phi.values) / 64
    assert len(calls) == 1
    mean(random_field(geo8, rng))
    assert len(calls) == 2


def test_reduce_is_the_one_summation_rule():
    # Outside the independent references, no module sums in long double.
    package = Path(grid.__file__).parent
    sites = [path.name for path in package.glob("*.py")
             if path.name not in ("oracles.py", "verify.py") and "longdouble" in path.read_text()]
    assert sites == []


def test_reduce_is_numpys_float64_sum(rng):
    # sum(a) = 1 + 2^-53 rounds to 1 in float64: _reduce keeps no wider partial sum.
    a = np.array([1.0, 2.0**-53])
    assert grid._reduce(a) == float(np.sum(a)) == 1.0
    values = rng.standard_normal((64, 64))
    assert grid._reduce(values) == float(np.sum(values))


def test_projection_idempotent(rng, geo8):
    phi = random_field(geo8, rng)
    once = zero_mean(phi)
    twice = zero_mean(once)
    assert np.abs(twice.values - once.values).max() <= 1e-15


def test_norms_of_ones_are_one():
    for n in (4, 8, 16):
        ones = Field(GridGeometry(n, 1.0), np.ones((n, n)))
        assert norm2(ones) == pytest.approx(1.0, rel=1e-14)


def test_norms_match_naive_oracle(rng, geo8):
    phi = random_field(geo8, rng)
    assert norm2(phi) == pytest.approx(naive_norm2(phi.values, geo8.h), rel=1e-13)


def test_norm2_squares_to_weighted_inner_product(rng, geo8):
    phi = random_field(geo8, rng)
    assert norm2(phi) ** 2 == pytest.approx(geo8.h**2 * np.sum(phi.values * phi.values), rel=1e-14)


def test_norm_neg1_zero_field(geo8, cache8):
    assert norm_neg1(Field(geo8, np.zeros((8, 8))).spectrum, cache8) == 0.0


def test_norm_neg1_fourier_mode(geo8, cache8):
    k, l = 2, 1
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    phi = Field(geo8, np.cos(2 * np.pi * (k * (i + 0.5) + l * (j + 0.5)) / 8))
    lam = laplacian_eigenvalues(geo8)[k, l]
    assert norm_neg1(phi.spectrum, cache8) ** 2 == pytest.approx(norm2(phi) ** 2 / lam, rel=1e-12)


def test_norm_neg1_matches_dense_pinv(rng, geo8, cache8):
    pinv = dense_minus_laplacian_pinv(geo8)
    for _ in range(5):
        phi = zero_mean(random_field(geo8, rng))
        vec = phi.values.ravel()
        expected = np.sqrt(geo8.h**2 * float(vec @ (pinv @ vec)))
        assert norm_neg1(phi.spectrum, cache8) == pytest.approx(expected, rel=1e-10)


def test_norm_neg1_measures_the_zero_mean_part(rng, geo8, cache8):
    # The constant mode has weight 0: no precondition, the mean is ignored.
    assert norm_neg1(Field(geo8, np.full((8, 8), 0.5)).spectrum, cache8) == 0.0
    phi = Field(geo8, random_field(geo8, rng).values + 0.3)
    assert norm_neg1(phi.spectrum, cache8) == pytest.approx(
        norm_neg1(zero_mean(phi).spectrum, cache8), rel=1e-13)


def test_norm_neg1_bounded_by_smallest_positive_eigenvalue(rng, geo8, cache8):
    lam = laplacian_eigenvalues(geo8)
    lam_min = lam[lam > 0].min()
    for _ in range(20):
        phi = zero_mean(random_field(geo8, rng))
        assert norm_neg1(phi.spectrum, cache8) <= norm2(phi) / np.sqrt(lam_min) * (1 + 1e-12)
