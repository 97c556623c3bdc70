import numpy as np
import pytest
import scipy.fft

from nchsolver import (Field, GridGeometry, KernelSpec, Model, chemical_potential,
                       equilibrium_residual, make_cache, mean, norm2, sample_kernel)
from nchsolver.oracles import (apply_symbol, dense_minus_laplacian, dense_minus_laplacian_pinv,
                               direct_dft2, laplacian_eigenvalue_formula, zero_mean)
from nchsolver.spectral import (_forward_differences, _norm2_mean_free, _norm_grad, _power,
                                laplacian_apply, laplacian_eigenvalues, norm2_modes, norm_neg1)

from conftest import DW, random_field


def _backward_differences(fx, fy, h):
    """Edge-to-center divergence of periodic edge arrays, written out for the tests."""
    return (fx - np.roll(fx, 1, axis=0)) / h + (fy - np.roll(fy, 1, axis=1)) / h


def test_gradient_of_constant_vanishes():
    geo = GridGeometry(8, 1.0)
    gx, gy = _forward_differences(np.full((8, 8), 3.2), geo.h)
    assert np.abs(gx).max() == 0.0
    assert np.abs(gy).max() == 0.0


def test_gradient_of_sine_matches_closed_form_and_stencil(geo16):
    # For phi = sin(2 pi x / L) the forward difference gives
    # (2/h) sin(pi h / L) cos(2 pi x_{i+1/2} / L) on the shifted points.
    n, h, length = geo16.n, geo16.h, geo16.length
    centres = (np.arange(n) + 0.5) * h
    x, _ = np.meshgrid(centres, centres, indexing="ij")
    phi = Field(geo16, np.sin(2 * np.pi * x / length))
    gx, _ = _forward_differences(phi.values, h)
    x_shift = x + 0.5 * h
    expected = (2.0 / h) * np.sin(np.pi * h / length) * np.cos(2 * np.pi * x_shift / length)
    assert np.abs(gx - expected).max() <= 1e-13
    # Independent stencil loop.
    direct = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            direct[i, j] = (phi.values[(i + 1) % n, j] - phi.values[i, j]) / h
    assert np.abs(gx - direct).max() == 0.0


def test_summation_by_parts_edge_pairing(rng, geo8):
    # h^2 (grad phi || f) = -h^2 (phi || div f) for arbitrary periodic edge data.
    h, h2 = geo8.h, geo8.h**2
    for _ in range(20):
        phi = random_field(geo8, rng)
        fx, fy = rng.uniform(-1, 1, (8, 8)), rng.uniform(-1, 1, (8, 8))
        gx, gy = _forward_differences(phi.values, h)
        lhs = h2 * (np.sum(gx * fx) + np.sum(gy * fy))
        rhs = -h2 * np.sum(phi.values * _backward_differences(fx, fy, h))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_summation_by_parts_identities(n, rng):
    # Both identities for the stencil and for the symbol apply the schemes use.
    geo = GridGeometry(n, 1.0)
    h, h2 = geo.h, geo.h**2
    minus_lambda = -make_cache(geo).minus_laplacian_eigenvalues
    for _ in range(25):
        phi, psi = random_field(geo, rng), random_field(geo, rng)
        grad_pair = h2 * sum(np.sum(a * b) for a, b in zip(_forward_differences(phi.values, h),
                                                            _forward_differences(psi.values, h)))
        for laplacian in (lambda f: laplacian_apply(f.values, h),
                          lambda f: apply_symbol(f, minus_lambda)):
            lap_pair = h2 * np.sum(phi.values * laplacian(psi))
            assert grad_pair == pytest.approx(-lap_pair, rel=1e-12, abs=1e-13)
            adjoint = h2 * np.sum(laplacian(phi) * psi.values)
            assert lap_pair == pytest.approx(adjoint, rel=1e-12, abs=1e-13)


def test_laplacian_is_divergence_of_gradient(rng, geo8):
    phi = random_field(geo8, rng)
    composed = _backward_differences(*_forward_differences(phi.values, geo8.h), geo8.h)
    assert np.array_equal(laplacian_apply(phi.values, geo8.h), composed)


def test_laplacian_of_constant_vanishes():
    geo = GridGeometry(8, 2.0)
    assert np.abs(laplacian_apply(np.full((8, 8), -1.4), geo.h)).max() == 0.0


def test_laplacian_output_has_zero_mean(rng, geo16):
    for _ in range(10):
        phi = random_field(geo16, rng)
        assert abs(mean(Field(geo16, laplacian_apply(phi.values, geo16.h)))) <= 1e-13 * norm2(phi)


@pytest.mark.parametrize("n", [4, 8])
def test_eigenvalue_formula_matches_dense_assembly(n):
    geo = GridGeometry(n, 1.0)
    formula = np.sort(laplacian_eigenvalues(geo).ravel())
    explicit = np.sort(laplacian_eigenvalue_formula(geo).ravel())
    dense_m = dense_minus_laplacian(geo)
    assert np.abs(dense_m - dense_m.T).max() == 0.0
    off_diagonal = np.abs(dense_m).sum(axis=1) - np.abs(np.diag(dense_m))
    assert (np.diag(dense_m) >= off_diagonal - 1e-12).all()
    dense = np.linalg.eigvalsh(dense_m)
    assert np.abs(formula - explicit).max() <= 1e-10
    assert np.abs(formula - dense).max() <= 1e-10
    # Zero is simple with the constant eigenvector.
    assert dense[0] == pytest.approx(0.0, abs=1e-10)
    assert dense[1] > 1e-6
    ones = np.ones(n * n)
    assert np.abs(dense_minus_laplacian(geo) @ ones).max() <= 1e-10


def test_fourier_mode_eigenvalue_frozen_case():
    # N = 4, L = 1, mode (k, l) = (2, 4): (2/h^2)(2 - cos(pi) - cos(2 pi)) = 64.
    geo = GridGeometry(4, 1.0)
    lam = laplacian_eigenvalues(geo)
    assert lam[2, 0] == pytest.approx(64.0, rel=1e-14)
    i, j = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    phi = Field(geo, np.cos(2 * np.pi * (2 * (i + 0.5)) / 4))
    applied = laplacian_apply(phi.values, geo.h)
    assert np.abs(applied + 64.0 * phi.values).max() <= 1e-10


def test_spectral_laplacian_matches_stencil(rng, geo16):
    cache = make_cache(geo16)
    for _ in range(10):
        phi = random_field(geo16, rng)
        stencil = laplacian_apply(phi.values, geo16.h)
        # What the schemes do: apply the stored symbol of -Lap, negated.
        spectral = apply_symbol(phi, -cache.minus_laplacian_eigenvalues)
        scale = max(np.abs(stencil).max(), 1e-30)
        assert np.abs(stencil - spectral).max() / scale <= 1e-12


def test_inverse_laplacian_zero_field(geo8, cache8):
    out = apply_symbol(Field(geo8, np.zeros((8, 8))), cache8.inverse_eigenvalues)
    assert np.abs(out).max() == 0.0


def test_inverse_laplacian_fourier_mode(geo8, cache8):
    k, l = 1, 3
    lam = laplacian_eigenvalues(geo8)[k, l]
    i, j = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    phi = Field(geo8, np.sin(2 * np.pi * (k * (i + 0.5) + l * (j + 0.5)) / 8))
    psi = apply_symbol(phi, cache8.inverse_eigenvalues)
    assert np.abs(psi - phi.values / lam).max() <= 1e-13


def test_inverse_laplacian_random_vs_dense(rng, geo8, cache8):
    pinv = dense_minus_laplacian_pinv(geo8)
    for _ in range(5):
        phi = zero_mean(random_field(geo8, rng))
        psi = Field(geo8, apply_symbol(phi, cache8.inverse_eigenvalues))
        assert abs(mean(psi)) <= 1e-13
        residual = Field(geo8, laplacian_apply(psi.values, geo8.h) + phi.values)
        assert norm2(residual) <= 1e-12 * norm2(phi)
        expected = pinv @ phi.values.ravel()
        assert np.abs(psi.values.ravel() - expected).max() <= 1e-10 * max(np.abs(expected).max(), 1e-30)


@pytest.mark.parametrize("n", [7, 8])
def test_half_spectrum_operators_match_dense(n, rng):
    # rfft2 keeps columns 0..N/2; only even N has a Nyquist column among them.
    geo = GridGeometry(n, 1.0)
    cache = make_cache(geo)
    assert cache.minus_laplacian_eigenvalues.shape == (n, n // 2 + 1)
    assert np.array_equal(cache.minus_laplacian_eigenvalues,
                          laplacian_eigenvalues(geo)[:, : n // 2 + 1])
    pinv = dense_minus_laplacian_pinv(geo)
    for _ in range(5):
        phi = zero_mean(random_field(geo, rng))
        vec = phi.values.ravel()
        expected = pinv @ vec
        psi = apply_symbol(phi, cache.inverse_eigenvalues)
        assert np.abs(psi.ravel() - expected).max() <= 1e-10 * np.abs(expected).max()
        assert norm_neg1(phi.spectrum, cache) == pytest.approx(
            np.sqrt(geo.h**2 * (vec @ expected)), rel=1e-10)
        # The stencil, the reference for the symbol applies, against the dense matrix.
        stencil = laplacian_apply(phi.values, geo.h)
        assert np.abs(stencil.ravel() + dense_minus_laplacian(geo) @ vec).max() \
            <= 1e-12 * np.abs(stencil).max()
        spectral = apply_symbol(phi, -cache.minus_laplacian_eigenvalues)
        assert np.abs(stencil - spectral).max() <= 1e-12 * np.abs(stencil).max()


@pytest.mark.parametrize("n", [7, 8])
def test_parseval_norms_equal_their_grid_definitions(n, rng):
    # The record's norms of omega and the equilibrium defect, taken from half
    # spectra, against the grid sums they stand for; odd N has no Nyquist
    # column, so every column but 0 counts twice.
    geo = GridGeometry(n, 1.0)
    cache = make_cache(geo)
    model = Model(sample_kernel(KernelSpec.gaussian(130.0, 10.0), geo), cache, 1.0, DW)
    close = lambda actual, expected: actual == pytest.approx(
        expected, rel=64 * np.finfo(np.float64).eps, abs=0.0)
    for _ in range(5):
        omega = Field(geo, random_field(geo, rng).values + 0.3)
        u = random_field(geo, rng, 0.05)
        gx, gy = _forward_differences(omega.values, geo.h)
        variance = norm2(zero_mean(omega))
        defect = norm2(Field(geo, omega.values - chemical_potential(u, model).values))
        assert close(_norm2_mean_free(_power(omega.spectrum), geo.h), variance)
        grad = geo.h * np.sqrt(np.sum(gx * gx) + np.sum(gy * gy))
        assert close(_norm_grad(_power(omega.spectrum), cache), grad)
        assert close(norm2_modes(omega.spectrum, geo.h), norm2(omega))
        assert close(equilibrium_residual(u, omega, model), max(variance, defect))


def test_inverse_laplacian_drops_the_constant_mode(rng, geo8, cache8):
    # No zero-mean precondition: the inverse symbol is 0 at the constant
    # mode, so a field and its zero-mean part have the same inverse.
    phi = Field(geo8, random_field(geo8, rng).values + 0.3)
    psi = apply_symbol(phi, cache8.inverse_eigenvalues)
    psi0 = apply_symbol(zero_mean(phi), cache8.inverse_eigenvalues)
    assert np.abs(psi - psi0).max() <= 1e-13 * np.abs(psi0).max()
    ones = Field(geo8, np.ones((8, 8)))
    assert np.abs(apply_symbol(ones, cache8.inverse_eigenvalues)).max() <= 1e-15


def test_dft_delta_and_constant():
    # The production transform: scipy.fft.rfft2, columns 0..N/2 of the full DFT.
    for n in (7, 8):
        delta = np.zeros((n, n))
        delta[0, 0] = 1.0
        modes = scipy.fft.rfft2(delta)
        assert modes.shape == (n, n // 2 + 1)
        assert np.abs(np.abs(modes) - 1.0).max() <= 1e-14
        modes_const = scipy.fft.rfft2(np.ones((n, n)))
        assert modes_const[0, 0] == pytest.approx(float(n * n))
        off = np.abs(modes_const).copy()
        off[0, 0] = 0.0
        assert off.max() <= 1e-12


def test_dft_roundtrip_and_direct_oracle(rng):
    for n in (7, 8):  # odd N: the half spectrum has no Nyquist column
        values = random_field(GridGeometry(n, 1.0), rng).values
        modes = scipy.fft.rfft2(values)
        direct = direct_dft2(values)
        assert np.abs(modes - direct[:, : n // 2 + 1]).max() <= 1e-12 * np.abs(direct).max()
        back = scipy.fft.irfft2(modes, s=values.shape)
        assert np.abs(back - values).max() <= 1e-13
        # Hermitian symmetry of real input: the dropped columns are mirrored conjugates.
        conj_flip = np.conj(np.roll(direct[::-1, ::-1], 1, axis=(0, 1)))
        assert np.abs(direct - conj_flip).max() <= 1e-10
