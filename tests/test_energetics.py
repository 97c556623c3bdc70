import numpy as np
import pytest

from nchsolver import (ConfigError, Field, GeometryMismatchError, GridGeometry, KernelSpec, Model,
                       PotentialSpec, SchemeConfig, chemical_potential, energy, make_cache, norm2,
                       potential_d1, potential_d2, potential_value, sample_kernel)
from nchsolver.oracles import dense_nonlocal_matrix, naive_energy, zero_mean
from nchsolver.spectral import norm_neg1
from nchsolver.steppers import modified_energy

from conftest import DW, model_of, random_field, recomposed_modified_energy


def test_double_well_values():
    assert potential_value(DW, 1.0) == 0.0
    assert potential_value(DW, -1.0) == 0.0
    assert potential_value(DW, 0.0) == 0.25
    assert potential_d1(DW, 0.0) == 0.0
    assert potential_d2(DW, 0.0) == -1.0


def test_truncated_requires_cutoff_above_one():
    with pytest.raises(ConfigError):
        PotentialSpec("truncated", 1.0)
    with pytest.raises(ConfigError):
        PotentialSpec("truncated")


def test_unknown_potential_is_a_config_error():
    with pytest.raises(ConfigError, match="unknown potential 'quartic'"):
        PotentialSpec("quartic")


@pytest.mark.parametrize("k", [1.5, 2.0, 5.0])
def test_truncated_branches_join_smoothly(k):
    spec = PotentialSpec("truncated", k)
    # Value continuity is an algebraic identity: outer branch at K equals (K^2-1)^2/4.
    assert potential_value(spec, k) == pytest.approx(0.25 * (k**2 - 1.0) ** 2, abs=1e-12)
    for s in (k, -k):
        for f, tol in ((potential_value, 1e-12), (potential_d1, 1e-12), (potential_d2, 1e-5)):
            below = f(spec, np.nextafter(s, -np.inf))
            above = f(spec, np.nextafter(s, np.inf))
            assert float(above) == pytest.approx(float(below), abs=max(tol, 1e-12))


def test_truncated_matches_double_well_inside():
    spec = PotentialSpec("truncated", 2.0)
    r = np.linspace(-2.0, 2.0, 101)
    assert np.abs(potential_value(spec, r) - potential_value(DW, r)).max() == 0.0
    assert np.abs(potential_d1(spec, r) - potential_d1(DW, r)).max() == 0.0


def test_truncated_potential_inside_the_cutoff_is_the_double_well_bit_for_bit(rng):
    # No entry beyond K, two of them at exactly -K and K: F_K, F_K' and F_K''
    # are the double-well polynomials, bit for bit.
    spec = PotentialSpec("truncated", 2.0)
    r = rng.uniform(-2.0, 2.0, (16, 16))
    r[0, 0], r[5, 7] = -2.0, 2.0
    for f in (potential_value, potential_d1, potential_d2):
        assert np.array_equal(f(spec, r), f(DW, r))


def test_truncated_potential_takes_its_quadratic_branch_only_beyond_the_cutoff(rng):
    # One entry at exactly K keeps the polynomial; the one beyond K takes the
    # quadratic continuation, written out here from K and beta = 3 K^2 - 1.
    k, beta = 2.0, 11.0
    spec = PotentialSpec("truncated", k)
    r = rng.uniform(-1.0, 1.0, (8, 8))
    r[1, 2], r[3, 4] = -k, 2.5
    beyond = np.zeros(r.shape, dtype=bool)
    beyond[3, 4] = True
    quadratic = {potential_value: 0.5 * beta * 2.5**2 - 2.0 * k**3 * 2.5 + 0.25 * (3.0 * k**4 + 1.0),
                 potential_d1: beta * 2.5 - 2.0 * k**3,
                 potential_d2: beta}
    for f, outer in quadratic.items():
        got, polynomial = f(spec, r), f(DW, r)
        assert np.array_equal(got[~beyond], polynomial[~beyond])
        assert got[3, 4] == pytest.approx(outer, rel=1e-15)
        assert got[3, 4] != pytest.approx(polynomial[3, 4], rel=1e-3)


def test_truncated_potential_keeps_a_nan_entry(rng):
    # A NaN fails the range check, and the masked path leaves it NaN; the
    # other entries, one beyond K among them, are as without it.
    spec = PotentialSpec("truncated", 2.0)
    for far in (1.5, 3.0):
        r = rng.uniform(-1.0, 1.0, (8, 8))
        r[0, 1] = far
        clean = {f: f(spec, r) for f in (potential_value, potential_d1, potential_d2)}
        r[2, 3] = np.nan
        for f, expected in clean.items():
            got = f(spec, r)
            assert np.isnan(got[2, 3])
            got[2, 3] = expected[2, 3]
            assert np.array_equal(got, expected)


def test_truncated_curvature_bound_attained():
    spec = PotentialSpec("truncated", 2.0)
    samples = np.linspace(-6.0, 6.0, 1_000_001)
    curvature = np.abs(potential_d2(spec, samples))
    assert curvature.max() == pytest.approx(11.0, abs=1e-12)
    assert spec.curvature_bound == pytest.approx(11.0)


def test_energy_of_constant_is_area_times_potential(geo8, gaussian_kernel8, cache8):
    model = Model(gaussian_kernel8, cache8, 1.0, DW)
    for c in (0.0, 0.4, -1.0):
        u = Field(geo8, np.full((8, 8), c))
        expected = geo8.area * float(potential_value(DW, c))
        assert energy(u, model) == pytest.approx(expected, abs=1e-12)


def test_model_builds_the_nonlocal_symbol_and_gamma0_once(geo8, gaussian_kernel8, cache8):
    eps2 = 0.8**2
    model = Model(gaussian_kernel8, cache8, 0.8, DW)
    assert np.array_equal(model.gap, eps2 * (gaussian_kernel8.conv_one - gaussian_kernel8.symbol))
    assert model.gap[0, 0] == 0.0
    assert not model.gap.flags.writeable
    assert model.gamma0 == eps2 * gaussian_kernel8.conv_one - 1.0
    assert model.cache.geometry == geo8


def test_model_rejects_kernel_and_cache_on_different_grids(gaussian_kernel8):
    with pytest.raises(GeometryMismatchError):
        Model(gaussian_kernel8, make_cache(GridGeometry(16, 1.0)), 1.0, DW)


def test_energy_rejects_a_field_on_another_grid(gaussian_kernel8, cache8):
    model = Model(gaussian_kernel8, cache8, 1.0, DW)
    with pytest.raises(GeometryMismatchError):
        energy(Field(GridGeometry(16, 1.0), np.zeros((16, 16))), model)


def test_energy_of_zero_field_is_quarter_area():
    geo = GridGeometry(8, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
    u = Field(geo, np.zeros((8, 8)))
    assert energy(u, model_of(kernel, 1.0, DW)) == pytest.approx(0.25, rel=1e-14)


@pytest.mark.parametrize("n", [7, 8])
def test_energy_matches_naive_oracle(n, rng):
    # The Parseval sum runs over the half spectrum; only even N has a Nyquist column.
    geo = GridGeometry(n, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
    for spec in (DW, PotentialSpec("truncated", 2.0)):
        model = model_of(kernel, 0.8, spec)
        for _ in range(5):
            u = random_field(geo, rng)
            fast = energy(u, model)
            slow = naive_energy(u.values, kernel, 0.8, spec)
            assert fast == pytest.approx(slow, rel=1e-12)


def test_energy_lower_bound(rng, geo8, gaussian_kernel8, cache8):
    # E(u) >= ||u||_2^2 / 2 - 3 |Omega| / 4 for nonnegative kernels.
    model = Model(gaussian_kernel8, cache8, 1.0, DW)
    for _ in range(1000):
        u = random_field(geo8, rng, scale=2.0)
        e = energy(u, model)
        assert e >= 0.5 * norm2(u) ** 2 - 0.75 * geo8.area - 1e-10


def test_chemical_potential_is_energy_gradient(rng, gaussian_kernel8, geo8, cache8):
    # Central finite differences of the energy match the potential field.
    model = Model(gaussian_kernel8, cache8, 1.0, DW)
    u = random_field(geo8, rng)
    omega = chemical_potential(u, model)
    step = 1e-5
    rng_idx = np.random.default_rng(5)
    for _ in range(12):
        i, j = rng_idx.integers(0, geo8.n, size=2)
        bumped = u.values.copy()
        bumped[i, j] += step
        plus = energy(Field(geo8, bumped), model)
        bumped[i, j] -= 2 * step
        minus = energy(Field(geo8, bumped), model)
        fd = (plus - minus) / (2 * step) / geo8.h**2
        assert fd == pytest.approx(omega.values[i, j], abs=1e-6)


@pytest.mark.parametrize("n", [7, 8])
def test_chemical_potential_matches_dense_operator(n, rng):
    # The half-spectrum symbol against the dense matrix of [J(*)1] u - [J (*) u],
    # with and without the Nyquist column.
    geo = GridGeometry(n, 1.0)
    kernel = sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo)
    dense = dense_nonlocal_matrix(kernel)
    u = random_field(geo, rng, scale=2.0)
    for spec in (DW, PotentialSpec("truncated", 1.5)):
        omega = chemical_potential(u, model_of(kernel, 0.8, spec))
        expected = potential_d1(spec, u.values).ravel() + 0.64 * (dense @ u.values.ravel())
        assert np.abs(omega.values.ravel() - expected).max() <= 1e-12


def test_modified_energy_reduces_to_energy_at_zero_increment(geo8, gaussian_kernel8, cache8):
    u = Field(geo8, np.full((8, 8), 0.2))
    du = Field(geo8, np.zeros((8, 8)))
    for scheme, cutoff in (("bdf2", 2.0), ("two_li", 2.0)):
        cfg = SchemeConfig(scheme, 0.5, 1.0, cutoff=cutoff, stability_policy="ignore")
        model = cfg.model(gaussian_kernel8, cache8)
        base = energy(u, model)
        assert modified_energy(cfg, model, base, norm_neg1(du.spectrum, cache8), norm2(du)) == base
        beta = 3 * cutoff**2 - 1
        assert recomposed_modified_energy(u, du, 0.5, model, beta) == pytest.approx(base)


def test_modified_energy_increment_term_scales_with_tau(rng, geo8, gaussian_kernel8, cache8):
    u = random_field(geo8, rng)
    du = zero_mean(random_field(geo8, rng, scale=0.1))
    tau = 0.25
    model = Model(gaussian_kernel8, cache8, 1.0, DW)
    e = energy(u, model)
    norms = (norm_neg1(du.spectrum, cache8), norm2(du))
    m1 = modified_energy(SchemeConfig("bdf2", tau, 1.0), model, e, *norms)
    m2 = modified_energy(SchemeConfig("bdf2", 2 * tau, 1.0), model, e, *norms)
    assert m2 - e == pytest.approx(0.5 * (m1 - e), rel=1e-12)


def test_modified_energy_recomposition(rng, geo8, gaussian_kernel8, cache8):
    u = random_field(geo8, rng)
    du = zero_mean(random_field(geo8, rng, scale=0.3))
    tau = 0.1
    cfg = SchemeConfig("two_li", tau, 1.0, cutoff=1.5, stability_policy="ignore")
    beta = 3 * 1.5**2 - 1
    model = cfg.model(gaussian_kernel8, cache8)
    e = energy(u, model)
    expected = e + norm_neg1(du.spectrum, cache8) ** 2 / (4 * tau) + 0.5 * beta * norm2(du) ** 2
    actual = modified_energy(cfg, model, e, norm_neg1(du.spectrum, cache8), norm2(du))
    assert actual == pytest.approx(expected, rel=1e-13)
    # bdf2 drops the (beta/2) ||du||^2 term: the plain two-step modified energy.
    assert modified_energy(SchemeConfig("bdf2", tau, 1.0, potential_variant="truncated", cutoff=1.5),
                           model, e, norm_neg1(du.spectrum, cache8), norm2(du)) \
        == pytest.approx(recomposed_modified_energy(u, du, tau, model))
