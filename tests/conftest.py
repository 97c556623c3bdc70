import numpy as np
import pytest

from nchsolver import (Field, GridGeometry, KernelSpec, Model, PotentialSpec, SchemeState, energy,
                       make_cache, norm2, sample_kernel)
from nchsolver.fieldio import read_checkpoint, write_checkpoint
from nchsolver.spectral import norm_neg1

DW = PotentialSpec("double_well")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def geo8():
    return GridGeometry(8, 1.0)


@pytest.fixture
def geo16():
    return GridGeometry(16, 1.0)


@pytest.fixture
def cache8(geo8):
    return make_cache(geo8)


@pytest.fixture
def gaussian_kernel8(geo8):
    return sample_kernel(KernelSpec.gaussian(12.5, 10.0), geo8)


def negative_gap_table():
    """8 x 8 kernel values with [J (*) 1] = 2 on the unit square, whose gap [J(*)1] - j_hat is -4 where k + l is odd."""
    table = np.zeros((8, 8))
    table[0, 0], table[4, 4] = 256.0, -128.0
    return table


def random_field(geometry, rng, scale=1.0):
    return Field(geometry, scale * rng.uniform(-1.0, 1.0, size=(geometry.n, geometry.n)))


def model_of(kernel, epsilon, spec, cache=None):
    """The ``Model`` of a kernel, eps and potential, on ``cache`` or a fresh one of the kernel's grid."""
    return Model(kernel, make_cache(kernel.geometry) if cache is None else cache, epsilon, spec)


def recomposed_modified_energy(u, du, tau, model, beta=0.0):
    """E(u) + ||du||_{-1}^2 / (4 tau) + (beta/2) ||du||_2^2 from the Field-level functionals.

    The two-step modified energy (beta = 0 for bdf2, the curvature bound for
    two_li) by a path independent of ``steppers.modified_energy``, which the
    records and that function are checked against.
    """
    return energy(u, model) + norm_neg1(du.spectrum, model.cache) ** 2 / (4.0 * tau) \
        + 0.5 * beta * norm2(du) ** 2


def overflowing_checkpoint_state(tmp_path):
    """A state read back from a checkpoint, so without omega: an 8 x 8 level of +-1e110.

    Its chemical potential overflows.  Returns the state, and the Gaussian
    kernel (cJ 130, xi 10) and the cache of its grid.
    """
    geometry = GridGeometry(8, 1.0)
    signs = np.where(np.indices((8, 8)).sum(axis=0) % 2 == 0, 1.0, -1.0)
    path = tmp_path / "state.nchk"
    write_checkpoint(path, SchemeState(u=Field(geometry, 1e110 * signs), step_index=3, time=3e-4))
    kernel = sample_kernel(KernelSpec.gaussian(130.0, 10.0), geometry)
    return read_checkpoint(path), kernel, make_cache(geometry)
