"""Sampling of interaction kernels and the discrete periodic convolution.

A continuous, even, periodic interaction kernel is restricted to the grid
vertices (i*h, j*h) and enters the model through the discrete convolution

    [J (*) phi]_{i,j} = h^2 sum_{k,l} J_{k,l} phi_{i-k, j-l}   (periodic wrap),

a circulant operator that is diagonal in the DFT basis with the real symbol
j_hat = h^2 * DFT2(J), stored and applied on the half spectrum of real
transforms (see :mod:`nchsolver.spectral`).  The scalar [J (*) 1] = h^2 sum J
(the zero mode of the symbol) plays the role of the kernel mass; the model is
positive diffusive when gamma0 = eps^2 [J (*) 1] - 1 > 0.

The model uses the kernel only through the nonnegative nonlocal operator
eps^2 ([J(*)1] phi - [J (*) phi]).  The production path (schemes, chemical
potential, energy, admissibility check) applies it only through its
half-spectrum symbol G = eps^2 ([J(*)1] - j_hat), which ``energetics.Model``
forms once per run from ``conv_one`` and ``symbol``, together with gamma0;
the oracle suite compares G mode by mode with the closed-form eigenvalues.
``convolve`` (a ``Field`` wrapper of ``convolve_values``, which multiplies
``rfft2`` of the values by ``symbol``) is the reference for the convolution
itself, with no production caller, which the tests and the oracle suite
import from here.

Supported kernels: a periodized Gaussian c * exp(-xi |x|^2) (folded over a
configurable number of image cells), a constant kernel, and tabulated
vertex values as an escape hatch.  Singular kernels (Newtonian or
logarithmic) are excluded: the scheme analysis assumes smooth periodic
kernels.  Sampled values are symmetrized so evenness under index negation
holds exactly in floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import irfft2, rfft2

from .errors import ConfigError
from .grid import Field, GridGeometry, _reduce, require_same_geometry

KERNEL_VARIANTS = ("gaussian", "constant", "tabulated")

# Image shifts folded into the periodized Gaussian by default; the tail
# beyond 3 domain widths is below double precision for the default decay.
DEFAULT_IMAGES = 3


@dataclass(frozen=True)
class KernelSpec:
    """Description of a continuous interaction kernel.

    ``amplitude`` is the kernel prefactor (the constant value for the
    constant variant), ``decay_rate`` the Gaussian exponent, ``images`` the
    number of periodic image shifts folded in per direction.
    """

    variant: str
    amplitude: float = 1.0
    decay_rate: float = 1.0
    images: int = DEFAULT_IMAGES
    table: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ConfigError(f"unknown kernel variant {self.variant!r}; expected one of {KERNEL_VARIANTS}")
        if self.variant in ("gaussian", "constant") and not self.amplitude > 0.0:
            raise ConfigError(f"kernel amplitude must be positive, got {self.amplitude}")
        if self.variant == "gaussian" and not self.decay_rate > 0.0:
            raise ConfigError(f"kernel decay rate must be positive, got {self.decay_rate}")
        if self.images < 0:
            raise ConfigError(f"kernel image count must be >= 0, got {self.images}")
        if self.variant == "tabulated":
            if self.table is None:
                raise ConfigError("tabulated kernel requires a table of vertex values")
            table = np.asarray(self.table, dtype=np.float64)
            if table.ndim != 2 or table.shape[0] != table.shape[1]:
                raise ConfigError(f"tabulated kernel must be a square array, got shape {table.shape}")
            if not np.isfinite(table).all():
                raise ConfigError("tabulated kernel values must be finite")
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @classmethod
    def gaussian(cls, amplitude: float, decay_rate: float, images: int = DEFAULT_IMAGES) -> "KernelSpec":
        return cls("gaussian", amplitude=amplitude, decay_rate=decay_rate, images=images)

    @classmethod
    def constant(cls, value: float) -> "KernelSpec":
        return cls("constant", amplitude=value)

    @classmethod
    def tabulated(cls, values) -> "KernelSpec":
        return cls("tabulated", table=np.array(values, dtype=np.float64))


@dataclass(frozen=True)
class SampledKernel:
    """Vertex-centered grid restriction of an interaction kernel.

    ``values[a, b]`` is the kernel at the vertex (a*h, b*h); ``conv_one``
    the scalar [J (*) 1] = h^2 sum J; ``symbol`` the real DFT symbol of the
    convolution operator on the half spectrum, the N x (N/2+1) modes of
    ``rfft2`` (zero mode equals ``conv_one`` exactly).
    Immutable and shareable across threads; convolution is a pure function.
    """

    geometry: GridGeometry
    values: np.ndarray = field(repr=False)
    conv_one: float
    symbol: np.ndarray = field(repr=False)

    def __post_init__(self):
        for name in ("values", "symbol"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _reflect(values: np.ndarray) -> np.ndarray:
    """Index negation (a, b) -> (-a, -b) under periodic wrap."""
    return np.roll(values[::-1, ::-1], 1, axis=(0, 1))


def sample_kernel(spec: KernelSpec, geometry: GridGeometry) -> SampledKernel:
    """Restrict a kernel to the grid vertices and precompute its symbol.

    Gaussian kernels are periodized by summing over ``spec.images`` image
    cells per direction.  Sampled values are symmetrized (averaged with
    their reflection) so the evenness hypothesis of the convolution
    identities holds exactly despite floating-point sampling.
    """
    n, length = geometry.n, geometry.length
    if spec.variant == "constant":
        values = np.full((n, n), spec.amplitude)
    elif spec.variant == "gaussian":
        vx, _ = geometry.vertex_coords()
        shifts = np.arange(-spec.images, spec.images + 1) * length
        # 1D factor e^{-xi x^2} periodized, then the tensor product.
        fold = np.exp(-spec.decay_rate * (vx[:, None] - shifts[None, :]) ** 2).sum(axis=1)
        values = spec.amplitude * np.outer(fold, fold)
    else:
        if spec.table.shape != (n, n):
            raise ConfigError(
                f"tabulated kernel shape {spec.table.shape} does not match grid ({n}, {n})"
            )
        values = np.array(spec.table)

    values = 0.5 * (values + _reflect(values))
    conv_one = geometry.h**2 * _reduce(values)
    # Even and real: the half spectrum from rfft2 holds every value of the symbol.
    symbol = geometry.h**2 * rfft2(values)
    scale = np.abs(symbol.real).max()
    if scale > 0.0 and np.abs(symbol.imag).max() > 1e-12 * scale:
        raise ConfigError("kernel symbol has a non-negligible imaginary part; kernel is not even")
    symbol = symbol.real.copy()
    symbol[0, 0] = conv_one
    return SampledKernel(geometry, values, conv_one, symbol)


def convolve(kernel: SampledKernel, phi: Field) -> Field:
    """Discrete periodic convolution [J (*) phi], via the DFT symbol."""
    require_same_geometry(kernel, phi)
    return Field(phi.geometry, convolve_values(kernel, phi.values))


def convolve_values(kernel: SampledKernel, values: np.ndarray) -> np.ndarray:
    """Array-level convolution [J (*) phi] of the values of phi."""
    return irfft2(rfft2(values) * kernel.symbol, s=values.shape)
