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
holds exactly in floating point; a tabulated table must already be even
up to rounding, and one that is not is rejected.

The Gaussian and constant kernels are tensor products J(x, y) = A f(x) f(y),
so they are sampled through the 1-D factor f, made exactly even in 1-D:
[J (*) 1] = h^2 A (sum f)^2 and j_hat = h^2 A F (x) F on the half
spectrum, with F the 1-D transform of f (``scipy.fft.fft``, real for an
even factor), and the table is the outer product of A f and f, built only
when read (the oracles read it; the production path does not).  Set-up
then takes one 1-D transform, no 2-D one and no N x N table.  A tabulated
kernel must be even up to rounding; it is symmetrized in 2-D, and its
symbol is h^2 ``rfft2`` of the table, which must come out real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.fft import fft, irfft2, rfft2

from .errors import ConfigError
from .grid import Field, GridGeometry, _freeze, _reduce, require_same_geometry

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


@dataclass(frozen=True, init=False, eq=False)
class SampledKernel:
    """Vertex-centered grid restriction of an interaction kernel.

    ``values[a, b]`` is the kernel at the vertex (a*h, b*h); ``conv_one``
    the scalar [J (*) 1] = h^2 sum J; ``symbol`` the real DFT symbol of the
    convolution operator on the half spectrum, the N x (N/2+1) modes of
    ``rfft2`` (zero mode equals ``conv_one`` exactly).  A separable kernel
    keeps its two 1-D factors and builds ``values``, their outer product,
    on first read: the production path reads only ``conv_one`` and
    ``symbol``.  Immutable and shareable across threads; convolution is a
    pure function.
    """

    geometry: GridGeometry
    conv_one: float

    def __init__(self, geometry: GridGeometry, values: np.ndarray, conv_one: float,
                 symbol: np.ndarray):
        self._set(geometry, conv_one, symbol)
        object.__setattr__(self, "values", _freeze(np.asarray(values, dtype=np.float64)))

    @classmethod
    def _separable(cls, geometry: GridGeometry, factors: tuple, conv_one: float,
                   symbol: np.ndarray) -> "SampledKernel":
        """The kernel whose table is the outer product of the two 1-D ``factors``."""
        kernel = cls.__new__(cls)
        kernel._set(geometry, conv_one, symbol)
        object.__setattr__(kernel, "_factors", factors)
        return kernel

    def _set(self, geometry, conv_one, symbol):
        object.__setattr__(self, "geometry", geometry)
        object.__setattr__(self, "conv_one", conv_one)
        object.__setattr__(self, "symbol", _freeze(np.asarray(symbol, dtype=np.float64)))

    @cached_property
    def values(self) -> np.ndarray:
        """The table, built from the factors of a separable kernel on first read; read-only."""
        return _freeze(np.outer(*self._factors))


def _reflect(values: np.ndarray) -> np.ndarray:
    """Index negation (a, b) -> (-a, -b) under periodic wrap."""
    return np.roll(values[::-1, ::-1], 1, axis=(0, 1))


def _even(factor: np.ndarray) -> np.ndarray:
    """0.5 (f + f[-a]): a 1-D factor averaged with its index negation, exactly even."""
    return 0.5 * (factor + np.roll(factor[::-1], 1))


def _factor(spec: KernelSpec, geometry: GridGeometry) -> np.ndarray:
    """The 1-D factor f of a separable kernel J(x, y) = A f(x) f(y) at the vertices i*h."""
    if spec.variant == "constant":
        return np.ones(geometry.n)
    vx, _ = geometry.vertex_coords()
    shifts = np.arange(-spec.images, spec.images + 1) * geometry.length
    # e^{-xi x^2} periodized over the image cells.
    return np.exp(-spec.decay_rate * (vx[:, None] - shifts[None, :]) ** 2).sum(axis=1)


def _sample_separable(factor: np.ndarray, amplitude: float, geometry: GridGeometry):
    """Table factors, [J (*) 1] and half-spectrum symbol of the kernel A f(x) f(y), from f.

    f is made exactly even, and so is A f, by itself: the amplitude joins
    before the symmetrization, so an amplitude whose 2-D symmetrization
    would overflow overflows here too.  The table is their outer product,
    exactly even as well; the two factors are returned in its place.  With
    F the 1-D DFT of f, real for an even factor, [J (*) 1] = h^2 A (sum f)^2
    and j_hat = h^2 A F (x) F.
    """
    n, h2 = geometry.n, geometry.h**2
    row, factor = _even(amplitude * factor), _even(factor)
    # A numpy scalar, so an overflowing scale or mass raises under the caller's errstate.
    scale, total = np.float64(h2) * amplitude, _reduce(factor)
    spectrum = fft(factor).real
    symbol = np.outer(scale * spectrum, spectrum[: n // 2 + 1])
    return (row, factor), float(scale * total * total), symbol


# A table may differ from its reflection by this many eps of its largest
# entry (rounding); beyond that it is not an even kernel.
EVEN_TOLERANCE = 64 * np.finfo(np.float64).eps


def _sample_table(table: np.ndarray, geometry: GridGeometry):
    """Values, [J (*) 1] and half-spectrum symbol of a tabulated kernel, symmetrized in 2-D.

    A table that differs from its reflection beyond rounding is rejected
    before the symmetrization, which would otherwise replace it by its even
    part.
    """
    n, h2 = geometry.n, geometry.h**2
    if table.shape != (n, n):
        raise ConfigError(f"tabulated kernel shape {table.shape} does not match grid ({n}, {n})")
    reflected = _reflect(table)
    with np.errstate(over="ignore"):  # a difference beyond the float range is inf, and uneven
        gap = np.abs(table - reflected).max()
    if gap > EVEN_TOLERANCE * np.abs(table).max():
        raise ConfigError(f"tabulated kernel is not even: it differs from its reflection "
                          f"(a, b) -> (-a, -b) by up to {gap:.3e}")
    values = 0.5 * (table + reflected)
    # Even and real: the half spectrum from rfft2 holds every value of the symbol.
    symbol = h2 * rfft2(values)
    scale = np.abs(symbol.real).max()
    if scale > 0.0 and np.abs(symbol.imag).max() > 1e-12 * scale:
        raise ConfigError("kernel symbol has a non-negligible imaginary part; kernel is not even")
    return values, h2 * _reduce(values), symbol.real.copy()


def sample_kernel(spec: KernelSpec, geometry: GridGeometry) -> SampledKernel:
    """Restrict a kernel to the grid vertices and precompute its symbol.

    The Gaussian and constant kernels are tensor products
    J(x, y) = A f(x) f(y): f is the Gaussian periodized over
    ``spec.images`` image cells per direction, or 1.  They are sampled
    through the 1-D factor alone: the table is the outer product of A f and
    f, each averaged with its reflection so the evenness hypothesis of the
    convolution identities holds exactly despite floating-point sampling,
    built on first read, and the symbol is h^2 A times the outer product of
    the 1-D transform of f with itself, so no 2-D transform is taken.  A
    tabulated kernel that differs from its reflection beyond rounding raises
    ``ConfigError``; one that does not is symmetrized in 2-D and its symbol
    is ``rfft2`` of the table, which must come out real.  The zero mode of
    the symbol is ``conv_one`` exactly.
    """
    if spec.variant == "tabulated":
        values, conv_one, symbol = _sample_table(spec.table, geometry)
        symbol[0, 0] = conv_one
        return SampledKernel(geometry, values, conv_one, symbol)
    factors, conv_one, symbol = _sample_separable(_factor(spec, geometry), spec.amplitude, geometry)
    symbol[0, 0] = conv_one
    return SampledKernel._separable(geometry, factors, conv_one, symbol)


def convolve(kernel: SampledKernel, phi: Field) -> Field:
    """Discrete periodic convolution [J (*) phi], via the DFT symbol."""
    require_same_geometry(kernel, phi)
    return Field(phi.geometry, convolve_values(kernel, phi.values))


def convolve_values(kernel: SampledKernel, values: np.ndarray) -> np.ndarray:
    """Array-level convolution [J (*) phi] of the values of phi."""
    return irfft2(rfft2(values) * kernel.symbol, s=values.shape)
