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
spectrum, with F the 1-D transform of f, real for an even factor:
``numpy.fft.rfft`` gives its modes 0..N/2, mirrored onto the rest
(``scipy.fft.fft``'s bits, which the real part of ``numpy.fft.fft`` is
not).  The kernel keeps A f and f; their outer product, the table, is
built only by the oracles (``oracles.kernel_table``), since the
production path never reads it.  Set-up then takes one 1-D transform, no
2-D one and no N x N table.  A tabulated kernel must be even up to
rounding, the one evenness rule; it is symmetrized in 2-D, and its symbol
is the real part of h^2 ``rfft2`` of the table, whose imaginary part is
then rounding alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grid import Field, GridGeometry, _freeze, _reduce, irfft2, require_same_geometry, rfft2

KERNEL_VARIANTS = ("gaussian", "constant", "tabulated")

# Image shifts folded into the periodized Gaussian by default; the tail
# beyond 3 domain widths is below double precision for the default decay.
DEFAULT_IMAGES = 3


@dataclass(frozen=True)
class KernelSpec:
    """Description of a continuous interaction kernel.

    ``amplitude`` is the kernel prefactor (the constant value for the
    constant variant), ``decay_rate`` the Gaussian exponent, both positive
    and finite, ``images`` the number of periodic image shifts folded in
    per direction.  A tabulated spec holds its own read-only copy of
    ``table``, so the caller's array stays writeable and later writes to
    it do not reach the spec.
    """

    variant: str
    amplitude: float = 1.0
    decay_rate: float = 1.0
    images: int = DEFAULT_IMAGES
    table: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self):
        if self.variant not in KERNEL_VARIANTS:
            raise ConfigError(f"unknown kernel variant {self.variant!r}; expected one of {KERNEL_VARIANTS}")
        if self.variant in ("gaussian", "constant") and not 0.0 < self.amplitude < np.inf:
            raise ConfigError(f"kernel amplitude must be positive and finite, got {self.amplitude}")
        if self.variant == "gaussian" and not 0.0 < self.decay_rate < np.inf:
            raise ConfigError(f"kernel decay rate must be positive and finite, got {self.decay_rate}")
        if self.images < 0:
            raise ConfigError(f"kernel image count must be >= 0, got {self.images}")
        if self.variant == "tabulated":
            if self.table is None:
                raise ConfigError("tabulated kernel requires a table of vertex values")
            table = np.array(self.table, dtype=np.float64)  # the spec's own copy, which it freezes
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
        return cls("tabulated", table=values)


@dataclass(frozen=True, eq=False)
class SampledKernel:
    """Vertex-centered grid restriction of an interaction kernel.

    ``conv_one`` is the scalar [J (*) 1] = h^2 sum J; ``symbol`` the real
    DFT symbol of the convolution operator on the half spectrum, the
    N x (N/2+1) modes of ``rfft2`` (zero mode equals ``conv_one`` exactly);
    ``samples`` the table of vertex values or, for a separable kernel, its
    two 1-D factors, whose outer product is the table.  The production path
    reads only ``conv_one`` and ``symbol``; the table itself, the kernel
    at the vertices (a*h, b*h), is a reference (``oracles.kernel_table``).
    Plain immutable data, shareable across threads.
    """

    geometry: GridGeometry
    conv_one: float
    symbol: np.ndarray = field(repr=False)
    samples: np.ndarray | tuple = field(repr=False)


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
    vx = np.arange(geometry.n) * geometry.h
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
    # F on modes 0..N/2, mirrored onto the rest: F_k = F_{N-k} for an even factor.
    half, k = np.fft.rfft(factor).real, np.arange(n)
    symbol = np.outer(scale * half[np.minimum(k, n - k)], half)
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
    values = _freeze(0.5 * (table + reflected))
    # Even and real: the half spectrum from rfft2 holds every value of the
    # symbol, and its imaginary part is rounding.
    return values, h2 * _reduce(values), (h2 * rfft2(values)).real.copy()


def sample_kernel(spec: KernelSpec, geometry: GridGeometry) -> SampledKernel:
    """Restrict a kernel to the grid vertices and precompute its symbol.

    The Gaussian and constant kernels are tensor products
    J(x, y) = A f(x) f(y): f is the Gaussian periodized over
    ``spec.images`` image cells per direction, or 1.  They are sampled
    through the 1-D factor alone: the table is the outer product of A f and
    f, each averaged with its reflection so the evenness hypothesis of the
    convolution identities holds exactly despite floating-point sampling,
    and the symbol is h^2 A times the outer product of the 1-D transform of
    f with itself, so no 2-D transform is taken.  A
    tabulated kernel that differs from its reflection beyond rounding raises
    ``ConfigError``; one that does not is symmetrized in 2-D and its symbol
    is the real part of h^2 ``rfft2`` of the table.  The zero mode of the
    symbol is ``conv_one`` exactly.
    """
    if spec.variant == "tabulated":
        samples, conv_one, symbol = _sample_table(spec.table, geometry)
    else:
        samples, conv_one, symbol = _sample_separable(_factor(spec, geometry), spec.amplitude,
                                                      geometry)
    symbol[0, 0] = conv_one
    return SampledKernel(geometry, conv_one, _freeze(symbol), samples)


def convolve(kernel: SampledKernel, phi: Field) -> Field:
    """Discrete periodic convolution [J (*) phi], via the DFT symbol."""
    require_same_geometry(kernel, phi)
    return Field(phi.geometry, convolve_values(kernel, phi.values))


def convolve_values(kernel: SampledKernel, values: np.ndarray) -> np.ndarray:
    """Array-level convolution [J (*) phi] of the values of phi."""
    return irfft2(rfft2(values) * kernel.symbol)
