"""Cell-centered periodic grid functions on a square domain.

The domain is the square (0, L) x (0, L) covered by an N x N uniform grid
with mesh size h = L/N.  Cell centers sit at ((i+1/2)h, (j+1/2)h) for
0-based indices i, j.  Periodic wrap is realized by modular index
arithmetic (no ghost layers), so storage index i and i +/- N address the
same value.  Edge values -- the forward differences of the staggered grid
-- are plain arrays (``spectral._forward_differences``), not a type here.

Norms follow the staggered-grid convention: the raw pairing
(phi||psi) = sum_ij phi_ij psi_ij is unweighted, the L2 pairing is
h^2 (phi||psi), and ||phi||_2 = sqrt(h^2 (phi||phi)).  This module holds
what a run executes: the geometry, the field, its mean and L2 norm, and
the transform pair.  The pairing itself and the zero-mean projection are
references, in :mod:`nchsolver.oracles`.

Every sum the production modules take over the grid or its half spectrum
-- the means and norms here, the energy's bulk term, the Parseval
sums, the mass snap of a step and the kernel mass [J (*) 1], and the
re-centring of a seeded initial field -- goes through the one summation
rule ``_reduce``: numpy's pairwise sum in float64.  Its rounding stays far
below the 64-ulp mass check: over 2,000 ``ssi1`` steps of a
phase-separating run at N = 512 the mass drifted by 0.75 ulp.

A field holds its values, its half spectrum ``rfft2(values)``
(``Field.spectrum``), or both.  It has one constructor,
``Field(geometry, values=None, spectrum=None)``, which takes either form
or both, and the other is transformed at most once, on first use.  A
field is immutable, so its mean is reduced at most once too, on the first
``mean`` call, however many steps, state checks and diagnostics ask for
them.  A level a step solves for holds both forms from the start: the
spectrum it solved for and the values it took that spectrum to the grid
as, and a checkpoint stores both, so no step, record or next step
transforms a level forward; only the initial field and a level built from
its values alone take their spectrum as ``rfft2(values)``.  The chemical potential omega is built
from its spectrum alone, which the record's norms read, so a run never
takes omega back to the grid.  A field keeps a copy of a caller's
writeable array; the schemes instead freeze each array they compute
(``_freeze``), which the field adopts without copying (``_adopt``).

Every production transform is the one pair here, ``rfft2`` and
``irfft2``, which give ``scipy.fft.rfft2`` and ``irfft2``'s bits from
``numpy.fft`` alone, so a run never loads ``scipy.fft``.  The forward
transform takes the rows, then the columns in place; the inverse takes
the columns into a spare array the caller may pass (a step passes one it
owns), then the rows, unscaled, and multiplies by 1/N^2 once.  Called as
plain ``numpy.fft.rfft2``, with two outputs and an out-of-place column
pass, numpy takes about twice the time at N >= 256.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import GeometryMismatchError


def rfft2(values: np.ndarray) -> np.ndarray:
    """Half spectrum of the real N x N ``values``, N x (N/2+1): the rows, then the columns in place.

    ``scipy.fft.rfft2`` bit for bit, from ``numpy.fft`` alone.
    """
    modes = np.fft.rfft(values, axis=1)
    return np.fft.fft(modes, axis=0, out=modes)


def irfft2(modes: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
    """Values of the real N x N field with half spectrum ``modes``: the columns, then the rows.

    ``scipy.fft.irfft2(modes, s=(N, N))`` bit for bit (the factor
    1/N^2 is pocketfft's for every N below 2801), from ``numpy.fft``
    alone.  ``work``, a spare array of the shape of ``modes``, takes the
    column pass; without it that pass allocates its own.
    """
    n = modes.shape[0]
    work = np.fft.ifft(modes, axis=0, norm="forward", out=work)
    values = np.fft.irfft(work, n=n, axis=1, norm="forward")
    values *= 1.0 / (n * n)
    return values


def _reduce(a: np.ndarray) -> float:
    """Sum of all entries of ``a``: the one summation rule of the program.

    numpy's pairwise float64 sum, which vectorises.
    """
    return float(np.sum(a))


@dataclass(frozen=True)
class GridGeometry:
    """Uniform N x N periodic grid on the square (0, length)^2."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs at least 2 cells per axis, got {self.n}")
        if not (self.length > 0.0 and np.isfinite(self.length)):
            raise ValueError(f"domain edge length must be positive, got {self.length}")
        # The area L^2, the mesh weight h^2 and the largest Laplacian
        # eigenvalue 8/h^2 must all be finite positive floats.
        h2 = self.h * self.h
        if not (self.area < np.inf and h2 > 0.0 and 8.0 / h2 < np.inf):
            raise ValueError(f"domain edge length {self.length!r} is out of range for "
                             f"{self.n} cells: L^2, h^2 and 8/h^2 must be finite and positive")

    @property
    def h(self) -> float:
        """Mesh size length/n."""
        return self.length / self.n

    @property
    def area(self) -> float:
        """Measure of the domain, length^2."""
        return self.length * self.length


def _freeze(values: np.ndarray) -> np.ndarray:
    values.setflags(write=False)
    return values


def _adopt(array, dtype, shape: tuple, form: str) -> np.ndarray:
    """A read-only ``dtype`` array of ``shape`` holding ``array``, which must be finite.

    A writeable or borrowed array is copied; a read-only array that owns its
    data is adopted as it is.
    """
    array = np.asarray(array, dtype=dtype)
    if array.shape != shape:
        raise ValueError(f"expected {form} of shape {shape}, got {array.shape}")
    if not np.isfinite(array).all():
        raise ValueError(f"field {form} must be finite (no NaN/Inf)")
    if array.base is not None or array.flags.writeable:
        array = array.copy()
    return _freeze(array)


@dataclass(frozen=True, init=False, eq=False)
class Field:
    """Cell-centered periodic grid function; immutable after construction.

    Built from its values, its half spectrum ``rfft2(values)`` (N x
    (N/2+1)), or both; the form not given is computed on first use, once.
    Given both, as for a level a step solves for or a checkpoint stores,
    the caller vouches that the spectrum is ``rfft2(values)`` up to
    rounding.  Neither form is a ``ValueError``, and so is a form of the
    wrong shape or with a non-finite entry.  A writeable or borrowed array
    is copied, so later changes to the caller's array do not reach the
    field; a read-only array that owns its data is adopted as it is.
    """

    geometry: GridGeometry

    def __init__(self, geometry: GridGeometry, values: Optional[np.ndarray] = None,
                 spectrum: Optional[np.ndarray] = None):
        if values is None and spectrum is None:
            raise ValueError("a field needs its values, its spectrum or both")
        n = geometry.n
        object.__setattr__(self, "geometry", geometry)
        if spectrum is not None:
            object.__setattr__(self, "spectrum", _adopt(spectrum, np.complex128, (n, n // 2 + 1), "spectrum"))
        if values is not None:
            object.__setattr__(self, "values", _adopt(values, np.float64, (n, n), "values"))

    @cached_property
    def _mean(self) -> float:
        return _reduce(self.values) / self.geometry.n**2

    @cached_property
    def spectrum(self) -> np.ndarray:
        """Half spectrum ``rfft2(values)``, the N x (N/2+1) modes l = 0..N/2; read-only."""
        return _freeze(rfft2(self.values))

    @cached_property
    def values(self) -> np.ndarray:
        """Cell values ``irfft2(spectrum)``, N x N; read-only."""
        return _freeze(irfft2(self.spectrum))


def require_same_geometry(a, b) -> GridGeometry:
    if a.geometry != b.geometry:
        raise GeometryMismatchError(f"geometry mismatch: {a.geometry} vs {b.geometry}")
    return a.geometry


def mean(phi: Field) -> float:
    """Average value (phi||1)/N^2, reduced once per field."""
    return phi._mean


def _norm2_values(values: np.ndarray, h: float) -> float:
    """``norm2`` of raw values on a grid of mesh size h, with no Field built."""
    return h * np.sqrt(_reduce(values * values))


def norm2(phi: Field) -> float:
    """Discrete L2 norm ||phi||_2 = sqrt(h^2 (phi||phi))."""
    return _norm2_values(phi.values, phi.geometry.h)

