"""Discrete differential operators on the periodic staggered grid.

The gradient maps cell values to edge values by forward differences, the
divergence maps edge values back by backward differences, and the Laplacian
is their composition -- the standard 5-point periodic stencil.  The forward
differences are written once (``_forward_differences``), for ``gradient``,
the array-level stencil ``laplacian_apply`` and the driver's gradient norm.
All three operators are circulant, hence diagonal in the discrete Fourier
basis: the mode (k, l) of minus the Laplacian carries the eigenvalue

    lambda_{k,l} = (2/h^2) (2 - cos(2 pi k / N) - cos(2 pi l / N)) >= 0,

with a simple zero at the constant mode (k = l = 0).  On zero-mean fields
minus the Laplacian is invertible; the inverse and the induced negative
norm ||u||_{-1} = sqrt(h^2 ((-Lap)^{-1} u || u)) are computed by dividing
DFT coefficients by lambda and zeroing the constant mode.

The production path uses real transforms on the half spectrum of modes
l = 0..N/2 (N x (N/2+1), all values of a real even symbol).  A ``Field``
keeps its own half spectrum (``Field.spectrum``), so applying a symbol to a
field (``_apply_to_field``) takes one ``irfft2``; ``apply_symbol`` is the
same apply to bare values, with an ``rfft2`` in front.  Quadratic forms
(v || A v) of such an operator -- the negative norm here, the nonlocal
energy in :mod:`nchsolver.energetics` -- are one modal sum by Parseval over
the spectrum of v, taken by the one private helper ``_modal_sum``, which
holds the rule that interior half-spectrum columns count twice.  The only
transforms are ``scipy.fft.rfft2`` and ``irfft2(..., s=(N, N))``; the
oracle suite checks them against a direct DFT sum.

The symbol lambda is built by one formula, ``laplacian_eigenvalues``: all
N x N modes for the oracles, which compare them with dense matrices, and
columns 0..N/2 alone for ``make_cache``, which stores that half spectrum as
``SpectralCache.minus_laplacian_eigenvalues``, through which every
scheme's solve applies the Laplacian, and 1/lambda (0 at the constant mode)
as ``inverse_eigenvalues``, the weights every ||.||_{-1} of the diagnostics
reads.  The stencils ``laplacian`` and ``laplacian_apply`` are the
reference those applies are tested against.  The dense matrix of minus the
Laplacian is never assembled here; it exists only in the test oracles that
validate these symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import irfft2, rfft2

from .errors import NonZeroMeanError
from .grid import EdgeField, Field, GridGeometry, _freeze, mean, norm2

# Relative tolerance under which a nominally zero-mean input is accepted
# and silently projected before inverting the Laplacian.
ZERO_MEAN_RTOL = 1e-12


def laplacian_eigenvalues(geometry: GridGeometry, columns: Optional[int] = None) -> np.ndarray:
    """Eigenvalues of minus the discrete Laplacian, indexed by DFT mode (k, l).

    All N columns l, or the first ``columns`` of them.
    """
    n, h = geometry.n, geometry.h
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    return (2.0 / h**2) * (2.0 - np.add.outer(c, c[:columns]))


def apply_symbol(values: np.ndarray, symbol: np.ndarray) -> np.ndarray:
    """Apply the circulant operator with a half-spectrum symbol to real values."""
    return irfft2(rfft2(values) * symbol, s=values.shape)


def _apply_to_field(phi: Field, symbol: np.ndarray) -> np.ndarray:
    """``apply_symbol`` to the values of phi, from the spectrum the field keeps."""
    return irfft2(phi.spectrum * symbol, s=phi.values.shape)


@dataclass(frozen=True)
class SpectralCache:
    """Per-mode DFT symbols shared by solvers and norms.

    ``minus_laplacian_eigenvalues`` holds the symbol lambda of minus the
    Laplacian on the half spectrum (nonnegative, zero exactly at the
    constant mode), and ``inverse_eigenvalues`` 1/lambda there, 0 at the
    constant mode: the weights of the negative norm.  Immutable, safe to
    share across threads.
    """

    geometry: GridGeometry
    minus_laplacian_eigenvalues: np.ndarray = field(repr=False)
    inverse_eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lam = np.array(self.minus_laplacian_eigenvalues, dtype=np.float64)
        with np.errstate(divide="ignore"):
            inverse = 1.0 / lam
        inverse[lam == 0.0] = 0.0  # the constant mode
        object.__setattr__(self, "minus_laplacian_eigenvalues", _freeze(lam))
        object.__setattr__(self, "inverse_eigenvalues", _freeze(inverse))


def make_cache(geometry: GridGeometry) -> SpectralCache:
    """Build the spectral cache for a grid: lambda on columns 0..N/2, the rfft2 modes."""
    return SpectralCache(geometry, laplacian_eigenvalues(geometry, geometry.n // 2 + 1))


def _forward_differences(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays (D_x v, D_y v) of periodic cell values: the one forward-difference formula."""
    return (np.roll(values, -1, axis=0) - values) / h, (np.roll(values, -1, axis=1) - values) / h


def gradient(phi: Field) -> EdgeField:
    """Center-to-edge forward differences (D_x phi, D_y phi)."""
    return EdgeField(phi.geometry, *_forward_differences(phi.values, phi.geometry.h))


def divergence(f: EdgeField) -> Field:
    """Edge-to-center backward differences d_x f^x + d_y f^y."""
    h = f.geometry.h
    dx = (f.x - np.roll(f.x, 1, axis=0)) / h
    dy = (f.y - np.roll(f.y, 1, axis=1)) / h
    return Field(f.geometry, dx + dy)


def laplacian(phi: Field) -> Field:
    """5-point periodic Laplacian, realized exactly as divergence(gradient(phi))."""
    return divergence(gradient(phi))


def laplacian_apply(values: np.ndarray, h: float) -> np.ndarray:
    """Array-level 5-point stencil, equal to ``laplacian``; the reference for the symbol applies."""
    gx, gy = _forward_differences(values, h)
    return (gx - np.roll(gx, 1, axis=0)) / h + (gy - np.roll(gy, 1, axis=1)) / h


def _zero_mean_values(phi: Field, what: str) -> np.ndarray:
    """Check the zero-mean precondition and return mean-projected values."""
    m = mean(phi)
    bound = ZERO_MEAN_RTOL * norm2(phi) / np.sqrt(phi.geometry.area)
    if abs(m) > bound:
        raise NonZeroMeanError(
            f"{what} is only defined for zero-mean fields: |mean| = {abs(m):.3e} "
            f"exceeds {bound:.3e}"
        )
    return phi.values - m


def inverse_laplacian_zero_mean(phi: Field, cache: SpectralCache) -> Field:
    """Solve -Lap(psi) = phi for the zero-mean psi, via the spectral inverse."""
    values = _zero_mean_values(phi, "the inverse Laplacian")
    lam = cache.minus_laplacian_eigenvalues
    modes = rfft2(values)
    out = np.zeros_like(modes)
    np.divide(modes, lam, out=out, where=lam > 0.0)
    return Field(phi.geometry, irfft2(out, s=values.shape))


def _modal_sum(symbol: np.ndarray, modes: np.ndarray) -> float:
    """Pairing (v || A v) of the real v with half spectrum ``modes`` and the circulant A of a symbol.

    Parseval: (v || A v) = (1/N^2) sum_kl a_kl |v_hat_kl|^2 over all N^2 modes.
    """
    return _parseval(symbol * (modes.real**2 + modes.imag**2))


def _parseval(weighted: np.ndarray) -> float:
    """(1/N^2) times the sum over all N^2 modes of an even per-mode quantity on the half spectrum.

    Interior columns 1..(N-1)//2 also stand for their mirrored modes; column
    0 and, for even N, the Nyquist column N/2 already hold theirs.  Scales
    ``weighted`` in place; sums in long double.
    """
    n = weighted.shape[0]
    weighted[:, 1:(n + 1) // 2] *= 2.0
    return float(np.sum(weighted, dtype=np.longdouble)) / n**2


def _modes_norm(modes: np.ndarray) -> float:
    """Plain L2 norm sqrt(sum v^2) of the real field whose rfft2 coefficients are ``modes``."""
    return float(np.sqrt(_parseval(modes.real**2 + modes.imag**2)))


def _project_hermitian(modes: np.ndarray) -> np.ndarray:
    """Project half-spectrum coefficients onto those of a real field, in place.

    Column 0 and, for even N, the Nyquist column N/2 hold each mode (k, l)
    together with its mirror (-k, -l), whose coefficient must be the
    conjugate; averaging the two removes the rounding that breaks this.
    Every other column is unconstrained.  O(N).
    """
    n = modes.shape[0]
    mirror = -np.arange(n) % n
    for col in ((0, n // 2) if n % 2 == 0 else (0,)):
        column = modes[:, col]
        modes[:, col] = 0.5 * (column + np.conj(column[mirror]))
    return modes


def _norm_neg1_modes(modes: np.ndarray, cache: SpectralCache) -> float:
    """||.||_{-1} of the zero-mean part of the field with half spectrum ``modes``.

    The constant mode carries no weight, so the mean never needs removing.
    """
    return float(np.sqrt(cache.geometry.h**2 * _modal_sum(cache.inverse_eigenvalues, modes)))


def norm_neg1(phi: Field, cache: SpectralCache) -> float:
    """Negative-order norm ||phi||_{-1} = sqrt(h^2 ((-Lap)^{-1} phi || phi)).

    Defined for zero-mean fields only; inputs within the zero-mean tolerance
    are projected before inversion.
    """
    return _norm_neg1_modes(rfft2(_zero_mean_values(phi, "the negative-order norm")), cache)
