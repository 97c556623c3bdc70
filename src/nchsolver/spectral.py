"""The discrete Laplacian of the periodic staggered grid, applied through its DFT symbol.

Forward differences map cell values to edge values, backward differences
map edge values back, and minus their composition is minus the Laplacian --
the standard 5-point periodic stencil.  The forward differences are written
once (``_forward_differences``), for the array-level stencil
``laplacian_apply``.  The stencil is
circulant, hence diagonal in the discrete Fourier basis: the mode (k, l) of
minus the Laplacian carries the eigenvalue

    lambda_{k,l} = (2/h^2) (2 - cos(2 pi k / N) - cos(2 pi l / N)) >= 0,

with a simple zero at the constant mode (k = l = 0).  On zero-mean fields
minus the Laplacian is invertible; its inverse multiplies DFT coefficients
by 1/lambda and zeroes the constant mode, and the induced negative norm is
||u||_{-1} = sqrt(h^2 ((-Lap)^{-1} u || u)).

The production path uses real transforms on the half spectrum of modes
l = 0..N/2 (N x (N/2+1), all values of a real even symbol).  A ``Field``
keeps its own half spectrum (``Field.spectrum``), and the steps apply every
symbol as a product with a spectrum, never on the grid.  The apply on the
grid, one ``irfft2`` of the product, is a reference
(``oracles.apply_symbol``), like the stencil.  Quadratic forms (v || A v)
of such an operator -- the nonlocal energy in :mod:`nchsolver.energetics`
and the norms here -- are one modal sum by Parseval over the spectrum of
v: ``_parseval`` of its ``_power``.  Interior half-spectrum columns count
twice, for their mirrored modes; ``_power`` instead halves the two edge
columns of |v_hat|^2, an O(N) change, and ``_parseval`` doubles the sum,
which gives the same bits.  A sum is then one power array, built in one
buffer, multiplied in place by the operator's own symbol, with no weight
array beyond the symbols.  Each norm of a spectrum
is written once: the L2 norm ``norm2_modes`` (the Newton norm and the
equilibrium defect), ``_norm2_mean_free``, which drops the constant mode
(the variance of omega), ``_norm_grad``, weighted by lambda (the gradient
norm of omega, equal to the forward-difference norm by summation by
parts), and ``norm_neg1``, weighted by 1/lambda (the increment's
||du||_{-1}).  The record takes every norm of omega from the spectrum a
step keeps, with no transform, and the variance and the gradient norm
from one power array, which the two private norms take as it is.  The only
transforms are the package's pair ``grid.rfft2`` and ``grid.irfft2``; the
oracle suite checks them against a direct DFT sum and against
``scipy.fft`` bit for bit.

The symbol lambda is built by one formula, ``laplacian_eigenvalues``: all
N x N modes for the oracles, which compare them with dense matrices, and
columns 0..N/2 alone for ``make_cache``, which stores that half spectrum as
``SpectralCache.minus_laplacian_eigenvalues``, through which every
scheme's solve applies the Laplacian, and 1/lambda (0 at the constant mode)
as ``inverse_eigenvalues``, the weights of ``norm_neg1``.  The stencil
``laplacian_apply`` is the reference those applies are tested against.
The dense matrix of minus the Laplacian is never assembled here; it exists
only in the test oracles that validate these symbols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .grid import GridGeometry, _freeze, _reduce


def laplacian_eigenvalues(geometry: GridGeometry, columns: Optional[int] = None) -> np.ndarray:
    """Eigenvalues of minus the discrete Laplacian, indexed by DFT mode (k, l).

    All N columns l, or the first ``columns`` of them.
    """
    n, h = geometry.n, geometry.h
    c = np.cos(2.0 * np.pi * np.arange(n) / n)
    lam = np.add.outer(c, c[:columns])
    np.subtract(2.0, lam, out=lam)
    lam *= 2.0 / h**2
    return lam


@dataclass(frozen=True)
class SpectralCache:
    """Per-mode DFT symbols shared by solvers and norms, built by ``make_cache``.

    ``minus_laplacian_eigenvalues`` holds the symbol lambda of minus the
    Laplacian on the half spectrum (nonnegative, zero exactly at the
    constant mode), and ``inverse_eigenvalues`` 1/lambda there, 0 at the
    constant mode: the weights of the negative norm.  Both arrays are
    read-only, so the cache is immutable and safe to share across threads.
    """

    geometry: GridGeometry
    minus_laplacian_eigenvalues: np.ndarray = field(repr=False)
    inverse_eigenvalues: np.ndarray = field(repr=False, compare=False)


def make_cache(geometry: GridGeometry) -> SpectralCache:
    """Build the spectral cache for a grid: lambda and 1/lambda on columns 0..N/2, the rfft2 modes."""
    lam = laplacian_eigenvalues(geometry, geometry.n // 2 + 1)
    with np.errstate(divide="ignore"):
        inverse = 1.0 / lam
    inverse[lam == 0.0] = 0.0  # the constant mode
    return SpectralCache(geometry, _freeze(lam), _freeze(inverse))


def _forward_differences(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Edge arrays (D_x v, D_y v) of periodic cell values: the one forward-difference formula."""
    return (np.roll(values, -1, axis=0) - values) / h, (np.roll(values, -1, axis=1) - values) / h


def laplacian_apply(values: np.ndarray, h: float) -> np.ndarray:
    """Array-level 5-point stencil, the backward differences of ``_forward_differences``.

    The reference the symbol applies are tested against.
    """
    gx, gy = _forward_differences(values, h)
    return (gx - np.roll(gx, 1, axis=0)) / h + (gy - np.roll(gy, 1, axis=1)) / h


def _edge_columns(n: int) -> tuple:
    """The half-spectrum columns that hold their own mirrored modes: 0, and N/2 for even N."""
    return (0, n // 2) if n % 2 == 0 else (0,)


def _power(modes: np.ndarray) -> np.ndarray:
    """|v_hat|^2 per half-spectrum mode, the edge columns halved for ``_parseval``; a fresh array.

    Parseval counts each interior column twice, for its mirrored modes, and
    each edge column (``_edge_columns``) once.  Halving the edge columns
    and doubling the sum gives the same bits as doubling the interior: each
    term, and so each partial sum, is exactly half (barring subnormals).
    """
    power = np.square(modes.real)
    power += np.square(modes.imag)
    power[:, _edge_columns(modes.shape[0])] *= 0.5
    return power


def _parseval(power: np.ndarray, symbol=None) -> float:
    """(1/N^2) times the sum over all N^2 modes of symbol |v_hat|^2, from the ``_power`` of v.

    By Parseval, the pairing (v || A v) of v and the circulant A of the
    symbol.  ``symbol`` is an even per-mode weight on the half spectrum, or
    None for the plain sum; ``power`` is scaled by it in place.  Sums with
    ``grid._reduce``.
    """
    if symbol is not None:
        power *= symbol
    return 2.0 * _reduce(power) / power.shape[0]**2


def _project_hermitian(modes: np.ndarray) -> np.ndarray:
    """Project half-spectrum coefficients onto those of a real field, in place.

    Column 0 and, for even N, the Nyquist column N/2 hold each mode (k, l)
    together with its mirror (-k, -l), whose coefficient must be the
    conjugate; averaging the two removes the rounding that breaks this.
    Every other column is unconstrained.  O(N).
    """
    n = modes.shape[0]
    mirror = -np.arange(n) % n
    for col in _edge_columns(n):
        column = modes[:, col]
        modes[:, col] = 0.5 * (column + np.conj(column[mirror]))
    return modes


def norm2_modes(modes: np.ndarray, h: float) -> float:
    """Discrete L2 norm ||v||_2 = sqrt(h^2 (v||v)) of the field with half spectrum ``modes``."""
    return h * math.sqrt(_parseval(_power(modes)))


def _norm2_mean_free(power: np.ndarray, h: float) -> float:
    """||v - mean(v)||_2 from the ``_power`` of v, which it leaves as it found it."""
    constant, power[0, 0] = power[0, 0], 0.0
    total = _parseval(power)
    power[0, 0] = constant
    return h * math.sqrt(total)


def _norm_grad(power: np.ndarray, cache: SpectralCache) -> float:
    """||grad v||_2 = sqrt(h^2 (v || (-Lap) v)) from the ``_power`` of v, which it scales in place.

    Summation by parts makes it the edge norm h sqrt(sum (D_x v)^2 + (D_y v)^2)
    of the forward differences.
    """
    return cache.geometry.h * math.sqrt(_parseval(power, cache.minus_laplacian_eigenvalues))


def norm_neg1(modes: np.ndarray, cache: SpectralCache) -> float:
    """Negative norm ||v||_{-1} = sqrt(h^2 ((-Lap)^{-1} v || v)) of the field with half spectrum ``modes``.

    It measures the zero-mean part of v: the constant mode carries no
    weight, so the mean never needs removing.
    """
    return float(np.sqrt(cache.geometry.h**2 * _parseval(_power(modes), cache.inverse_eigenvalues)))
