"""Double-well potentials and the discrete free energies they induce.

The bulk potential is the quartic double well F(r) = (1/4)(r^2 - 1)^2.  For
the linearly implicit schemes it is replaced by the C^2 truncation F_K that
continues quadratically outside [-K, K]; its second derivative is then
globally bounded by beta = 3K^2 - 1 (attained for |r| >= K).

The discrete free energy of a field u with interaction kernel J is

    E(u) = h^2 (F(u)||1) + (eps^2 [J(*)1] / 2) ||u||_2^2
           - (eps^2 / 2) h^2 (u || [J (*) u]),

reported with the full +|Omega|/4 constant carried by F itself so energy
traces are bit-comparable across schemes.  Its variational derivative is
the chemical potential

    omega(u) = F'(u) + eps^2 ([J(*)1] u - [J (*) u]),

whose nonlocal operator is applied, here and in every scheme, only as the
product of its half-spectrum symbol G = eps^2 ([J(*)1] - j_hat) with the
spectrum the field keeps (``Field.spectrum``), never on the grid.  The
quadratic nonlocal part of E is evaluated from that spectrum by Parseval,

    (h^2 / (2 N^2)) sum_k eps^2 ([J(*)1] - j_hat_k) |u_hat_k|^2,

a single sum in place of two that cancel: for a nonnegative kernel (the
Gaussian and constant ones) |j_hat_k| <= [J(*)1], so every weight is >= 0,
and the constant mode has weight exactly 0.  E is the functional the
one-step schemes dissipate; the two-step schemes dissipate modified
energies that add increment terms to it, written once, in
``steppers.modified_energy``.

The model (kernel, eps, F) is fixed for a run and travels as one ``Model``,
whose fields cannot be set: the sampled kernel, the grid's
``SpectralCache``, eps and the resolved potential, with G and
gamma0 = eps^2 [J(*)1] - 1 each computed once, when it is built.  Every
function here and in the schemes, the admissibility check and the record
takes it whole; none rebuilds G.  The model also holds the run's caches,
which the steps fill (``Model``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError
from .grid import Field, _freeze, _reduce, require_same_geometry, rfft2
from .kernels import SampledKernel
from .spectral import SpectralCache, _parseval, _power

POTENTIAL_VARIANTS = ("double_well", "truncated")

# The largest truncation point K: up to it the constant (3 K^4 + 1) / 4 of
# F_K stays finite (3 K^4 overflows from K = 8.798e76 on), and so do 2 K^3
# and beta = 3 K^2 - 1.
_CUTOFF_MAX = 8.7e76


@dataclass(frozen=True)
class PotentialSpec:
    """Bulk potential selector: plain double well or its C^2 truncation at K.

    ``cutoff`` is K, which the truncated variant requires and the double
    well refuses, so two specs of one potential are equal.
    """

    variant: str = "double_well"
    cutoff: Optional[float] = None

    def __post_init__(self):
        if self.variant not in POTENTIAL_VARIANTS:
            raise ConfigError(f"unknown potential {self.variant!r}; expected one of {POTENTIAL_VARIANTS}")
        if self.variant == "truncated" and (self.cutoff is None or not 1.0 < self.cutoff <= _CUTOFF_MAX):
            raise ConfigError(f"truncation point K must lie in (1, {_CUTOFF_MAX!r}], got {self.cutoff}")
        if self.variant == "double_well" and self.cutoff is not None:  # K belongs to F_K alone
            raise ConfigError(f"the double well takes no truncation point, got K = {self.cutoff}")

    @property
    def curvature_bound(self) -> Optional[float]:
        """Global bound beta = 3K^2 - 1 on |F''| (truncated variant only)."""
        if self.variant == "truncated":
            return 3.0 * self.cutoff**2 - 1.0
        return None


def _truncate(spec: PotentialSpec, r: np.ndarray, inner, outer):
    """``inner``, with ``outer`` of r where |r| > K under the truncated potential.

    One range check passes ``inner`` through when no entry lies beyond K
    (a NaN entry fails the check and takes the masked path, where it keeps
    ``inner``).
    """
    k = spec.cutoff
    if spec.variant == "double_well" or (r.size and -k <= r.min() and r.max() <= k):
        return inner
    inner = np.asarray(inner)
    outside = np.abs(r) > k
    inner[outside] = outer(r[outside])
    return inner


def potential_value(spec: PotentialSpec, r):
    """F(r), elementwise."""
    r = np.asarray(r, dtype=np.float64)
    k, beta = spec.cutoff, spec.curvature_bound
    value = r * r
    value -= 1.0
    value *= value
    value *= 0.25
    return _truncate(spec, r, value,
                     lambda ro: 0.5 * beta * (ro * ro) - np.sign(ro) * 2.0 * k**3 * ro
                     + 0.25 * (3.0 * k**4 + 1.0))


def potential_d1(spec: PotentialSpec, r):
    """F'(r), elementwise."""
    r = np.asarray(r, dtype=np.float64)
    d1 = r * r
    d1 *= r
    d1 -= r
    return _truncate(spec, r, d1,
                     lambda ro: spec.curvature_bound * ro - np.sign(ro) * 2.0 * spec.cutoff**3)


def potential_d2(spec: PotentialSpec, r):
    """F''(r), elementwise; bounded by 3K^2 - 1 for the truncated variant."""
    r = np.asarray(r, dtype=np.float64)
    d2 = r * r
    d2 *= 3.0
    d2 -= 1.0
    return _truncate(spec, r, d2, lambda ro: spec.curvature_bound)


@dataclass(frozen=True, eq=False)
class Model:
    """The model of a run: kernel, grid symbols, eps and the potential F, built once.

    ``gap`` is the half-spectrum symbol G = eps^2 ([J(*)1] - j_hat) of the
    nonlocal operator (zero at the constant mode) and ``gamma0`` the
    positive-diffusivity constant eps^2 [J(*)1] - 1; each is formed here
    and nowhere else.  A non-positive gamma0 violates the model assumption;
    callers decide the policy (``driver.run`` rejects it, the admissibility
    report calls it inadmissible).  The kernel and the cache must share one
    grid (``GeometryMismatchError`` otherwise).

    Its fields cannot be set, but ``steppers.advance`` fills two private
    caches of values derived from them: ``_operators``, the ``_Operator``
    of each step configuration it vetted for this model, and ``_d1``, the
    F'(u^n) of the last level a two-step step evaluated, keyed by that
    level object and holding one entry.  Each entry is keyed by what it
    derives from, so a lookup returns that value or misses and computes
    it again: a model shared by runs or threads stays correct, at worst
    evaluating an evicted F' again.
    """

    kernel: SampledKernel
    cache: SpectralCache
    epsilon: float
    potential: PotentialSpec
    gap: np.ndarray = field(init=False, repr=False)
    gamma0: float = field(init=False)
    _operators: dict = field(init=False, repr=False, default_factory=dict)
    _d1: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        require_same_geometry(self.kernel, self.cache)
        eps2 = self.epsilon**2
        object.__setattr__(self, "gap", _freeze(eps2 * (self.kernel.conv_one - self.kernel.symbol)))
        object.__setattr__(self, "gamma0", eps2 * self.kernel.conv_one - 1.0)


def energy(u: Field, model: Model) -> float:
    """Discrete free energy of u under the model's potential (E_K for a truncated one)."""
    require_same_geometry(model.cache, u)
    h2 = u.geometry.h**2
    bulk = h2 * _reduce(potential_value(model.potential, u.values))
    return bulk + 0.5 * h2 * _parseval(_power(u.spectrum), model.gap)


def chemical_potential(u: Field, model: Model) -> Field:
    """Variational derivative F'(u) + eps^2 [J(*)1] u - eps^2 [J (*) u], built as its half spectrum.

    rfft2(F'(u)) + G u_hat, with G the model's symbol and u_hat the spectrum
    u keeps: one transform.
    """
    require_same_geometry(model.cache, u)
    omega = rfft2(potential_d1(model.potential, u.values))
    omega += model.gap * u.spectrum
    return Field(u.geometry, spectrum=_freeze(omega))
