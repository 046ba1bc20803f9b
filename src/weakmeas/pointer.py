"""Meter wavefunctions: superpositions of displaced, phase-modulated Gaussians.

A term is ``w * exp(i k x) * (2 pi)^(-1/4) * exp(-(x - c)^2 / 4)``: a
unit-variance Gaussian wavepacket displaced to ``c`` with phase slope ``k``.
The squared modulus of a single unit-weight term is the standard normal
density ``G(x - c)``, which fixes the normalization convention once and for
all; every closed form below is derived for this convention only. A
:class:`PointerWavefunction` holds its terms as three arrays (weights,
centres, slopes), and every pair sum runs over all term pairs, so terms that
share a centre and slope need no merging.

All overlaps and moments are exact. For a term pair (bra 1, ket 2), with
``dk = k2 - k1`` and ``m = (c1 + c2)/2``::

    Int exp(i dk x) (2pi)^(-1/2) exp(-[(x-c1)^2 + (x-c2)^2]/4) dx
        = exp(-(c1-c2)^2/8) * exp(i dk m) * exp(-dk^2/2)

and the first/second moments carry extra polynomial factors ``(m + i dk)``
and ``(m^2 + 2 i m dk + 1 - dk^2)``.

The x'-basis (x' = 2p, Fourier convention <p|x> ~ exp(-i p x)) maps a term
``(w, c, k)`` to ``(w exp(i k c), 2k, -c/2)``; the initial meter is form
invariant under this map.

Random draws are not made here: :mod:`weakmeas.montecarlo` draws exact
Gaussian mixtures. Parallel callers must derive per-stream generators with
:func:`stream_rng` so results do not depend on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BasisMismatch, ZeroProbabilityOutcome

BASIS_X = "x"
BASIS_XPRIME = "xprime"

WAVEFUNCTION_NORM = (2.0 * math.pi) ** (-0.25)


def gaussian_density(x):
    """Standard normal density G(x) = (2 pi)^(-1/2) exp(-x^2/2)."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # x^2 past the float range: exp(-inf) = 0, exact
        return (2.0 * math.pi) ** (-0.5) * np.exp(-0.5 * x * x)


def gaussian_upper_tail(z) -> float:
    """P(X >= z) for a standard normal X."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class PointerWavefunction:
    """Finite superposition of Gaussian terms in the x or x' basis.

    Term t is (``weights[t]``, ``centers[t]``, ``phase_slopes[t]``); the three
    are read-only 1-D arrays of one length, kept as given.
    """

    weights: np.ndarray
    centers: np.ndarray
    phase_slopes: np.ndarray
    basis: str = BASIS_X

    def __post_init__(self):
        if self.basis not in (BASIS_X, BASIS_XPRIME):
            raise ValueError(f"unknown basis {self.basis!r}")
        terms = (
            np.array(self.weights, dtype=np.complex128),
            np.array(self.centers, dtype=np.float64),
            np.array(self.phase_slopes, dtype=np.float64),
        )
        w, c, k = terms
        if not (w.ndim == 1 and w.size and w.shape == c.shape == k.shape and np.isfinite(terms).all()):
            raise ValueError("wavefunction needs one or more finite terms, as 1-D arrays of one length")
        for name, a in zip(("weights", "centers", "phase_slopes"), terms):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def amplitude(self, x) -> np.ndarray:
        """Complex wavefunction value at x (scalar or array)."""
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        return _term_values(x, self.centers, self.phase_slopes) @ self.weights


def _term_values(x: np.ndarray, c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(len(x), len(c)) values of the unit-weight terms (c, k) at the points x."""
    phases = np.exp(1j * np.outer(x, k))
    envelopes = WAVEFUNCTION_NORM * np.exp(-((x[:, None] - c[None, :]) ** 2) / 4.0)
    return phases * envelopes


def _pair_kernel(ca: np.ndarray, ka: np.ndarray, cb: np.ndarray, kb: np.ndarray):
    """The pair integrals of bra terms (ca, ka) against ket terms (cb, kb).

    Returns (base, m, dk), each (len(ca), len(cb)): ``base`` is the closed
    form of the module docstring, and ``m`` and ``dk`` build the moment
    polynomials. This is the one copy of the kernel; every pair sum of the
    package goes through it.
    """
    dc = ca[:, None] - cb[None, :]
    dk = kb[None, :] - ka[:, None]
    m = (ca[:, None] + cb[None, :]) / 2.0
    with np.errstate(over="ignore"):  # dc^2 or dk^2 past the float range: exp(-inf) = 0, exact
        base = np.exp(-(dc * dc) / 8.0) * np.exp(1j * dk * m) * np.exp(-(dk * dk) / 2.0)
    return base, m, dk


def overlap(a: PointerWavefunction, b: PointerWavefunction) -> complex:
    """Exact inner product <a|b> from the closed-form pair integrals."""
    if a.basis != b.basis:
        raise BasisMismatch(f"cannot overlap {a.basis!r} with {b.basis!r}")
    base, _, _ = _pair_kernel(a.centers, a.phase_slopes, b.centers, b.phase_slopes)
    coeff = np.conj(a.weights)[:, None] * b.weights[None, :]
    return complex((coeff * base).sum())


def squared_norm(w: PointerWavefunction) -> float:
    """<w|w>, real and nonnegative."""
    return max(overlap(w, w).real, 0.0)


def density(w: PointerWavefunction, x):
    """Unnormalized position density |amplitude|^2 at x (scalar or array)."""
    scalar = np.ndim(x) == 0
    amp = w.amplitude(x)
    out = amp.real ** 2 + amp.imag ** 2
    return float(out[0]) if scalar else out


def moment(w: PointerWavefunction, n: int) -> float:
    """n-th moment (n in {0,1,2}) of the normalized density, in closed form."""
    if n not in (0, 1, 2):
        raise ValueError("only moments n = 0, 1, 2 are supported")
    base, m, dk = _pair_kernel(w.centers, w.phase_slopes, w.centers, w.phase_slopes)
    coeff = np.conj(w.weights)[:, None] * w.weights[None, :]
    norm_sq = (coeff * base).sum().real
    if norm_sq <= 0.0:
        raise ZeroProbabilityOutcome("wavefunction has zero norm; moments undefined")
    if n == 0:
        return 1.0
    if n == 1:
        poly = m + 1j * dk
    else:
        poly = m * m + 2j * m * dk + 1.0 - dk * dk
    return float((coeff * base * poly).sum().real / norm_sq)


def _xprime_terms(w: np.ndarray, c: np.ndarray, k: np.ndarray):
    """The x' = 2p image (w e^{ikc}, 2k, -c/2) of terms (w, c, k); the phase
    broadcasts along the last axis of ``w``."""
    return w * np.exp(1j * k * c), 2.0 * k, -c / 2.0


def to_xprime_basis(w: PointerWavefunction) -> PointerWavefunction:
    """Exact change to the x' = 2p basis (unitary, norm preserving)."""
    if w.basis != BASIS_X:
        raise BasisMismatch("wavefunction is already in the x' basis")
    return PointerWavefunction(*_xprime_terms(w.weights, w.centers, w.phase_slopes), BASIS_XPRIME)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: SeedSequence(seed, spawn_key=(stream,)).

    Parallel workers must each take a distinct ``stream`` index; outputs then
    depend only on (seed, stream), never on scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
