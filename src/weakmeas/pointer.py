"""Meter wavefunctions: superpositions of displaced, phase-modulated Gaussians.

A term is ``w * exp(i k x) * (2 pi)^(-1/4) * exp(-(x - c)^2 / 4)``: a
unit-variance Gaussian wavepacket displaced to ``c`` with phase slope ``k``.
The squared modulus of a single unit-weight term is the standard normal
density ``G(x - c)``, which fixes the normalization convention once and for
all; every closed form below is derived for this convention only.

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
from functools import cached_property

import numpy as np

from .errors import BasisMismatch, ZeroProbabilityOutcome

BASIS_X = "x"
BASIS_XPRIME = "xprime"

WAVEFUNCTION_NORM = (2.0 * math.pi) ** (-0.25)
TERM_MERGE_TOL = 1e-12


def gaussian_density(x):
    """Standard normal density G(x) = (2 pi)^(-1/2) exp(-x^2/2)."""
    x = np.asarray(x, dtype=np.float64)
    return (2.0 * math.pi) ** (-0.5) * np.exp(-0.5 * x * x)


def gaussian_upper_tail(z) -> float:
    """P(X >= z) for a standard normal X."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class GaussianTerm:
    """One displaced, phase-modulated Gaussian wavepacket."""

    weight: complex
    center: float
    phase_slope: float

    def __post_init__(self):
        w = complex(self.weight)
        c = float(self.center)
        k = float(self.phase_slope)
        if not (math.isfinite(w.real) and math.isfinite(w.imag) and math.isfinite(c) and math.isfinite(k)):
            raise ValueError("GaussianTerm fields must be finite")
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "phase_slope", k)


def _merge_terms(terms) -> tuple[GaussianTerm, ...]:
    """Coalesce terms with (center, phase_slope) equal within TERM_MERGE_TOL."""
    items = sorted(terms, key=lambda t: (t.center, t.phase_slope))
    merged: list[GaussianTerm] = []
    for t in items:
        if merged and abs(t.center - merged[-1].center) <= TERM_MERGE_TOL and abs(
            t.phase_slope - merged[-1].phase_slope
        ) <= TERM_MERGE_TOL:
            prev = merged[-1]
            merged[-1] = GaussianTerm(prev.weight + t.weight, prev.center, prev.phase_slope)
        else:
            merged.append(t)
    kept = tuple(t for t in merged if t.weight != 0.0)
    return kept if kept else tuple(merged[:1])


@dataclass(frozen=True)
class PointerWavefunction:
    """Finite superposition of Gaussian terms in the x or x' basis."""

    terms: tuple[GaussianTerm, ...]
    basis: str = BASIS_X

    def __post_init__(self):
        if self.basis not in (BASIS_X, BASIS_XPRIME):
            raise ValueError(f"unknown basis {self.basis!r}")
        terms = tuple(self.terms)
        if not terms:
            raise ValueError("wavefunction needs at least one term")
        object.__setattr__(self, "terms", _merge_terms(terms))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        w = np.array([t.weight for t in self.terms], dtype=np.complex128)
        c = np.array([t.center for t in self.terms], dtype=np.float64)
        k = np.array([t.phase_slope for t in self.terms], dtype=np.float64)
        return w, c, k

    def amplitude(self, x) -> np.ndarray:
        """Complex wavefunction value at x (scalar or array)."""
        w, c, k = self._arrays
        return _term_values(np.atleast_1d(np.asarray(x, dtype=np.float64)), c, k) @ w


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
    base = np.exp(-(dc * dc) / 8.0) * np.exp(1j * dk * m) * np.exp(-(dk * dk) / 2.0)
    return base, m, dk


def _pair_matrices(a: PointerWavefunction, b: PointerWavefunction):
    wa, ca, ka = a._arrays
    wb, cb, kb = b._arrays
    base, m, dk = _pair_kernel(ca, ka, cb, kb)
    coeff = np.conj(wa)[:, None] * wb[None, :]
    return coeff, base, m, dk


def overlap(a: PointerWavefunction, b: PointerWavefunction) -> complex:
    """Exact inner product <a|b> from the closed-form pair integrals."""
    if a.basis != b.basis:
        raise BasisMismatch(f"cannot overlap {a.basis!r} with {b.basis!r}")
    coeff, base, _, _ = _pair_matrices(a, b)
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
    coeff, base, m, dk = _pair_matrices(w, w)
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


def to_xprime_basis(w: PointerWavefunction) -> PointerWavefunction:
    """Exact change to the x' = 2p basis (unitary, norm preserving)."""
    if w.basis != BASIS_X:
        raise BasisMismatch("wavefunction is already in the x' basis")
    terms = tuple(
        GaussianTerm(
            t.weight * np.exp(1j * t.phase_slope * t.center),
            2.0 * t.phase_slope,
            -t.center / 2.0,
        )
        for t in w.terms
    )
    return PointerWavefunction(terms, BASIS_XPRIME)


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: SeedSequence(seed, spawn_key=(stream,)).

    Parallel workers must each take a distinct ``stream`` index; outputs then
    depend only on (seed, stream), never on scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
