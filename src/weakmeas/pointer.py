"""Meter states: superpositions of displaced, phase-modulated Gaussians.

A term is ``w * exp(i k x) * (2 pi)^(-1/4) * exp(-(x - c)^2 / 4)``: a
unit-variance Gaussian wavepacket displaced to ``c`` with phase slope ``k``.
The squared modulus of a single unit-weight term is the standard normal
density ``G(x - c)``, which fixes the normalization convention once and for
all; every closed form below is derived for this convention only.

:class:`MeterState` is the one representation of a set of branches, for one
meter or for two in product form: a weight array with one axis per meter,
and per meter the centres, slopes and basis of its terms. Every pair sum
runs over all term pairs, so terms that share a centre and slope need no
merging.

All norms and moments are exact. For a term pair (bra 1, ket 2), with
``dk = k2 - k1`` and ``m = (c1 + c2)/2``::

    Int exp(i dk x) (2pi)^(-1/2) exp(-[(x-c1)^2 + (x-c2)^2]/4) dx
        = exp(-(c1-c2)^2/8) * exp(i dk m) * exp(-dk^2/2)

and the first moment carries the extra polynomial factor ``(m + i dk)``.

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


def check_basis(*bases: str) -> None:
    """Refuse any meter basis but x and x'."""
    for basis in bases:
        if basis not in (BASIS_X, BASIS_XPRIME):
            raise ValueError(f"unknown basis {basis!r}")


def gaussian_density(x):
    """Standard normal density G(x) = (2 pi)^(-1/2) exp(-x^2/2)."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):  # x^2 past the float range: exp(-inf) = 0, exact
        return (2.0 * math.pi) ** (-0.5) * np.exp(-0.5 * x * x)


def gaussian_upper_tail(z) -> float:
    """P(X >= z) for a standard normal X."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class MeterState:
    """Finite superposition of Gaussian terms on one or two meters.

    With one meter the amplitude is sum_t weights[t] f_t(x); with two it is
    the product form sum_ij weights[i, j] f_i(x1) g_j(x2). Meter mu's term t
    has centre ``centers[mu][t]`` and phase slope ``phase_slopes[mu][t]``, in
    basis ``bases[mu]``. Every pair sum factorizes over the meters, with one
    cached pair kernel per meter; the first moment of a meter puts the
    polynomial (m + i dk) on that meter's kernel. All arrays are read-only
    copies, kept as given.
    """

    weights: np.ndarray  # (k1,) or (k1, k2)
    centers: tuple[np.ndarray, ...]
    phase_slopes: tuple[np.ndarray, ...]
    bases: tuple[str, ...]

    def __post_init__(self):
        w, bases = np.array(self.weights, dtype=np.complex128), tuple(self.bases)
        if w.ndim not in (1, 2) or not len(self.centers) == len(self.phase_slopes) == len(bases) == w.ndim:
            raise ValueError("meter state needs one or two meters, each with centres, slopes and a basis")
        check_basis(*bases)
        centers = tuple(np.array(c, dtype=np.float64) for c in self.centers)
        slopes = tuple(np.array(k, dtype=np.float64) for k in self.phase_slopes)
        arrays = (w, *centers, *slopes)
        shapes = all(c.shape == k.shape == (n,) for c, k, n in zip(centers, slopes, w.shape))
        reals = [w.ravel().view(np.float64), *centers, *slopes]
        if not (w.size and shapes and np.isfinite(np.concatenate(reals)).all()):
            raise ValueError("meter state needs finite terms: one centre and slope per weight index")
        for a in arrays:
            a.flags.writeable = False
        for name, value in zip(("weights", "centers", "phase_slopes", "bases"), (w, centers, slopes, bases)):
            object.__setattr__(self, name, value)

    @cached_property
    def _kernels(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Per meter: its pair kernel (base, m, dk). One meter's base carries
        the weights, conj(w)[:, None] * w[None, :] * base, so its pair sums
        are plain sums in the order of the moment formulas."""
        kernels = [_pair_kernel(c, k) for c, k in zip(self.centers, self.phase_slopes)]
        if self.weights.ndim == 1:
            (base, m, dk), w = kernels[0], self.weights
            kernels[0] = (np.conj(w)[:, None] * w[None, :] * base, m, dk)
        return tuple(kernels)

    def _pair_sum(self, *moment_of: int) -> np.float64:
        """Re of the pair sum of conj(w) w over the meter kernels, with the
        first-moment polynomial (m + i dk) on each meter in ``moment_of``.

        One meter sums ``(conj(w)[:, None] * w[None, :] * base) * poly``
        elementwise, in that order; two meters sum conj(W) * (K1 W K2^T).
        """
        polys = [None] * len(self._kernels)
        for mu in moment_of:
            _, m, dk = self._kernels[mu]  # IndexError past the last meter
            polys[mu] = m + 1j * dk
        w = self.weights
        if w.ndim == 1:
            pairs = self._kernels[0][0]
            return (pairs if polys[0] is None else pairs * polys[0]).sum().real
        k1, k2 = [base if poly is None else base * poly for (base, _, _), poly in zip(self._kernels, polys)]
        return (np.conj(w) * (k1 @ w @ k2.T)).sum().real

    @cached_property
    def _norm_sq(self) -> np.float64:
        return self._pair_sum()

    def _normalized(self, pair_sum: np.float64) -> float:
        if self._norm_sq <= 0.0:
            raise ZeroProbabilityOutcome("meter state has zero norm; moments undefined")
        return float(pair_sum / self._norm_sq)

    def squared_norm(self) -> float:
        """<state|state>, real and nonnegative."""
        return max(float(self._norm_sq), 0.0)

    def first_moment(self, mu: int = 0) -> float:
        """E[x_mu] of the normalized density."""
        return self._normalized(self._pair_sum(mu))

    def cross_moment(self) -> float:
        """E[x1 x2] of the normalized two-meter density."""
        return self._normalized(self._pair_sum(0, 1))

    def to_xprime(self, mu: int = 0) -> "MeterState":
        """Exact change of meter mu to the x' = 2p basis (unitary, norm
        preserving): the map of the module docstring, on axis mu of the weights."""
        if self.bases[mu] != BASIS_X:
            raise BasisMismatch(f"meter {mu} is already in the x' basis")
        centers, slopes, bases = list(self.centers), list(self.phase_slopes), list(self.bases)
        c, k = centers[mu], slopes[mu]
        phase = np.exp(1j * k * c)  # term (w, c, k) -> (w e^{ikc}, 2k, -c/2)
        weights = self.weights * (phase if mu == self.weights.ndim - 1 else phase[:, None])
        centers[mu], slopes[mu], bases[mu] = 2.0 * k, -c / 2.0, BASIS_XPRIME
        return MeterState(weights, tuple(centers), tuple(slopes), tuple(bases))

    def amplitude(self, *xs) -> np.ndarray:
        """Complex amplitude on the outer-product grid of one point array
        (scalar or array) per meter: F1 w, or F1 W F2^T."""
        f = [
            _term_values(np.atleast_1d(np.asarray(x, dtype=np.float64)), c, k)
            for x, c, k in zip(xs, self.centers, self.phase_slopes, strict=True)
        ]
        amp = f[0] @ self.weights
        return amp if len(f) == 1 else amp @ f[1].T

    def density(self, *xs):
        """Unnormalized density |amplitude|^2 on the outer-product grid; a
        float when every point is a scalar."""
        amp = self.amplitude(*xs)
        out = amp.real**2 + amp.imag**2
        return float(out.flat[0]) if all(np.ndim(x) == 0 for x in xs) else out


def _term_values(x: np.ndarray, c: np.ndarray, k: np.ndarray) -> np.ndarray:
    """(len(x), len(c)) values of the unit-weight terms (c, k) at the points x."""
    phases = np.exp(1j * np.outer(x, k))
    envelopes = WAVEFUNCTION_NORM * np.exp(-((x[:, None] - c[None, :]) ** 2) / 4.0)
    return phases * envelopes


def _pair_kernel(c: np.ndarray, k: np.ndarray):
    """The pair integrals of one meter's terms (c, k), bra s against ket t.

    Returns (base, m, dk), each (len(c), len(c)): ``base`` is the closed
    form of the module docstring, and ``m`` and ``dk`` build the moment
    polynomial. This is the one copy of the kernel; every pair sum of the
    package goes through it.
    """
    dc = c[:, None] - c[None, :]
    dk = k[None, :] - k[:, None]
    m = (c[:, None] + c[None, :]) / 2.0
    with np.errstate(over="ignore"):  # dc^2 or dk^2 past the float range: exp(-inf) = 0, exact
        base = np.exp(-(dc * dc) / 8.0) * np.exp(1j * dk * m) * np.exp(-(dk * dk) / 2.0)
    return base, m, dk


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic per-stream generator: SeedSequence(seed, spawn_key=(stream,)).

    Parallel workers must each take a distinct ``stream`` index; outputs then
    depend only on (seed, stream), never on scheduling.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
