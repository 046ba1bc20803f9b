"""One meter coupled to N identical systems through the averaged observable.

Each system couples to the meter with strength ``lam / N``. In the x' basis
the couplings act as phases, so post-selecting phi on every system leaves the
meter in

    f(x') = (sum_i w_i e_i(x'))^N * sqrt(G(x')),   e_i = exp(-i lam a_i x' / (2N)),

with ``w_i = <phi|P_i|psi>`` and G the standard normal density. Every result
is a quadrature of this one profile, evaluated once per setup on a fixed
8192-point grid over ``|x'| <= 13``:

* the post-selection probability and ratio and the x' density and mean
  integrate |f|^2;
* the x-basis amplitude is the Fourier synthesis ``(4 pi)^(-1/2) Int
  exp(i x x'/2) f(x') dx'``. Both the grid and the requested x are evenly
  spaced, so the sum over the grid is a chirp-z transform: Bluestein's
  method does it with three FFTs of the next power of two >= 8192 + len(x)
  - 1 points, in place of a len(x) x 8192 kernel. The pre-chirp and the FFT
  of the chirp depend only on the x and x' grids, so they are built once per
  x grid: :func:`collective_x_densities` shares them across all the setups it
  is given, and each setup then costs one FFT, one product and one inverse
  FFT. Unevenly spaced x is refused with ``ValueError``;
* the x mean is ``lam Int |f|^2 Re A_w(x') dx' / Int |f|^2``, because x acts
  as ``2i d/dx'`` on f. Here ``A_w(x') = sum_i a_i w_i e_i / sum_i w_i e_i``
  is the local weak value.

At large N, |f|^2 is a unit-width Gaussian centred near ``lam Im(A_w)``, so a
large enough coupling pushes it off the grid. When |f|^2 at either edge
exceeds ``_EDGE_DENSITY_TOL`` of its peak, the setup is refused with
``GridTooCoarse`` rather than integrated over a cut profile.

The factor ``<phi|psi>^N`` underflows double precision long before
interesting N, so it is taken out analytically. With
``delta = sum_i w_i expm1(-i lam a_i x' / (2N)) / <phi|psi>``,

    log f - N log<phi|psi> = N log1p(delta) - x'^2/4 - log(2 pi)/4.

delta is O(1/N) and N multiplies the error of its log1p. numpy evaluates the
complex log1p naively, so the real part is taken as
``log1p(2 Re delta + |delta|^2) / 2`` and the phase from arctan2. The cost
does not grow with N and nothing caps it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import branch_weights, weak_value
from .errors import GridTooCoarse, NumericalQualityError
from .pointer import BASIS_X, BASIS_XPRIME, check_basis
from .protocols import MeasurementSetup

_XPRIME_HALFWIDTH = 13.0
_XPRIME_POINTS = 8192
_EDGE_DENSITY_TOL = 1e-15  # |f|^2 at the grid edge, relative to its peak
_SPACING_TOL = 1e-13  # x off an even lattice, relative to max |x|


@dataclass(frozen=True)
class CollectiveSetup(MeasurementSetup):
    """N systems in psi, one meter, post-selection of phi on every system."""

    n_systems: int

    def __post_init__(self):
        super().__post_init__()
        if self.n_systems < 1:
            raise ValueError("n_systems must be >= 1")

    @cached_property
    def _profile(self) -> "_Profile":
        return _xprime_profile(self)


@dataclass(frozen=True)
class _Profile:
    """f(x') / (<phi|psi>^N e^scale) on the quadrature grid."""

    grid: np.ndarray
    amplitude: np.ndarray
    density: np.ndarray  # |amplitude|^2
    norm: float  # trapezoid integral of density
    scale: float
    local_weak_value: np.ndarray


def _log_xprime_amplitude(cs: CollectiveSetup, xprime):
    """log f(x') - N log<phi|psi>, and the local weak value A_w(x')."""
    eigenvalues = cs.observable.eigensystem.eigenvalues
    w = branch_weights(cs.observable, cs.preselect, cs.postselect)
    ov = w.sum()
    xp = np.atleast_1d(np.asarray(xprime, dtype=np.float64))
    kicks = np.expm1(-0.5j * cs.coupling / cs.n_systems * np.outer(xp, eigenvalues))
    delta = kicks @ w / ov
    with np.errstate(divide="ignore", invalid="ignore"):
        log_modulus = 0.5 * np.log1p(2.0 * delta.real + (delta.real**2 + delta.imag**2))
        local_wv = (kicks @ (eigenvalues * w) + np.dot(eigenvalues, w)) / (ov * (1.0 + delta))
    log1p_delta = log_modulus + 1j * np.arctan2(delta.imag, 1.0 + delta.real)
    logf = cs.n_systems * log1p_delta - xp * xp / 4.0 - 0.25 * math.log(2.0 * math.pi)
    return logf, local_wv


def _xprime_profile(cs: CollectiveSetup) -> _Profile:
    grid = np.linspace(-_XPRIME_HALFWIDTH, _XPRIME_HALFWIDTH, _XPRIME_POINTS)
    logf, local_wv = _log_xprime_amplitude(cs, grid)
    scale = float(np.max(logf.real))
    amplitude = np.exp(logf - scale)
    density = amplitude.real**2 + amplitude.imag**2  # peak 1
    edge = max(density[0], density[-1])
    if edge > _EDGE_DENSITY_TOL:
        raise GridTooCoarse(
            f"collective x' profile is cut by the grid edge |x'| = {_XPRIME_HALFWIDTH}: "
            f"density there is {edge:.3e} of its peak, tolerance {_EDGE_DENSITY_TOL}"
        )
    norm = float(np.trapezoid(density, grid))
    local_wv = np.where(density > 0.0, local_wv, 0.0)  # A_w is undefined where f = 0
    return _Profile(grid, amplitude, density, norm, scale, local_wv)


def _x_synthesis_density(grid: np.ndarray, x: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map f -> |(4 pi)^(-1/2) sum_k f(x'_k) e^(i x_j x'_k / 2) dx'|^2 for
    amplitudes f on ``grid``, by chirp-z.

    On centred indices, x_j = x_c + j dx and x'_k = g_c + k dg. With
    a = dx dg / 2, jk = (j^2 + k^2 - (j - k)^2) / 2 turns the sum into
    e^(i (x_c g_c + j dx g_c + a j^2) / 2) times one linear convolution of
    f_k e^(i (x_c k dg + a k^2) / 2) with e^(-i a (j - k)^2 / 2), done by
    FFT (Bluestein). The factor in front has unit modulus and drops out.
    The pre-chirp and the FFT of the chirp depend only on the two grids and
    are built here, once; each f then costs one FFT, one product and one
    inverse FFT.
    """
    m, n = x.size, grid.size
    if m == 0:
        return lambda amplitude: np.zeros(0)
    j = np.arange(m) - 0.5 * (m - 1)
    k = np.arange(n) - 0.5 * (n - 1)
    x_c = 0.5 * (x[0] + x[-1])
    dx = (x[-1] - x[0]) / max(m - 1, 1)
    if np.max(np.abs(x - (x_c + j * dx))) > _SPACING_TOL * np.max(np.abs(x)):
        raise ValueError("the collective x-basis density needs evenly spaced x")
    dg = (grid[-1] - grid[0]) / (n - 1)
    a = 0.5 * dx * dg
    size = 1 << (n + m - 2).bit_length()  # a power of two >= n + m - 1
    prechirp = np.exp(0.5j * (x_c * dg * k + a * k * k))
    j_minus_k = np.arange(1 - n, m) + 0.5 * (n - m)
    chirp = np.fft.fft(np.exp(-0.5j * a * j_minus_k * j_minus_k), size)

    def density(amplitude: np.ndarray) -> np.ndarray:
        chirped = np.fft.fft(amplitude * prechirp, size)
        amp = np.fft.ifft(chirped * chirp)[n - 1 : n - 1 + m] * dg / math.sqrt(4.0 * math.pi)
        return amp.real**2 + amp.imag**2

    return density


def collective_postselection_ratio(cs: CollectiveSetup) -> float:
    """P_lambda(phi^N | psi^N) / |<phi|psi>|^(2N).

    Converges to exp(lam^2 Im(A_w)^2 / 2) as N grows: relative to the
    undisturbed value, the collective coupling's effect does not fade.
    """
    prof = cs._profile
    return math.exp(2.0 * prof.scale + math.log(prof.norm))


def collective_ratio_limit(cs: CollectiveSetup) -> float:
    """exp(lam^2 Im(A_w)^2 / 2), the large-N limit of the post-selection ratio
    (``cs.n_systems`` plays no part); NumericalQualityError past the float range."""
    im_a_w = weak_value(cs.observable, cs.preselect, cs.postselect).value.imag
    exponent = cs.coupling * cs.coupling * im_a_w**2 / 2.0
    if not exponent <= math.log(np.finfo(np.float64).max):
        raise NumericalQualityError(f"collective ratio limit exp({exponent:.6g}) exceeds the float range")
    return math.exp(exponent)


def collective_conditional_density(cs: CollectiveSetup, basis: str, x):
    """Normalized conditional meter density in the x or x' basis.

    In the x basis, ``x`` must be evenly spaced (a scalar or a single point
    is); otherwise ``ValueError`` is raised.
    """
    check_basis(basis)
    scalar = np.ndim(x) == 0
    prof = cs._profile
    if basis == BASIS_XPRIME:
        logf, _ = _log_xprime_amplitude(cs, x)
        out = np.exp(2.0 * (logf.real - prof.scale)) / prof.norm
    else:
        (out,) = collective_x_densities([cs], x)
    return float(out[0]) if scalar else out


def collective_x_densities(setups: Sequence[CollectiveSetup], x) -> list[np.ndarray]:
    """Normalized conditional x-basis densities of ``setups`` on one evenly
    spaced ``x`` (``ValueError`` otherwise), one array per setup.

    Every setup integrates on the same x' grid, so one chirp-z kernel serves
    them all: it is built once per call, not once per setup.
    """
    if not setups:
        return []
    x = np.ravel(np.asarray(x, dtype=np.float64))
    synthesize = _x_synthesis_density(setups[0]._profile.grid, x)
    # the synthesis is unitary, so the profile's norm normalizes it
    return [synthesize(cs._profile.amplitude) / cs._profile.norm for cs in setups]


def collective_conditional_mean(cs: CollectiveSetup, basis: str = BASIS_X) -> float:
    """Conditional meter mean; approaches lam*Re(A_w) (x) or lam*Im(A_w) (x')."""
    check_basis(basis)
    prof = cs._profile
    if basis == BASIS_XPRIME:
        weighted = prof.grid * prof.density
    else:
        weighted = cs.coupling * prof.local_weak_value.real * prof.density
    return float(np.trapezoid(weighted, prof.grid) / prof.norm)
