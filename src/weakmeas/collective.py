"""One meter coupled to N identical systems through the averaged observable.

Each system couples to the meter with strength ``lam / N``. In the x' basis
the couplings act as phases, so post-selecting phi on every system leaves the
meter in

    f(x') = (sum_i w_i e_i(x'))^N * sqrt(G(x')),   e_i = exp(-i lam a_i x' / (2N)),

with ``w_i = <phi|P_i|psi>`` and G the standard normal density. Every result
is a trapezoid quadrature of this one profile over ``|x'| <= 13``, on a grid
sized once per setup (below):

* the post-selection probability and ratio and the x' density and mean
  integrate |f|^2;
* the x-basis amplitude is the Fourier synthesis ``(4 pi)^(-1/2) Int
  exp(i x x'/2) f(x') dx'``. Both the grid and the requested x are evenly
  spaced, so the sum over the grid is a chirp-z transform: Bluestein's
  method does it with three FFTs of the next power of two >= points +
  len(x) - 1, in place of a len(x) x points kernel. The pre-chirp and the
  FFT of the chirp depend only on the x grid and the point count, so
  :func:`collective_x_densities` builds them once per count for all the
  setups it is given, and each setup then costs one FFT, one product and
  one inverse FFT. Unevenly spaced x is refused with ``ValueError``;
* the x mean is ``lam Int |f|^2 Re A_w(x') dx' / Int |f|^2``, because x acts
  as ``2i d/dx'`` on f. Here ``A_w(x') = sum_i a_i w_i e_i / sum_i w_i e_i``
  is the local weak value.

The trapezoid rule converges exponentially on a smooth profile that has
decayed at both ends (Trefethen & Weideman, SIAM Review 2014), so the change
that halving the grid (every other point, both edges kept) makes to a result
bounds its error. Halving cannot see an alias: a sum over the grid repeats
in x with period 4 pi / dx', and so does the sum over its half. So the grid
first reaches past the spread of frequencies, by ``_ALIAS_MARGIN``: lam
(a_max - a_min) for |f|^2, and the widest |x - lam a_i| for the synthesis on
the requested x. From there, and from 513 points at least, it doubles, up to
8193, until halving moves the norm by at most ``_NORM_RTOL`` relative and
the x' mean by at most ``_MEAN_ATOL``; :func:`collective_x_densities` asks
the same of the x density on the requested x, within ``_X_DENSITY_ATOL``.
A spread or a delta still out of reach at 8193 points is refused with
``GridTooCoarse``. The synthesis weighs the two edge points by one half, as
the trapezoid rule does.

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
# Grid sizes 2**k + 1, so halving keeps every other point and both edges.
# The first grid is compared with its 257-point half.
_FIRST_POINTS = 513
_MAX_POINTS = 8193
_EDGE_DENSITY_TOL = 1e-15  # |f|^2 at the grid edge, relative to its peak
_NORM_RTOL = 1e-12  # halving delta of the norm, relative
_MEAN_ATOL = 1e-12  # halving delta of the x' mean
_X_DENSITY_ATOL = 1e-10  # halving delta of the normalized x density
_ALIAS_MARGIN = 18.0  # synthesis period past the spread of frequencies, in x
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
        a = self.observable.eigensystem.eigenvalues
        reach = abs(self.coupling) * float(a.max() - a.min())
        return _xprime_profile(self, _points_for_reach(reach, "x' profile"))


@dataclass(frozen=True)
class _Profile:
    """f(x') / (<phi|psi>^N e^scale) on the quadrature grid."""

    grid: np.ndarray
    amplitude: np.ndarray  # the two edge values halved: the synthesis's trapezoid weights
    density: np.ndarray  # |f|^2 on the same scale, peak 1
    norm: float  # trapezoid integral of density
    scale: float
    local_weak_value: np.ndarray

    def mean(self, values: np.ndarray) -> float:
        """The trapezoid average of ``values`` under the density."""
        return float(np.trapezoid(values * self.density, self.grid) / self.norm)

    def halved(self) -> "_Profile":
        """The same profile on every other grid point, both edges kept."""
        grid, density = self.grid[::2], self.density[::2]
        return _Profile(
            grid,
            self.amplitude[::2],
            density,
            float(np.trapezoid(density, grid)),
            self.scale,
            self.local_weak_value[::2],
        )


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


def _points_for_reach(reach: float, what: str) -> int:
    """The fewest grid points, from ``_FIRST_POINTS`` on by doubling, whose
    period 4 pi / dx' in x exceeds ``reach`` by ``_ALIAS_MARGIN``: every
    alias then falls past exp(-9^2 / 2) of the Gaussian envelope's spectrum.
    GridTooCoarse past ``_MAX_POINTS``.
    """
    points = _FIRST_POINTS
    while (period := 2.0 * math.pi * (points - 1) / _XPRIME_HALFWIDTH) < reach + _ALIAS_MARGIN:
        if points >= _MAX_POINTS:
            raise GridTooCoarse(
                f"collective {what} spans {reach:.6g} in x: {_MAX_POINTS} x' grid points "
                f"resolve {period - _ALIAS_MARGIN:.6g}"
            )
        points = 2 * points - 1
    return points


def _xprime_profile(cs: CollectiveSetup, points: int) -> _Profile:
    """The profile on the first of ``points``, 2 points - 1, ... grid points
    whose halving deltas of the norm and the x' mean are inside their bounds.

    GridTooCoarse if the profile is cut by the grid edge, or if the deltas
    are still outside their bounds at ``_MAX_POINTS``.
    """
    while True:
        grid = np.linspace(-_XPRIME_HALFWIDTH, _XPRIME_HALFWIDTH, points)
        logf, local_wv = _log_xprime_amplitude(cs, grid)
        scale = float(np.max(logf.real))
        amplitude = np.exp(logf - scale)
        density = amplitude.real**2 + amplitude.imag**2  # peak 1
        amplitude[[0, -1]] *= 0.5  # trapezoid weights of the x synthesis
        norm = float(np.trapezoid(density, grid))
        local_wv = np.where(density > 0.0, local_wv, 0.0)  # A_w is undefined where f = 0
        prof = _Profile(grid, amplitude, density, norm, scale, local_wv)
        coarse = prof.halved()
        norm_delta = abs(coarse.norm - norm) / norm
        mean_delta = abs(coarse.mean(coarse.grid) - prof.mean(grid))
        converged = norm_delta <= _NORM_RTOL and mean_delta <= _MEAN_ATOL
        if converged or points >= _MAX_POINTS:
            break
        points = 2 * points - 1
    edge = max(density[0], density[-1])
    if edge > _EDGE_DENSITY_TOL:
        raise GridTooCoarse(
            f"collective x' profile is cut by the grid edge |x'| = {_XPRIME_HALFWIDTH}: "
            f"density there is {edge:.3e} of its peak, tolerance {_EDGE_DENSITY_TOL}"
        )
    if not converged:
        raise GridTooCoarse(
            f"collective x' profile is not resolved by {points} grid points: halving the grid "
            f"moves the norm by {norm_delta:.3e} relative (tolerance {_NORM_RTOL}) and the x' mean "
            f"by {mean_delta:.3e} (tolerance {_MEAN_ATOL})"
        )
    return prof


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

    Each setup's grid must resolve the spread from x to its branch centres
    (:func:`_points_for_reach`), and its density must move by at most
    ``_X_DENSITY_ATOL`` when the grid is halved. A setup whose grid falls
    short is refined by doubling it, and keeps the finer grid for its later
    results; at ``_MAX_POINTS`` it is refused with GridTooCoarse. Setups on
    grids of the same size share one chirp-z kernel, built once per call.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    kernels: dict[int, Callable[[np.ndarray], np.ndarray]] = {}

    def refined(cs: CollectiveSetup, points: int) -> _Profile:
        cs.__dict__["_profile"] = _xprime_profile(cs, points)  # as cached_property stores it
        return cs._profile

    def density(prof: _Profile) -> np.ndarray:
        if prof.grid.size not in kernels:
            kernels[prof.grid.size] = _x_synthesis_density(prof.grid, x)
        # the synthesis is unitary, so the profile's norm normalizes it
        return kernels[prof.grid.size](prof.amplitude) / prof.norm

    out = []
    for cs in setups:
        prof = cs._profile
        centres = cs.coupling * cs.observable.eigensystem.eigenvalues
        reach = max(np.max(x, initial=-math.inf) - centres.min(), centres.max() - np.min(x, initial=math.inf))
        points = _points_for_reach(float(reach), "x density window")
        if prof.grid.size < points:
            prof = refined(cs, points)
        while True:
            dens = density(prof)
            delta = float(np.max(np.abs(dens - density(prof.halved())), initial=0.0))
            if delta <= _X_DENSITY_ATOL:
                break
            if prof.grid.size >= _MAX_POINTS:
                raise GridTooCoarse(
                    f"collective x density is not resolved by {prof.grid.size} x' grid points: "
                    f"halving the grid moves it by {delta:.3e}, tolerance {_X_DENSITY_ATOL}"
                )
            prof = refined(cs, 2 * prof.grid.size - 1)
        out.append(dens)
    return out


def collective_conditional_mean(cs: CollectiveSetup, basis: str = BASIS_X) -> float:
    """Conditional meter mean; approaches lam*Re(A_w) (x) or lam*Im(A_w) (x')."""
    check_basis(basis)
    prof = cs._profile
    if basis == BASIS_XPRIME:
        return prof.mean(prof.grid)
    return prof.mean(cs.coupling * prof.local_weak_value.real)
