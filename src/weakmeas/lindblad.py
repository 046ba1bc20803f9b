"""Kraus family of the weak measurement and its joint = P^w + error split.

The measurement on the system alone is described by outcome-indexed operators
``M_x = sum_i sqrt(G(x - lam a_i)) P_i`` (diagonal in the observable's
eigenbasis, Hermitian positive for this family; the free overall phase is
fixed to that branch). The joint outcome density |<phi|M_x|psi>|^2 splits
into an anticommutator part

    pw(x) = |<phi|psi>|^2 * Re[(M_x^dag M_x)_w]

and an error term expressed through the Lindblad super-operator

    L[M](O) = ([M^dag, O] M + M^dag [O, M]) / 2,
    error(x) = <psi| L[M_x](|phi><phi|) |psi>.

The three quantities are computed through three different routes (amplitude
closed form, per-eigenvalue closed form, dense matrix algebra), so their
pointwise identity is a real cross-check rather than a tautology.

pw integrates to |<phi|psi>|^2 and its conditional mean is lam * Re(A_w)
exactly (no higher-order corrections for this family); the error term
integrates to the post-selection probability shift and is O(lam^2) pointwise
without being ignorable in the weak limit.

x-integrals use Gauss-Legendre quadrature with 400 nodes over
``|x| <= 10 + |lam| * spectral_radius``; closed forms are used where
available and quadrature is kept as the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import Observable, PureState, branch_weights, matrix_weak_value, weak_value
from .pointer import gaussian_density

GAUSS_LEGENDRE_NODES = 400
MAX_ERROR_GRID_POINTS = 1024


def integration_interval(observable: Observable, coupling: float) -> tuple[float, float]:
    half = 10.0 + abs(coupling) * observable.spectral_radius
    return -half, half


@lru_cache(maxsize=32)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def gauss_legendre(lo: float, hi: float, n: int = GAUSS_LEGENDRE_NODES):
    """Nodes and weights for Gauss-Legendre quadrature on [lo, hi]."""
    base_x, base_w = _leggauss(n)
    x = 0.5 * (hi - lo) * base_x + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * base_w
    return x, w


@dataclass(frozen=True)
class KrausFamily:
    """Outcome-indexed measurement operators of the pointer readout."""

    observable: Observable
    coupling: float

    def at_many(self, xs) -> np.ndarray:
        """M_x = sum_i sqrt(G(x - lam a_i)) P_i over an outcome array, shape
        (len(xs), d, d)."""
        system = self.observable.eigensystem
        xs = np.asarray(xs, dtype=np.float64)
        amp = np.sqrt(gaussian_density(xs[:, None] - self.coupling * system.eigenvalues))
        return np.einsum("ni,ijk->njk", amp, system.projectors)

    def completeness_residual(self, nodes: int = GAUSS_LEGENDRE_NODES) -> float:
        """max |Int M_x^dag M_x dx - 1| elementwise, by quadrature."""
        lo, hi = integration_interval(self.observable, self.coupling)
        xs, wts = gauss_legendre(lo, hi, nodes)
        m = self.at_many(xs)
        gram = np.einsum("n,nji,njk->ik", wts, np.conj(m), m)
        return float(np.max(np.abs(gram - np.eye(self.observable.dim))))


def joint_probability_density(
    observable: Observable, coupling: float, psi: PureState, phi: PureState, x
):
    """P_lam(x, phi | psi) = |<phi|M_x|psi>|^2 (amplitude closed form)."""
    eigenvalues = observable.eigensystem.eigenvalues
    w = branch_weights(observable, psi, phi)
    x = np.asarray(x, dtype=np.float64)
    amp = np.sqrt(gaussian_density(x[..., None] - coupling * eigenvalues)) @ w
    out = amp.real**2 + amp.imag**2
    return float(out) if out.ndim == 0 else out


def pw_density(
    observable: Observable, coupling: float, psi: PureState, phi: PureState, x
):
    """Anticommutator part of the joint density (may go negative)."""
    eigenvalues = observable.eigensystem.eigenvalues
    w = branch_weights(observable, psi, phi)
    ov = phi.overlap(psi)
    coeff = (w * np.conj(ov)).real
    x = np.asarray(x, dtype=np.float64)
    out = gaussian_density(x[..., None] - coupling * eigenvalues) @ coeff
    return float(out) if out.ndim == 0 else out


def error_term_density(
    observable: Observable, coupling: float, psi: PureState, phi: PureState, x
):
    """<psi| L[M_x](|phi><phi|) |psi>, evaluated with dense matrix algebra."""
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    m = KrausFamily(observable, coupling).at_many(xs)
    md = np.conj(np.transpose(m, (0, 2, 1)))
    op = phi.projector()[None, :, :]
    lind = 0.5 * ((md @ op - op @ md) @ m + md @ (op @ m - m @ op))
    v = psi.amplitudes
    vals = np.real(np.einsum("a,nab,b->n", np.conj(v), lind, v))
    return float(vals[0]) if scalar else vals


@dataclass(frozen=True)
class DecompositionSample:
    """One outcome with its joint density split into pw + error."""

    x: float
    joint_p: float
    pw: float
    error: float

    def __post_init__(self):
        if self.joint_p < 0.0:
            raise ValueError("joint density must be nonnegative")
        if abs(self.joint_p - (self.pw + self.error)) > 1e-12:
            raise ValueError("joint != pw + error beyond 1e-12")


def decompose_on_grid(
    observable: Observable,
    coupling: float,
    psi: PureState,
    phi: PureState,
    xs,
) -> list[DecompositionSample]:
    xs = np.asarray(xs, dtype=np.float64)
    joint = joint_probability_density(observable, coupling, psi, phi, xs)
    pw = pw_density(observable, coupling, psi, phi, xs)
    err = error_term_density(observable, coupling, psi, phi, xs)
    return [
        DecompositionSample(float(x), float(j), float(p), float(e))
        for x, j, p, e in zip(xs, joint, pw, err)
    ]


@dataclass(frozen=True)
class GdiReport:
    """Numbers bearing on whether the error term may be neglected.

    ``mean_pw`` equals ``coupling * Re(A_w)`` up to quadrature error for every
    coupling; ``mean_full`` is the physically observed conditional mean. Their
    gap is what neglecting the error term would hide. No verdict is encoded.
    """

    coupling: float
    max_error_over_coupling_sq: float
    integrated_error_over_coupling_sq: float
    mean_full: float
    mean_pw: float
    mean_gap: float
    weak_value_shift: float


def gdi_diagnostic(
    observable: Observable, coupling: float, psi: PureState, phi: PureState
) -> GdiReport:
    a_w = weak_value(observable, psi, phi).value
    shift = coupling * a_w.real
    if coupling == 0.0:
        return GdiReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    lo, hi = integration_interval(observable, coupling)
    xs, wts = gauss_legendre(lo, hi)
    joint = joint_probability_density(observable, coupling, psi, phi, xs)
    pw = pw_density(observable, coupling, psi, phi, xs)
    err = error_term_density(observable, coupling, psi, phi, xs)
    grid = np.linspace(lo, hi, MAX_ERROR_GRID_POINTS)
    err_grid = error_term_density(observable, coupling, psi, phi, grid)
    lam_sq = coupling * coupling
    mean_full = float((wts * xs * joint).sum() / (wts * joint).sum())
    mean_pw = float((wts * xs * pw).sum() / (wts * pw).sum())
    return GdiReport(
        coupling=coupling,
        max_error_over_coupling_sq=float(np.max(np.abs(err_grid)) / lam_sq),
        integrated_error_over_coupling_sq=float((wts * err).sum() / lam_sq),
        mean_full=mean_full,
        mean_pw=mean_pw,
        mean_gap=mean_full - mean_pw,
        weak_value_shift=shift,
    )


def second_order_coefficient(
    observable: Observable, psi: PureState, phi: PureState
) -> float:
    """|<phi|psi>|^2 (|A_w|^2 - Re[(A^2)_w]) / 4, the lam^2 coefficient of the
    post-selection probability and of the integrated error term."""
    a_w = weak_value(observable, psi, phi)
    a2_w = matrix_weak_value(observable.matrix @ observable.matrix, psi, phi)
    return float(
        abs(a_w.preselect_overlap) ** 2 * (abs(a_w.value) ** 2 - a2_w.real) / 4.0
    )
