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

The GDI report's integrals are closed forms (the pointer's first moment,
lam * Re(A_w) and :func:`weakmeas.protocols.postselection_shift`). Only the
largest |error| is a maximum over a grid, of a form that does not cancel as
lam -> 0, at evenly spaced points around each branch centre lam * a_i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Observable, PureState, branch_weights, weak_value
from .errors import NumericalQualityError
from .pointer import gaussian_density
from .protocols import (  # second_order_coefficient is re-exported for callers of this module
    BRANCH_HALFWIDTH,
    MeasurementSetup,
    conditional_meter_mean,
    coupling_squared,
    postselection_shift,
    second_order_coefficient,
)

GAUSS_LEGENDRE_NODES = 400
MAX_ERROR_GRID_POINTS = 1024  # per branch centre


def integration_interval(observable: Observable, coupling: float) -> tuple[float, float]:
    half = BRANCH_HALFWIDTH + abs(coupling) * observable.spectral_radius
    return -half, half


def gauss_legendre(lo: float, hi: float, n: int = GAUSS_LEGENDRE_NODES):
    """Nodes and weights for Gauss-Legendre quadrature on [lo, hi]."""
    base_x, base_w = np.polynomial.legendre.leggauss(n)
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
        k, d, _ = system.projectors.shape
        return (amp @ system.projectors.reshape(k, d * d)).reshape(len(xs), d, d)


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
    """<psi| L[M_x](|phi><phi|) |psi>, evaluated from the dense Kraus operators.

    With O = |phi><phi| the super-operator expands to
    |<phi|M psi>|^2 - Re(<psi|phi><M phi|M psi>), so each M_x is applied to
    the two vectors and no d x d product is formed.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    m = KrausFamily(observable, coupling).at_many(xs)
    m_psi = m @ psi.amplitudes
    m_phi = m @ phi.amplitudes
    outcome = m_psi @ np.conj(phi.amplitudes)
    cross = np.sum(np.conj(m_phi) * m_psi, axis=1) * psi.overlap(phi)
    vals = outcome.real**2 + outcome.imag**2 - cross.real
    return float(vals[0]) if scalar else vals


def decompose_on_grid(
    observable: Observable, coupling: float, psi: PureState, phi: PureState, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes x with the joint density and its pw and error parts there.

    Raises ``NumericalQualityError`` (exit 4) if the joint density is negative
    anywhere or differs from pw + error by more than 1e-12.
    """
    xs = np.asarray(xs, dtype=np.float64)
    joint = joint_probability_density(observable, coupling, psi, phi, xs)
    pw = pw_density(observable, coupling, psi, phi, xs)
    err = error_term_density(observable, coupling, psi, phi, xs)
    if np.any(joint < 0.0):
        raise NumericalQualityError("joint density must be nonnegative")
    if np.any(np.abs(joint - (pw + err)) > 1e-12):
        raise NumericalQualityError("joint != pw + error beyond 1e-12")
    return xs, joint, pw, err


@dataclass(frozen=True)
class GdiReport:
    """Numbers bearing on whether the error term may be neglected.

    ``mean_pw`` equals ``coupling * Re(A_w)`` exactly for every coupling;
    ``mean_full`` is the physically observed conditional mean. Their gap is
    what neglecting the error term would hide. No verdict is encoded.
    """

    coupling: float
    max_error_over_coupling_sq: float
    integrated_error_over_coupling_sq: float
    mean_full: float
    mean_pw: float
    mean_gap: float
    weak_value_shift: float


def _max_abs_error(setup: MeasurementSetup, points: int = MAX_ERROR_GRID_POINTS) -> float:
    """max |joint - pw| over ``points`` evenly spaced outcomes within
    BRANCH_HALFWIDTH of each branch centre mu_r = lam * a_r.

    With s_i = sqrt(G(x - mu_i)) = s_r (1 + e_i), joint - pw = -1/2 sum_ij
    Re(conj(w_i) w_j) (s_i - s_j)^2 = -s_r^2 [sum_i e_i^2 Re(conj(w_i) <phi|psi>)
    - |sum_i w_i e_i|^2], and e_i = expm1((mu_i - mu_r) (2 (x - mu_r) - (mu_i -
    mu_r)) / 4) is O(lam): no O(1) densities cancel as lam -> 0.
    """
    w = branch_weights(setup.observable, setup.preselect, setup.postselect)
    mu = setup.coupling * setup.observable.eigensystem.eigenvalues
    offsets = np.linspace(-BRANCH_HALFWIDTH, BRANCH_HALFWIDTH, points)  # x - mu_r
    gap = (mu[None, :] - mu[:, None])[:, None, :]  # [r, ., i]: mu_i - mu_r
    e = np.expm1(gap * (2.0 * offsets[None, :, None] - gap) / 4.0)  # [r, x, i]
    amp = e @ w
    bracket = (e * e) @ (np.conj(w) * w.sum()).real - (amp.real**2 + amp.imag**2)
    return float(np.max(np.abs(gaussian_density(offsets) * bracket)))


def gdi_diagnostic(
    observable: Observable, coupling: float, psi: PureState, phi: PureState
) -> GdiReport:
    shift = coupling * weak_value(observable, psi, phi).value.real
    if coupling == 0.0:
        return GdiReport(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    setup = MeasurementSetup(observable, coupling, psi, phi)
    lam_sq = coupling_squared(coupling)
    mean_full = conditional_meter_mean(setup)
    return GdiReport(
        coupling=coupling,
        max_error_over_coupling_sq=_max_abs_error(setup) / lam_sq,
        integrated_error_over_coupling_sq=postselection_shift(setup) / lam_sq,
        mean_full=mean_full,
        mean_pw=shift,
        mean_gap=mean_full - shift,
        weak_value_shift=shift,
    )
