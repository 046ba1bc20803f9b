"""The joint = P^w + error split of the weak measurement's outcome density.

The measurement on the system alone is described by outcome-indexed operators
``M_x = sum_i sqrt(G(x - lam a_i)) P_i`` (diagonal in the observable's
eigenbasis, Hermitian positive for this family; the free overall phase is
fixed to that branch). The joint outcome density |<phi|M_x|psi>|^2 splits
into an anticommutator part

    pw(x) = |<phi|psi>|^2 * Re[(M_x^dag M_x)_w]

and an error term expressed through the Lindblad super-operator

    L[M](O) = ([M^dag, O] M + M^dag [O, M]) / 2,
    error(x) = <psi| L[M_x](|phi><phi|) |psi>.

The three quantities are computed through three different routes (the
amplitude closed form, the Gaussian sum and the branch form of
:func:`error_term_density`), so their pointwise identity is a real
cross-check rather than a tautology.

pw integrates to |<phi|psi>|^2 and its conditional mean is lam * Re(A_w)
exactly (no higher-order corrections for this family); the error term
integrates to the post-selection probability shift and is O(lam^2) pointwise
without being ignorable in the weak limit.

The GDI report's integrals are closed forms (the pointer's first moment,
lam * Re(A_w) and :func:`weakmeas.protocols.postselection_shift`). Only the
largest |error| is a maximum over a grid, of the branch form, at evenly
spaced points around each branch centre lam * a_i.
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
_BRANCH_CHUNK = 1 << 14  # e_i values held at once by _branch_error: 128 KiB of float64


def integration_interval(observable: Observable, coupling: float) -> tuple[float, float]:
    half = BRANCH_HALFWIDTH + abs(coupling) * observable.spectral_radius
    return -half, half


def gauss_legendre(lo: float, hi: float, n: int = GAUSS_LEGENDRE_NODES):
    """Nodes and weights for Gauss-Legendre quadrature on [lo, hi]."""
    base_x, base_w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (hi - lo) * base_x + 0.5 * (hi + lo)
    w = 0.5 * (hi - lo) * base_w
    return x, w


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


def _branch_error(w: np.ndarray, mu: np.ndarray, offsets, ref) -> np.ndarray:
    """joint - pw at the outcomes x = mu[ref] + offsets, from the branch form.

    With s_i = sqrt(G(x - mu_i)) = s_r (1 + e_i) for the reference branch r,
    joint - pw = -1/2 sum_ij Re(conj(w_i) w_j) (s_i - s_j)^2 = -s_r^2 [sum_i
    e_i^2 Re(conj(w_i) <phi|psi>) - |sum_i w_i e_i|^2], and e_i = expm1((mu_i -
    mu_r) (2 (x - mu_r) - (mu_i - mu_r)) / 4) is O(lam): no O(1) densities
    cancel as lam -> 0.

    The arrays ``offsets`` and ``ref`` broadcast together; their rows are
    taken a bounded batch at a time, and an operand of one row serves all.
    """
    shape = np.broadcast_shapes(offsets.shape, ref.shape)
    coeff = (np.conj(w) * w.sum()).real
    out = np.empty(shape)
    step = max(1, _BRANCH_CHUNK // (np.prod(shape[1:], dtype=int) * mu.size))
    for lo in range(0, shape[0], step):
        off, r = (a if a.shape[0] == 1 else a[lo : lo + step] for a in (offsets, ref))
        gap = mu - mu[r][..., None]  # mu_i - mu_r
        with np.errstate(over="ignore"):  # an exponent past -1.8e308: expm1(-inf) = -1, exact
            e = np.expm1(gap * (2.0 * off[..., None] - gap) / 4.0)
        amp = e @ w
        bracket = (e * e) @ coeff - (amp.real**2 + amp.imag**2)
        out[lo : lo + step] = -gaussian_density(off) * bracket
    return out


def error_term_density(
    observable: Observable, coupling: float, psi: PureState, phi: PureState, x
):
    """<psi| L[M_x](|phi><phi|) |psi> = joint - pw by :func:`_branch_error`, with
    the branch centre nearest to x as the reference: every e_i lies in [-1, 0]
    up to rounding, so nothing overflows at any separation of the branches."""
    w = branch_weights(observable, psi, phi)
    mu = coupling * observable.eigensystem.eigenvalues
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(mu)
    ref = order[np.searchsorted(0.5 * (mu[order][1:] + mu[order][:-1]), x.ravel())]
    out = _branch_error(w, mu, x.ravel() - mu[ref], ref)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def decompose_on_grid(
    observable: Observable, coupling: float, psi: PureState, phi: PureState, xs
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Outcomes x with the joint density and its pw and error parts there.

    Raises ``NumericalQualityError`` (exit 4) if the joint density is negative
    or NaN anywhere, or differs from pw + error by more than 1e-12.
    """
    xs = np.asarray(xs, dtype=np.float64)
    joint = joint_probability_density(observable, coupling, psi, phi, xs)
    pw = pw_density(observable, coupling, psi, phi, xs)
    err = error_term_density(observable, coupling, psi, phi, xs)
    # written so that a NaN fails them too
    if not (joint >= 0.0).all():
        raise NumericalQualityError("joint density must be nonnegative")
    if not (np.abs(joint - (pw + err)) <= 1e-12).all():
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
    BRANCH_HALFWIDTH of each branch centre mu_r = lam * a_r, with that centre
    as the reference of :func:`_branch_error`."""
    w = branch_weights(setup.observable, setup.preselect, setup.postselect)
    mu = setup.coupling * setup.observable.eigensystem.eigenvalues
    offsets = np.linspace(-BRANCH_HALFWIDTH, BRANCH_HALFWIDTH, points)[None, :]  # x - mu_r
    return float(np.max(np.abs(_branch_error(w, mu, offsets, np.arange(mu.size)[:, None]))))


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
