"""Measurement protocols: von Neumann coupling, post-selection, kicks, sequences.

Every post-selected meter state is built from the eigenbranch weights
w_i = <phi|P_i|psi> of :func:`weakmeas.core.branch_weights`, with one
Gaussian term per distinct eigenvalue a_i:

* von Neumann coupling exp(-i lam A p): term (w_i, lam a_i, 0) in x;
* random kick exp(-i lam A x'/2): term (w_i, 0, -lam a_i / 2) in x'.

Densities, norms and moments then come from the closed forms of
:class:`weakmeas.pointer.MeterState` with no grids or truncation, and the
coherence damping exp(-lam^2 (a_i - a_j)^2 / 8) from one exponent. The
post-selected sequential (two-meter) state is the same class in product form,
W[i, j] = <phi|Q_j P_i|psi> over the eigenprojectors of the two observables,
with one Gaussian term per eigenvalue on each meter.

Order convention for sequential measurements: ``first`` acts first, i.e. its
unitary is applied to the initial state before ``second``'s.

Weak-limit checks are done by regression on a coupling grid rather than
symbolic expansion: the conditional mean divided by lambda is an even
function of lambda (flip the sign of lambda and of the meter axis and every
density is invariant), so shift/lambda is regressed on lambda^2 and the
intercept is the extrapolated weak-limit value. The one fit is
:func:`extrapolate_to_zero_coupling`, a straight line in lambda**power:
power 2 for these even diagnostics, power 1 for the threshold protocol's
truncated means, which are not even in lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityMatrix,
    Observable,
    PureState,
    branch_components,
    branch_weights,
    check_dimensions,
    matrix_weak_value,
    postselection_overlap,
    weak_value,
)
from .errors import DomainError, NumericalQualityError
from .pointer import BASIS_X, BASIS_XPRIME, MeterState, check_basis

LOW_PROBABILITY_FLOOR = 1e-12
DENSITY_QUADRATURE_TOL = 1e-8
BRANCH_HALFWIDTH = 10.0  # past this a branch adds at most G(10) ~ 7.7e-23 of its weight to a density


@dataclass(frozen=True)
class MeasurementSetup:
    """One weak measurement with post-selection."""

    observable: Observable
    coupling: float
    preselect: PureState
    postselect: PureState

    def __post_init__(self):
        check_dimensions(self.observable, self.preselect, self.postselect)
        check_couplings(self.coupling)
        postselection_overlap(self.preselect, self.postselect)


@dataclass(frozen=True)
class SequentialSetup:
    """Two weak measurements (first, then second) before post-selection."""

    first: Observable
    first_coupling: float
    second: Observable
    second_coupling: float
    preselect: PureState
    postselect: PureState
    meter_bases: tuple[str, str] = (BASIS_X, BASIS_X)

    def __post_init__(self):
        check_dimensions(self.first, self.second, self.preselect, self.postselect)
        check_couplings(self.first_coupling, self.second_coupling)
        check_basis(*self.meter_bases)
        postselection_overlap(self.preselect, self.postselect)


@dataclass(frozen=True)
class ConditionalMeter:
    """Post-selected (unnormalized) meter state with its probability."""

    pointer: MeterState
    probability: float
    low_probability: bool


def _eigenbranch_pointer(setup: MeasurementSetup, centers, slopes, basis: str) -> MeterState:
    """One-meter terms (w_i, centers[i], slopes[i]) over the eigenbranch
    weights w_i = <phi|P_i|psi>, unnormalized: the squared norm is the
    post-selection probability."""
    w = branch_weights(setup.observable, setup.preselect, setup.postselect)
    return MeterState(w, (centers,), (slopes,), (basis,))


def conditional_meter_state(setup: MeasurementSetup, basis: str = BASIS_X) -> ConditionalMeter:
    """Meter state after coupling and post-selection, in the requested basis.

    In the x basis, term i sits at coupling * a_i with phase slope 0. A
    probability near zero is legal here; it is flagged rather than refused.
    """
    check_basis(basis)
    a = setup.observable.eigensystem.eigenvalues
    state = _eigenbranch_pointer(setup, setup.coupling * a, np.zeros_like(a), BASIS_X)
    prob = state.squared_norm()
    if basis == BASIS_XPRIME:
        state = state.to_xprime()
    return ConditionalMeter(state, prob, prob < LOW_PROBABILITY_FLOOR)


def postselection_probability(setup: MeasurementSetup) -> float:
    """Exact P_lambda(phi | psi) for the von Neumann protocol."""
    return conditional_meter_state(setup).probability


def _damping_exponent(a: np.ndarray, lam: float) -> np.ndarray:
    """-lam^2 (a_i - a_j)^2 / 8, the coherence damping exponent of branches i, j; -inf past the float range."""
    with np.errstate(over="ignore"):
        return -(lam**2) * (a[:, None] - a[None, :]) ** 2 / 8.0


def postselection_shift(setup: MeasurementSetup) -> float:
    """P_lambda(phi | psi) - |<phi|psi>|^2 without cancellation: the pair sum
    of P with each damping exp(-lam^2 (a_i - a_j)^2 / 8) taken as expm1."""
    a = setup.observable.eigensystem.eigenvalues
    w = branch_weights(setup.observable, setup.preselect, setup.postselect)
    damp = np.expm1(_damping_exponent(a, setup.coupling))  # expm1(-inf) = -1, exact
    return float((np.conj(w) @ damp @ w).real)


def check_couplings(*couplings: float) -> None:
    """Refuse any lam whose square is not finite (NaN, +-Inf or |lam| past about
    1.34e154); every setup type and ``TrialPlan`` checks its couplings here."""
    for lam in couplings:
        if not math.isfinite(lam * lam):
            raise DomainError(f"coupling {lam!r} is out of range: lambda^2 is not a finite float")


def coupling_squared(coupling: float) -> float:
    """lam^2 for a diagnostic that divides by lam or lam^2.

    Refused with DomainError unless lam^2 is a normal float: at lam = 0 the
    ratio is undefined, and a subnormal lam^2 has already lost digits.
    """
    lam_sq = coupling * coupling
    if not lam_sq >= np.finfo(np.float64).tiny:
        raise DomainError(
            f"coupling {coupling!r} is too small to divide by: lambda^2 = {lam_sq!r} "
            "is zero or subnormal"
        )
    return lam_sq


def density_spacing_limit(cm: ConditionalMeter) -> float:
    """Largest spacing h of a uniform grid on which the trapezoid rule
    integrates the density of ``cm`` within ``DENSITY_QUADRATURE_TOL``.

    The unnormalized density is a sum over term pairs (s, t) of
    conj(w_s) w_t exp(-dc^2/8) G(x - m) e^(i dk x) (see :mod:`weakmeas.pointer`),
    whose Fourier transform has modulus at most |w_s| |w_t| exp(-(xi - dk)^2/2).
    By Poisson summation the trapezoid error on an unbounded grid is the sum of
    the transforms at 2 pi n / h, n != 0, so with q = 2 pi / h - max |dk| > 0 it
    is at most (sum_t |w_t|)^2 * 2 r / (1 - r), r = exp(-q^2/2). Setting that to
    the tolerance times the probability P gives the limit.
    """
    w, k = cm.pointer.weights, cm.pointer.phase_slopes[0]
    eps = DENSITY_QUADRATURE_TOL * cm.probability / float(np.sum(np.abs(w))) ** 2
    q = math.sqrt(2.0 * math.log1p(2.0 / eps))  # r = eps / (2 + eps)
    return 2.0 * math.pi / (float(np.ptp(k)) + q)


def conditional_meter_mean(setup: MeasurementSetup, basis: str = BASIS_X) -> float:
    """Exact conditional mean of the meter readout."""
    return conditional_meter_state(setup, basis).pointer.first_moment()


def kick_pointer_state(setup: MeasurementSetup) -> MeterState:
    """Unnormalized x' amplitude of the random-kick protocol.

    The kick unitary exp(-i lam A x'/2) is evaluated in the observable's
    eigenbasis: branch i carries weight <phi|P_i|psi> and phase slope
    -lam a_i / 2 on top of the initial Gaussian.
    """
    a = setup.observable.eigensystem.eigenvalues
    return _eigenbranch_pointer(setup, np.zeros_like(a), -setup.coupling * a / 2.0, BASIS_XPRIME)


def sequential_meter_state(sq: SequentialSetup) -> MeterState:
    """Two-meter post-selected state, meter bases applied, unnormalized: the
    squared norm is the post-selection probability.

    W[i, j] = <Q_j phi|P_i psi> from the projector images of psi and phi;
    meter 1's terms sit at first_coupling * a_i, meter 2's at
    second_coupling * b_j, all with phase slope 0.
    """
    first, second = sq.first.eigensystem, sq.second.eigensystem
    images_a, _ = branch_components(sq.first, sq.preselect)
    images_b, _ = branch_components(sq.second, sq.postselect)
    state = MeterState(
        images_a @ np.conj(images_b).T,
        (sq.first_coupling * first.eigenvalues, sq.second_coupling * second.eigenvalues),
        (np.zeros(first.eigenvalues.size), np.zeros(second.eigenvalues.size)),
        (BASIS_X, BASIS_X),
    )
    for mu, basis in enumerate(sq.meter_bases):
        if basis == BASIS_XPRIME:
            state = state.to_xprime(mu)
    return state


def sequential_joint_density(sq: SequentialSetup, x1, x2):
    """Exact joint conditional density P(x1, x2 | phi, psi) on a grid.

    Scalars give a scalar; arrays give the outer-grid density matrix.
    """
    state = sequential_meter_state(sq)
    return state.density(x1, x2) / state.squared_norm()


def sequential_cross_covariance(sq: SequentialSetup) -> float:
    """Exact E[x1 x2] - E[x1] E[x2] of the conditional joint density."""
    state = sequential_meter_state(sq)
    return state.cross_moment() - state.first_moment(0) * state.first_moment(1)


def sequential_order_gap(sq: SequentialSetup) -> float:
    """Analytic order-dependence coefficient Re[(BA)_w - (AB)_w].

    Zero exactly when the observables commute; for noncommuting pairs this
    is the amount by which swapping the interaction order changes the
    x1 x2 correlation coefficient.
    """
    ba = matrix_weak_value(sq.second.matrix @ sq.first.matrix, sq.preselect, sq.postselect)
    ab = matrix_weak_value(sq.first.matrix @ sq.second.matrix, sq.preselect, sq.postselect)
    return float((ba - ab).real)


def sequential_covariance_coefficient(sq: SequentialSetup) -> float:
    """Weak limit of the cross covariance over first_coupling * second_coupling / 2:
    Re[(-i)^n z], z = (BA)_w - A_w B_w, with n the number of meters read in x'."""
    ba = matrix_weak_value(sq.second.matrix @ sq.first.matrix, sq.preselect, sq.postselect)
    a_w = weak_value(sq.first, sq.preselect, sq.postselect).value
    z = ba - a_w * weak_value(sq.second, sq.preselect, sq.postselect).value
    return float((z.real, z.imag, -z.real)[sq.meter_bases.count(BASIS_XPRIME)])


def nonselective_state(
    observable: Observable, coupling: float, psi: PureState
) -> DensityMatrix:
    """Average the conditional states over outcomes: the non-selective update.

    In the observable's eigenbasis the coherences damp by
    exp(-coupling^2 (a_i - a_j)^2 / 8); the result is mixed unless psi is an
    eigenstate.
    """
    comps, _ = branch_components(observable, psi)
    damp = np.exp(_damping_exponent(observable.eigensystem.eigenvalues, coupling))  # exp(-inf) = 0
    rho = np.einsum("ij,ia,jb->ab", damp, comps, np.conj(comps))
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho)


@dataclass(frozen=True)
class DisturbanceReport:
    """Back-action diagnostics for one measurement setup.

    The defining identity
    ``P_exact - P_unperturbed = <phi| (rho_nonselective - |psi><psi|) |phi>``
    is checked on construction; ``identity_residual`` records the residual.
    """

    postselect_prob_exact: float
    postselect_prob_unperturbed: float
    second_order_coeff: float
    nonselective_purity: float
    fidelity_to_initial: float
    identity_residual: float


def second_order_coefficient(
    observable: Observable, psi: PureState, phi: PureState
) -> float:
    """|<phi|psi>|^2 (|A_w|^2 - Re[(A^2)_w]) / 4, the lam^2 coefficient of the
    post-selection probability and of the integrated error term.

    Raises ``NumericalQualityError`` (exit 4) when the coefficient is not
    finite: past a spectral scale of about 1e154 the squares overflow.
    """
    a_w = weak_value(observable, psi, phi)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result is refused below
        a2_w = matrix_weak_value(observable.matrix @ observable.matrix, psi, phi)
    try:
        coeff = abs(a_w.preselect_overlap) ** 2 * (abs(a_w.value) ** 2 - a2_w.real) / 4.0
    except OverflowError:  # the float power raises where the float product gives inf
        coeff = math.inf
    if not math.isfinite(coeff):
        raise NumericalQualityError(
            f"second-order coefficient overflows float64 (|A_w| = {abs(a_w.value):.3e})"
        )
    return float(coeff)


def disturbance_report(setup: MeasurementSetup) -> DisturbanceReport:
    second_order = second_order_coefficient(setup.observable, setup.preselect, setup.postselect)
    prob_exact = postselection_probability(setup)
    ov = setup.postselect.overlap(setup.preselect)
    prob_unperturbed = float(abs(ov) ** 2)

    rho = nonselective_state(setup.observable, setup.coupling, setup.preselect)
    purity = rho.purity()
    fidelity = rho.expectation_in(setup.preselect)

    lhs = prob_exact - prob_unperturbed
    rhs = rho.expectation_in(setup.postselect) - prob_unperturbed
    residual = abs(lhs - rhs)
    if residual > 1e-12:
        raise NumericalQualityError(f"disturbance identity violated by {residual:.3e} (> 1e-12)")
    return DisturbanceReport(
        postselect_prob_exact=prob_exact,
        postselect_prob_unperturbed=prob_unperturbed,
        second_order_coeff=second_order,
        nonselective_purity=purity,
        fidelity_to_initial=fidelity,
        identity_residual=residual,
    )


def extrapolate_to_zero_coupling(couplings, values, power: int = 2) -> tuple[float, float]:
    """Extrapolate a coupling-grid diagnostic to lambda -> 0.

    Least-squares straight line of ``values`` against lambda**power: 2 for
    the diagnostics that are even in lambda, 1 for those that are not.
    Returns (intercept, rms residual of the fit).
    """
    lam = np.asarray(couplings, dtype=np.float64)
    y = np.asarray(values, dtype=np.float64)
    # sorted as np.unique sorts, NaNs last (np.unique itself imports numpy.ma):
    # with fewer than two distinct values, NaNs as one, the ends are equal or NaN
    ordered = np.sort(lam**power, axis=None)
    if lam.shape != y.shape or not ordered.size or ordered[0] == ordered[-1] or np.isnan(ordered[0]):
        raise ValueError("need two or more distinct lambda**power")
    design = np.vander(lam**power, 2, increasing=True)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))
