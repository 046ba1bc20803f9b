"""Protocol layer: eigenbranch meter states, post-selection, kicks, sequences."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import (
    SX,
    SY,
    SZ,
    branch_sum_sequential,
    conditional_system_state,
    degenerate_observable,
    random_observable,
    random_selection_pair,
    random_state,
)
from weakmeas.core import (
    Observable,
    PureState,
    branch_components,
    branch_weights,
    expectation,
    matrix_weak_value,
    weak_value,
)
from weakmeas.collective import CollectiveSetup
from weakmeas.errors import (
    DimensionMismatch,
    DomainError,
    OrthogonalPostselection,
    ZeroProbabilityOutcome,
)
from weakmeas.lindblad import KrausFamily, gauss_legendre
from weakmeas.pointer import BASIS_X, BASIS_XPRIME, gaussian_density, moment
from weakmeas.protocols import (
    MeasurementSetup,
    SequentialSetup,
    conditional_meter_density,
    conditional_meter_mean,
    conditional_meter_state,
    disturbance_report,
    extrapolate_to_zero_coupling,
    kick_pointer_state,
    kick_postselection_probability,
    kick_protocol_conditional_density,
    nonselective_state,
    postselection_probability,
    sequential_covariance_coefficient,
    sequential_cross_covariance,
    sequential_joint_density,
    sequential_meter_state,
    sequential_order_gap,
)
from weakmeas.montecarlo import TrialPlan, truncated_mean_prediction

LAMBDA_GRID = (0.2, 0.1, 0.05, 0.025)


def ket(*vals) -> PureState:
    return PureState.normalized(np.array(vals, dtype=complex))


def eigen_weights(obs: Observable, psi: PureState, phi: PureState):
    system = obs.eigensystem
    w = np.array(
        [complex(np.vdot(phi.amplitudes, p @ psi.amplitudes)) for p in system.projectors]
    )
    return system.eigenvalues, w


def postselection_quadrature(obs, lam, psi, phi) -> float:
    """Numeric integral of |<phi| <x| U |psi>|xi>|^2 over outcomes."""
    eigenvalues, w = eigen_weights(obs, psi, phi)

    def integrand(x):
        amp = sum(
            w[i] * math.sqrt(gaussian_density(x - lam * eigenvalues[i]))
            for i in range(len(w))
        )
        return abs(amp) ** 2

    return quad(integrand, -30, 30, limit=400)[0]


def fft_displaced_meter(samples: np.ndarray, xs: np.ndarray, shift: float) -> np.ndarray:
    """Displace a sampled wavefunction by `shift` via FFT (independent oracle)."""
    k = 2 * math.pi * np.fft.fftfreq(xs.size, d=xs[1] - xs[0])
    return np.fft.ifft(np.fft.fft(samples) * np.exp(-1j * k * shift))


class TestApplyVonNeumann:
    """The von Neumann route: one Gaussian term (w_i, lam a_i, 0) per
    eigenbranch, with w_i = <phi|P_i|psi>."""

    @settings(max_examples=100)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.1, 100.0),
        data=st.data(),
    )
    def test_zero_coupling_gives_initial_meter(self, dim, seed, scale, data):
        # every branch term sits at the origin: the meter is the initial
        # Gaussian, post-selected with probability |<phi|psi>|^2
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        psi, phi = random_selection_pair(rng, dim)
        setup = MeasurementSetup(obs, 0.0, psi, phi)
        w_abs = np.abs(branch_weights(obs, psi, phi)).sum()
        assert abs(postselection_probability(setup) - abs(phi.overlap(psi)) ** 2) <= 1e-12 * w_abs**2
        xs = np.linspace(-6, 6, 49)
        for basis in (BASIS_X, BASIS_XPRIME):
            dens = conditional_meter_density(setup, basis, xs)
            assert np.max(np.abs(dens - gaussian_density(xs))) <= 1e-12
            assert conditional_meter_mean(setup, basis) == 0.0

    @settings(max_examples=100)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(-20.0, 20.0),
        scale=st.floats(0.1, 100.0),
        data=st.data(),
    )
    def test_eigenstate_single_branch(self, dim, seed, lam, scale, data):
        # psi in the eigenspace of a_i: the meter moves to lam a_i in x and
        # stays centred at 0 in x', whatever phi is
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        system = obs.eigensystem
        i = data.draw(st.integers(0, system.eigenvalues.size - 1), label="branch")
        while True:
            psi = PureState.normalized(system.projectors[i] @ random_state(rng, dim).amplitudes)
            phi = random_state(rng, dim)
            if abs(phi.overlap(psi)) >= 0.25:
                break
        setup = MeasurementSetup(obs, lam, psi, phi)
        shift = lam * float(system.eigenvalues[i])
        xs = np.linspace(-6, 6, 49)
        for basis, center in ((BASIS_X, shift), (BASIS_XPRIME, 0.0)):
            dens = conditional_meter_density(setup, basis, xs + center)
            assert np.max(np.abs(dens - gaussian_density(xs))) <= 1e-12
            assert conditional_meter_mean(setup, basis) == pytest.approx(center, abs=1e-12 * (1.0 + abs(shift)))

    def test_against_fft_tensor_oracle(self, rng):
        lam = 0.3
        xs = np.linspace(-20, 20, 4096)
        meter = (2 * math.pi) ** -0.25 * np.exp(-(xs**2) / 4.0)
        for dim in (2, 8, 16):
            obs = random_observable(rng, dim)
            psi, phi = random_selection_pair(rng, dim)
            w = branch_weights(obs, psi, phi)
            oracle = sum(
                w_i * fft_displaced_meter(meter, xs, lam * float(a_i))
                for w_i, a_i in zip(w, obs.eigensystem.eigenvalues)
            )
            got = conditional_meter_state(MeasurementSetup(obs, lam, psi, phi)).pointer.amplitude(xs)
            assert np.max(np.abs(got - oracle)) < 1e-9

    def test_norm_preserved_random(self, rng):
        # the joint state keeps unit norm: post-selection probabilities over
        # an orthonormal basis of the system sum to one
        for dim in (2, 3, 8):
            psi = random_state(rng, dim)
            obs = random_observable(rng, dim)
            basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
            total = sum(
                postselection_probability(MeasurementSetup(obs, 0.9, psi, PureState(basis[:, n])))
                for n in range(dim)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        psi, phi = random_selection_pair(rng, 3)
        with pytest.raises(DimensionMismatch):
            MeasurementSetup(Observable(SX), 0.1, psi, phi)


class TestPostselect:
    def test_zero_coupling_probability(self, rng):
        psi, phi = random_selection_pair(rng, 3)
        obs = random_observable(rng, 3)
        prob = postselection_probability(MeasurementSetup(obs, 0.0, psi, phi))
        assert prob == pytest.approx(abs(phi.overlap(psi)) ** 2, abs=1e-13)

    def test_closed_form_instance(self):
        setup = MeasurementSetup(Observable(SX), 0.1, ket(1, 0), ket(1, 0))
        prob = postselection_probability(setup)
        assert prob == pytest.approx(0.5 + 0.5 * math.exp(-0.005), abs=1e-12)
        assert prob == pytest.approx(0.9975062395963412, abs=1e-12)
        assert prob == pytest.approx(
            postselection_quadrature(Observable(SX), 0.1, ket(1, 0), ket(1, 0)),
            abs=1e-9,
        )

    def test_second_order_expansion(self):
        setup = MeasurementSetup(Observable(SX), 0.1, ket(1, 0), ket(1, 0))
        prob = postselection_probability(setup)
        a_w = weak_value(Observable(SX), ket(1, 0), ket(1, 0)).value
        a2_w = matrix_weak_value(SX @ SX, ket(1, 0), ket(1, 0))
        formula = 1.0 + (0.1**2 / 4.0) * (abs(a_w) ** 2 - a2_w.real)
        assert formula == pytest.approx(0.9975)
        assert abs(prob - formula) < 1e-5  # O(lambda^4)

    def test_quadrature_agreement_random(self, rng):
        for _ in range(3):
            psi, phi = random_selection_pair(rng, 3)
            obs = random_observable(rng, 3)
            setup = MeasurementSetup(obs, 0.6, psi, phi)
            assert postselection_probability(setup) == pytest.approx(
                postselection_quadrature(obs, 0.6, psi, phi), abs=1e-9
            )


class TestConditionalDensity:
    def test_weak_limit_is_gaussian(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        setup = MeasurementSetup(Observable(SX), 1e-8, psi, phi)
        xs = np.linspace(-4, 4, 41)
        assert np.max(np.abs(conditional_meter_density(setup, BASIS_X, xs) - gaussian_density(xs))) < 1e-6

    def test_normalized(self, rng):
        psi, phi = random_selection_pair(rng, 3)
        setup = MeasurementSetup(random_observable(rng, 3), 0.8, psi, phi)
        xs = np.linspace(-14, 14, 3001)
        for basis in (BASIS_X, BASIS_XPRIME):
            total = np.trapezoid(conditional_meter_density(setup, basis, xs), xs)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_mean_extrapolates_to_re_weak_value(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        a_w = weak_value(Observable(SX), psi, phi).value
        scaled = [
            conditional_meter_mean(MeasurementSetup(Observable(SX), lam, psi, phi), BASIS_X) / lam
            for lam in LAMBDA_GRID
        ]
        intercept, _ = extrapolate_to_zero_coupling(LAMBDA_GRID, scaled)
        assert intercept == pytest.approx(a_w.real, abs=max(1e-3 * abs(a_w.real), 1e-4))

    def test_xprime_mean_extrapolates_to_im_weak_value(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        a_w = weak_value(Observable(SX), psi, phi).value
        scaled = [
            conditional_meter_mean(MeasurementSetup(Observable(SX), lam, psi, phi), BASIS_XPRIME) / lam
            for lam in LAMBDA_GRID
        ]
        intercept, _ = extrapolate_to_zero_coupling(LAMBDA_GRID, scaled)
        assert intercept == pytest.approx(a_w.imag, abs=max(1e-3 * abs(a_w.imag), 1e-4))

    def test_tiny_coupling_mean_is_weak_value(self):
        # lam (a_i - a_j) far below 1e-12: the branch terms nearly coincide,
        # and their pair sums still carry the O(lam) shift
        psi, phi = ket(1, 0), ket(0.6, 0.48 + 0.64j)
        a_w = weak_value(Observable(SX), psi, phi).value
        for lam in (1e-12, 1e-13, 1e-14):
            setup = MeasurementSetup(Observable(SX), lam, psi, phi)
            assert conditional_meter_mean(setup, BASIS_X) / lam == pytest.approx(a_w.real, rel=1e-12)
            assert conditional_meter_mean(setup, BASIS_XPRIME) / lam == pytest.approx(
                a_w.imag, rel=1e-12
            )

    def test_low_probability_flag(self):
        psi = ket(1, 0)
        phi = ket(1e-7, math.sqrt(1 - 1e-14))
        cm = conditional_meter_state(MeasurementSetup(Observable(SZ), 0.0, psi, phi))
        assert cm.low_probability
        assert cm.probability < 1e-12


def unconditional_density(obs, lam, psi, x):
    """<psi|M_x^dag M_x|psi> from the Kraus family: the outcome density of
    the meter without post-selection."""
    m = KrausFamily(obs, lam).at_many(np.atleast_1d(x))
    v = m @ psi.amplitudes
    return np.real(np.einsum("nd,nd->n", np.conj(v), v))


class TestUnconditionalDensity:
    def test_eigenstate_single_gaussian(self):
        xs = np.linspace(-4, 4, 51)
        got = unconditional_density(Observable(SZ), 0.5, ket(1, 0), xs)
        assert np.max(np.abs(got - gaussian_density(xs - 0.5))) < 1e-14

    def test_strong_coupling_resolves_peaks(self):
        got = unconditional_density(Observable(SX), 10.0, ket(1, 0), np.array([-10.0, 0.0, 10.0]))
        assert got[0] == pytest.approx(0.5 * gaussian_density(0.0), abs=1e-12)
        assert got[2] == pytest.approx(0.5 * gaussian_density(0.0), abs=1e-12)
        assert got[1] < 1e-12

    def test_mixture_mean_is_expectation_shift(self, rng):
        psi = random_state(rng, 2)
        lam = 0.37
        xs = np.linspace(-12, 12, 4001)
        dens = unconditional_density(Observable(SX), lam, psi, xs)
        mean = np.trapezoid(xs * dens, xs)
        assert mean == pytest.approx(lam * expectation(Observable(SX), psi), abs=1e-10)


class TestKickProtocol:
    @pytest.mark.parametrize("lam", [0.1, 0.5, 2.0])
    def test_exact_duality_with_xprime_readout(self, rng, lam):
        psi, phi = random_selection_pair(rng, 2)
        setup = MeasurementSetup(Observable(SX), lam, psi, phi)
        xs = np.linspace(-8, 8, 201)
        vn = conditional_meter_density(setup, BASIS_XPRIME, xs)
        kick = kick_protocol_conditional_density(setup, xs)
        assert np.max(np.abs(vn - kick)) < 1e-12
        assert kick_postselection_probability(setup) == pytest.approx(
            postselection_probability(setup), abs=1e-12
        )

    def test_zero_coupling_is_gaussian(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        setup = MeasurementSetup(Observable(SX), 0.0, psi, phi)
        xs = np.linspace(-4, 4, 21)
        assert np.max(np.abs(kick_protocol_conditional_density(setup, xs) - gaussian_density(xs))) < 1e-13

    def test_mean_extrapolates_to_im_weak_value(self):
        psi, phi = ket(1, 0), ket(1, 1j)
        a_w = weak_value(Observable(SX), psi, phi).value
        assert a_w == pytest.approx(-1j)
        xs = np.linspace(-10, 10, 2001)
        scaled = []
        for lam in LAMBDA_GRID:
            setup = MeasurementSetup(Observable(SX), lam, psi, phi)
            dens = kick_protocol_conditional_density(setup, xs)
            scaled.append(np.trapezoid(xs * dens, xs) / lam)
        intercept, _ = extrapolate_to_zero_coupling(LAMBDA_GRID, scaled)
        assert intercept == pytest.approx(-1.0, abs=1e-3)

    def test_tiny_coupling_mean_is_im_weak_value(self):
        psi, phi = ket(1, 0), ket(0.6, 0.8j)
        a_w = weak_value(Observable(SX), psi, phi).value
        lam = 1e-12
        state = kick_pointer_state(MeasurementSetup(Observable(SX), lam, psi, phi))
        assert moment(state, 1) / lam == pytest.approx(a_w.imag, rel=1e-12)


def sequential_covariance_quadrature(sq: SequentialSetup) -> float:
    lim = 9.0 + abs(sq.first_coupling) + abs(sq.second_coupling)
    xs = np.linspace(-lim, lim, 401)
    dens = sequential_joint_density(sq, xs, xs)
    m = np.trapezoid(np.trapezoid(dens, xs, axis=1), xs)
    ex1 = np.trapezoid(np.trapezoid(dens * xs[:, None], xs, axis=1), xs) / m
    ex2 = np.trapezoid(np.trapezoid(dens * xs[None, :], xs, axis=1), xs) / m
    e12 = np.trapezoid(np.trapezoid(dens * np.outer(xs, xs), xs, axis=1), xs) / m
    return e12 - ex1 * ex2


class TestSequential:
    def test_commuting_order_swap_identity(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        xs = np.linspace(-5, 5, 41)
        fwd = SequentialSetup(Observable(SZ), 0.4, Observable(SZ), 0.7, psi, phi)
        rev = SequentialSetup(Observable(SZ), 0.7, Observable(SZ), 0.4, psi, phi)
        d_f = sequential_joint_density(fwd, xs, xs)
        d_r = sequential_joint_density(rev, xs, xs)
        assert np.max(np.abs(d_f - d_r.T)) < 1e-12

    def test_closed_form_moments_match_quadrature(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        sq = SequentialSetup(Observable(SX), 0.3, Observable(SY), 0.25, psi, phi)
        assert sequential_cross_covariance(sq) == pytest.approx(
            sequential_covariance_quadrature(sq), abs=1e-8
        )

    def test_coefficient_extrapolates_to_weak_value_combination(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        a, b = Observable(SX), Observable(SY)
        ba = matrix_weak_value(SY @ SX, psi, phi)
        target = (ba - weak_value(a, psi, phi).value * weak_value(b, psi, phi).value).real
        coeffs = []
        for lam in LAMBDA_GRID:
            sq = SequentialSetup(a, lam, b, lam, psi, phi)
            coeffs.append(sequential_cross_covariance(sq) / (lam * lam / 2.0))
        intercept, _ = extrapolate_to_zero_coupling(LAMBDA_GRID, coeffs)
        assert intercept == pytest.approx(target, abs=max(0.02 * abs(target), 1e-4))

    def test_xprime_coefficient_swaps_sign_structure(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        a, b = Observable(SX), Observable(SY)
        ba = matrix_weak_value(SY @ SX, psi, phi)
        target = (
            weak_value(a, psi, phi).value * weak_value(b, psi, phi).value - ba
        ).real
        coeffs = []
        for lam in LAMBDA_GRID:
            sq = SequentialSetup(a, lam, b, lam, psi, phi, (BASIS_XPRIME, BASIS_XPRIME))
            coeffs.append(sequential_cross_covariance(sq) / (lam * lam / 2.0))
        intercept, _ = extrapolate_to_zero_coupling(LAMBDA_GRID, coeffs)
        assert intercept == pytest.approx(target, abs=max(0.02 * abs(target), 1e-4))

    def test_order_gap_pauli_instance(self):
        psi = ket(1, 1)
        phi = PureState(np.array([1, np.exp(1j * math.pi / 4)]) / math.sqrt(2))
        sq = SequentialSetup(Observable(SX), 0.1, Observable(SY), 0.1, psi, phi)
        assert sequential_order_gap(sq) == pytest.approx(2 * math.tan(math.pi / 8), abs=1e-12)

    def test_order_gap_commuting_and_equal(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        sq_same = SequentialSetup(Observable(SX), 0.1, Observable(SX), 0.1, psi, phi)
        assert sequential_order_gap(sq_same) == pytest.approx(0.0, abs=1e-12)

    def test_second_coupling_zero_factorizes(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        sq = SequentialSetup(Observable(SX), 0.45, Observable(SY), 0.0, psi, phi)
        setup = MeasurementSetup(Observable(SX), 0.45, psi, phi)
        xs = np.linspace(-5, 5, 31)
        joint = sequential_joint_density(sq, xs, xs)
        single = conditional_meter_density(setup, BASIS_X, xs)
        factorized = np.outer(single, gaussian_density(xs))
        assert np.max(np.abs(joint - factorized)) < 1e-12


# exact zeros and subnormal values: one eigenvalue of B, or an underflowed kernel
SUBNORMAL_FLOOR = 1e-300

meter_bases = st.tuples(st.sampled_from((BASIS_X, BASIS_XPRIME)), st.sampled_from((BASIS_X, BASIS_XPRIME)))


class TestSequentialProductForm:
    """The product form W[i, j] with one kernel per meter gives the sums over
    pairs of joint branches to rounding, on degenerate spectra of any scale."""

    @settings(max_examples=120)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam1=st.floats(1e-3, 20.0),
        lam2=st.floats(1e-3, 20.0),
        scale=st.floats(0.1, 100.0),
        bases=meter_bases,
        data=st.data(),
    )
    def test_matches_branch_sum_oracle(self, dim, seed, lam1, lam2, scale, bases, data):
        rng = np.random.default_rng(seed)
        a = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels_a"), scale)
        b = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels_b"), scale)
        psi, phi = random_selection_pair(rng, dim)
        sq = SequentialSetup(a, lam1, b, lam2, psi, phi, bases)
        xs = np.linspace(-6.0 - max(lam1, lam2), 6.0 + max(lam1, lam2), 101)
        want = branch_sum_sequential(sq, xs, xs)

        state, prob = sequential_meter_state(sq)
        means = state.first_moment(0), state.first_moment(1)
        cross = state.cross_moment()
        assert prob == pytest.approx(want["probability"], rel=1e-12)
        for got, expected, lam, obs in zip(means, want["means"], (lam1, lam2), (a, b)):
            assert abs(got - expected) <= 1e-12 * (abs(expected) + lam * obs.spectral_radius)
        assert abs(cross - want["cross_moment"]) <= 1e-12 * abs(want["cross_moment"]) + SUBNORMAL_FLOOR
        want_cov = want["cross_moment"] - want["means"][0] * want["means"][1]
        cov_scale = abs(want["cross_moment"]) + abs(want["means"][0] * want["means"][1])
        assert abs(sequential_cross_covariance(sq) - want_cov) <= 1e-12 * cov_scale + SUBNORMAL_FLOOR
        dens = sequential_joint_density(sq, xs, xs)
        assert np.max(np.abs(dens - want["density"])) <= 1e-12 * np.max(want["density"]) + SUBNORMAL_FLOOR

    @settings(max_examples=40)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam1=st.floats(1e-3, 20.0),
        lam2=st.floats(1e-3, 20.0),
        scale=st.floats(0.1, 100.0),
        bases=meter_bases,
        data=st.data(),
    )
    def test_commuting_pair_is_order_free(self, dim, seed, lam1, lam2, scale, bases, data):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        a = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels_a"), scale, basis)
        b = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels_b"), scale, basis)
        psi, phi = random_selection_pair(rng, dim)
        fwd = SequentialSetup(a, lam1, b, lam2, psi, phi, bases)
        rev = SequentialSetup(b, lam2, a, lam1, psi, phi, bases[::-1])
        # rounding scale of <phi|(BA - AB)|psi> / <phi|psi>
        gap_scale = a.spectral_radius * b.spectral_radius / abs(phi.overlap(psi))
        assert abs(sequential_order_gap(fwd)) <= 1e-12 * gap_scale
        # the scale of x1 x2 for unit-width readouts at their means: in mixed
        # bases the covariance can sit far below the rounding of E[x1 x2],
        # since W[i, j] = <phi|Q_j P_i|psi> off the shared eigenspaces is
        # zero only to rounding
        state, _ = sequential_meter_state(fwd)
        cov_scale = (1.0 + abs(state.first_moment(0))) * (1.0 + abs(state.first_moment(1)))
        gap = sequential_cross_covariance(fwd) - sequential_cross_covariance(rev)
        assert abs(gap) <= 1e-12 * cov_scale


class TestConditionalSystemState:
    def test_eigenstate_unchanged(self):
        psi = ket(1, 0)
        for x in (-1.0, 0.0, 2.5):
            chi = conditional_system_state(Observable(SZ), 0.8, psi, x)
            assert abs(abs(chi.overlap(psi)) - 1.0) < 1e-12

    def test_zero_coupling_identity(self, rng):
        psi = random_state(rng, 3)
        chi = conditional_system_state(random_observable(rng, 3), 0.0, psi, 0.3)
        assert abs(abs(chi.overlap(psi)) - 1.0) < 1e-12

    def test_first_order_backaction(self):
        psi = ket(1, 1)
        obs = Observable(SZ)
        x = 0.6
        mean = expectation(obs, psi)
        ratios = []
        for lam in (0.1, 0.05, 0.025):
            chi = conditional_system_state(obs, lam, psi, x)
            approx = psi.amplitudes + lam * (obs.matrix @ psi.amplitudes - mean * psi.amplitudes) * x / 2.0
            # remove the global phase freedom before comparing
            phase = np.vdot(chi.amplitudes, approx)
            phase /= abs(phase)
            ratios.append(np.linalg.norm(chi.amplitudes * phase - approx) / lam**2)
        assert max(ratios) < 2.0 * min(ratios)

    def test_zero_probability_outcome(self):
        with pytest.raises(ZeroProbabilityOutcome):
            conditional_system_state(Observable(SZ), 0.1, ket(1, 1), 60.0)


class TestNonselectiveState:
    def test_eigenstate_stays_pure(self):
        rho = nonselective_state(Observable(SZ), 0.9, ket(1, 0))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)

    def test_offdiagonal_damping_factor(self):
        lam = 0.2
        rho = nonselective_state(Observable(SX), lam, ket(1, 0))
        plus = np.array([1, 1]) / math.sqrt(2)
        minus = np.array([1, -1]) / math.sqrt(2)
        coherence = np.vdot(plus, rho.matrix @ minus)
        # initial coherence 1/2 damped by the averaged kick integral
        oracle = quad(
            lambda xp: gaussian_density(xp) * math.cos(lam * xp), -20, 20, limit=200
        )[0]
        assert oracle == pytest.approx(math.exp(-0.02), abs=1e-10)
        assert coherence.real == pytest.approx(0.5 * math.exp(-0.02), abs=1e-12)
        assert abs(coherence.imag) < 1e-12

    def test_purity_below_one_for_superpositions(self, rng):
        psi = random_state(rng, 3)
        obs = random_observable(rng, 3)
        rho = nonselective_state(obs, 0.5, psi)
        assert rho.purity() < 1.0

    def test_marginalizing_conditional_states(self, rng):
        psi = random_state(rng, 2)
        obs = random_observable(rng, 2)
        lam = 0.6
        half = 10.0 + lam * obs.spectral_radius
        xs, wts = gauss_legendre(-half, half, 240)
        _, branch_probs = branch_components(obs, psi)
        acc = np.zeros((2, 2), dtype=complex)
        for x, wt in zip(xs, wts):
            p_x = float(gaussian_density(x - lam * obs.eigensystem.eigenvalues) @ branch_probs)
            chi = conditional_system_state(obs, lam, psi, float(x))
            acc += wt * p_x * np.outer(chi.amplitudes, np.conj(chi.amplitudes))
        rho = nonselective_state(obs, lam, psi)
        assert np.max(np.abs(acc - rho.matrix)) < 1e-8


class TestEigenbranchIdentities:
    """Identities between routes that share the eigenbranch weights, on
    degenerate spectra of any scale."""

    @settings(max_examples=200)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 20.0),
        scale=st.floats(0.1, 100.0),
        data=st.data(),
    )
    def test_kick_probability_equals_von_neumann(self, dim, seed, lam, scale, data):
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        psi, phi = random_selection_pair(rng, dim)
        setup = MeasurementSetup(obs, lam, psi, phi)
        assert kick_postselection_probability(setup) == pytest.approx(
            postselection_probability(setup), rel=1e-12
        )

    @settings(max_examples=200)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 20.0),
        scale=st.floats(0.1, 100.0),
        data=st.data(),
    )
    def test_probability_shift_is_nonselective_disturbance(self, dim, seed, lam, scale, data):
        # P_exact - |<phi|psi>|^2 = <phi|(rho_ns - |psi><psi|)|phi>
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        psi, phi = random_selection_pair(rng, dim)
        unperturbed = abs(phi.overlap(psi)) ** 2
        lhs = postselection_probability(MeasurementSetup(obs, lam, psi, phi)) - unperturbed
        rhs = nonselective_state(obs, lam, psi).expectation_in(phi) - unperturbed
        assert abs(lhs - rhs) <= 1e-12


class TestDisturbanceReport:
    def test_zero_coupling_trivial(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        rep = disturbance_report(MeasurementSetup(Observable(SX), 0.0, psi, phi))
        assert rep.postselect_prob_exact == pytest.approx(rep.postselect_prob_unperturbed, abs=1e-14)
        assert rep.nonselective_purity == pytest.approx(1.0, abs=1e-12)
        assert rep.fidelity_to_initial == pytest.approx(1.0, abs=1e-12)

    def test_identity_holds_on_random_setups(self, rng):
        for trial in range(100):
            dim = 2 + trial % 3
            psi, phi = random_selection_pair(rng, dim)
            obs = random_observable(rng, dim)
            lam = float(rng.uniform(0.05, 1.5))
            rep = disturbance_report(MeasurementSetup(obs, lam, psi, phi))
            assert rep.identity_residual <= 1e-12

    def test_fidelity_expansion_at_equal_states(self, rng):
        psi = random_state(rng, 2)
        obs = random_observable(rng, 2)
        var = expectation(Observable(obs.matrix @ obs.matrix), psi) - expectation(obs, psi) ** 2
        for lam in (0.1, 0.05):
            rep = disturbance_report(MeasurementSetup(obs, lam, psi, psi))
            assert rep.fidelity_to_initial == pytest.approx(
                rep.postselect_prob_exact, abs=1e-12
            )
            assert abs(rep.fidelity_to_initial - (1 - lam**2 * var / 4.0)) < 2.0 * lam**4

    def test_setup_validation(self, rng):
        psi = ket(1, 0)
        with pytest.raises(OrthogonalPostselection):
            MeasurementSetup(Observable(SX), 0.1, psi, ket(0, 1))
        with pytest.raises(DimensionMismatch):
            MeasurementSetup(Observable(SX), 0.1, psi, random_state(rng, 3))


OBS3 = Observable(np.diag([1.0, 2.0, 3.0]).astype(complex))
KET0, PHI68 = ket(1, 0), ket(0.6, 0.8)
MISMATCHED = {
    "weak_value": lambda: weak_value(OBS3, KET0, PHI68),
    "expectation": lambda: expectation(OBS3, KET0),
    "matrix_weak_value": lambda: matrix_weak_value(np.eye(3), KET0, PHI68),
    "branch_components": lambda: branch_components(OBS3, KET0),
    "branch_weights": lambda: branch_weights(Observable(SX), KET0, ket(1, 0, 0)),
    "MeasurementSetup": lambda: MeasurementSetup(OBS3, 0.1, KET0, PHI68),
    "SequentialSetup": lambda: SequentialSetup(Observable(SX), 0.1, OBS3, 0.1, KET0, PHI68),
    "CollectiveSetup": lambda: CollectiveSetup(OBS3, 0.1, KET0, PHI68, 10),
    "TrialPlan": lambda: TrialPlan("sequential", Observable(SX), 0.1, KET0, PHI68, 10, 0, OBS3),
    "truncated_mean_prediction": lambda: truncated_mean_prediction(OBS3, 0.1, KET0, 1.0),
}


class TestPreconditions:
    """Every entry point refuses a dimension mismatch and every setup type a
    coupling whose square is not finite, each through its one check."""

    @pytest.mark.parametrize("entry", sorted(MISMATCHED))
    def test_every_entry_point_checks_dimensions(self, entry):
        with pytest.raises(DimensionMismatch, match=r"dimensions \[2, 3\] differ"):
            MISMATCHED[entry]()

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf, 2e154, -1.4e154])
    def test_every_setup_checks_its_couplings(self, lam):
        psi, phi, obs = KET0, PHI68, Observable(SX)
        calls = [
            lambda: MeasurementSetup(obs, lam, psi, phi),
            lambda: SequentialSetup(obs, 0.1, obs, lam, psi, phi),
            lambda: SequentialSetup(obs, lam, obs, 0.1, psi, phi),
            lambda: CollectiveSetup(obs, lam, psi, phi, 10),
            lambda: TrialPlan("single", obs, lam, psi, phi, 10, 0),
            lambda: TrialPlan("sequential", obs, 0.1, psi, phi, 10, 0, obs, lam),
        ]
        for call in calls:
            with pytest.raises(DomainError, match="not a finite float"):
                call()
        MeasurementSetup(obs, 1.3e154, psi, phi)  # lambda^2 = 1.69e308 is finite


@pytest.mark.parametrize(
    "bases", [(BASIS_X, BASIS_X), (BASIS_X, BASIS_XPRIME), (BASIS_XPRIME, BASIS_X), (BASIS_XPRIME, BASIS_XPRIME)]
)
def test_covariance_coefficient_is_the_weak_limit_in_every_basis_pair(rng, bases):
    # cov / (lam1 lam2 / 2) tends to the coefficient with an O(lam^2) remainder
    psi, phi = random_selection_pair(rng, 3)
    first, second = random_observable(rng, 3), random_observable(rng, 3)
    lam1, lam2 = 2e-3, 1e-3
    sq = SequentialSetup(first, lam1, second, lam2, psi, phi, bases)
    coeff = sequential_covariance_coefficient(sq)
    assert sequential_cross_covariance(sq) / (lam1 * lam2 / 2.0) == pytest.approx(coeff, rel=1e-4, abs=1e-4)
    assert abs(coeff) > 1e-2


def exact_line_fit(xs, ys) -> tuple[float, float]:
    """Intercept and RMS residual of the least-squares line through (xs, ys), in rationals."""
    x, y = [Fraction(v) for v in xs], [Fraction(v) for v in ys]
    k, sx, sy = len(x), sum(x), sum(y)
    slope = (k * sum(a * b for a, b in zip(x, y)) - sx * sy) / (k * sum(a * a for a in x) - sx * sx)
    intercept = (sy - slope * sx) / k
    mean_sq = sum((b - intercept - slope * a) ** 2 for a, b in zip(x, y)) / k
    return float(intercept), math.sqrt(mean_sq)


@settings(max_examples=200)
@given(
    grid=st.lists(st.floats(0.01, 1.0), min_size=2, max_size=8, unique=True).filter(
        lambda g: max(g) - min(g) >= 0.1 * max(g)
    ),
    signs=st.lists(st.sampled_from([1.0, -1.0]), min_size=8, max_size=8),
    power=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_extrapolation_is_the_least_squares_line_in_lambda_to_the_power(grid, signs, power, data):
    lams = [s * lam for s, lam in zip(signs, grid)] if power == 2 else grid
    values = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=len(grid), max_size=len(grid)))
    intercept, resid = extrapolate_to_zero_coupling(lams, values, power)
    want_intercept, want_resid = exact_line_fit([lam**power for lam in lams], values)
    scale = max(1.0, *map(abs, values))
    assert abs(intercept - want_intercept) <= 1e-13 * scale
    assert abs(resid - want_resid) <= 1e-13 * scale
