"""Meter wavefunction algebra: overlaps, moments, basis change."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from conftest import to_x_basis
from weakmeas.errors import BasisMismatch
from weakmeas.pointer import (
    BASIS_X,
    BASIS_XPRIME,
    PointerWavefunction,
    WAVEFUNCTION_NORM,
    density,
    moment,
    overlap,
    squared_norm,
    stream_rng,
    to_xprime_basis,
)

INV_SQRT_2PI = (2 * math.pi) ** -0.5


def initial_meter() -> PointerWavefunction:
    """The unit meter sqrt(G(x)): one unit-weight term at the origin."""
    return PointerWavefunction([1.0], [0.0], [0.0], BASIS_X)


def term_value(x, weight, center, phase_slope):
    """Independent re-evaluation of one Gaussian term."""
    return weight * np.exp(1j * phase_slope * x) * WAVEFUNCTION_NORM * np.exp(
        -((x - center) ** 2) / 4.0
    )


def wavefunction_value(x, w: PointerWavefunction):
    return sum(term_value(x, *t) for t in zip(w.weights, w.centers, w.phase_slopes))


def overlap_quadrature(a: PointerWavefunction, b: PointerWavefunction) -> complex:
    re = quad(lambda x: (np.conj(wavefunction_value(x, a)) * wavefunction_value(x, b)).real, -50, 50, limit=300)[0]
    im = quad(lambda x: (np.conj(wavefunction_value(x, a)) * wavefunction_value(x, b)).imag, -50, 50, limit=300)[0]
    return re + 1j * im


def random_wavefunction(rng, n_terms=3, basis=BASIS_X) -> PointerWavefunction:
    terms = [(rng.normal() + 1j * rng.normal(), 2.0 * rng.normal(), rng.normal()) for _ in range(n_terms)]
    return PointerWavefunction(*zip(*terms), basis)


term_lists = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
        st.floats(-6.0, 6.0),
        st.floats(-2.0, 2.0),
    ),
    min_size=1,
    max_size=6,
)


def weight_scale(w: PointerWavefunction) -> float:
    """(sum |w_t|)^2: bounds |<w|w>| and every rounding error of its pair sum."""
    return float(np.sum(np.abs(w.weights))) ** 2


class TestInitialMeter:
    def test_density_at_origin(self):
        assert density(initial_meter(), 0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_unit_norm(self):
        assert squared_norm(initial_meter()) == pytest.approx(1.0, abs=1e-14)

    def test_zero_mean_unit_variance(self):
        m = initial_meter()
        assert moment(m, 0) == 1.0
        assert moment(m, 1) == pytest.approx(0.0, abs=1e-14)
        assert moment(m, 2) == pytest.approx(1.0, abs=1e-14)


class TestOverlap:
    def test_self_overlap_of_initial_meter(self):
        m = initial_meter()
        assert overlap(m, m) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_displaced_pair_closed_form(self):
        a = PointerWavefunction([1.0], [0.0], [0.0])
        b = PointerWavefunction([1.0], [2.0], [0.0])
        got = overlap(a, b)
        assert got == pytest.approx(0.6065306597126334, abs=1e-12)
        assert got == pytest.approx(overlap_quadrature(a, b), abs=1e-10)

    def test_phase_slope_pair_closed_form(self):
        a = PointerWavefunction([1.0], [0.0], [0.0])
        b = PointerWavefunction([1.0], [0.0], [1.0])
        got = overlap(a, b)
        assert abs(got) == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert got == pytest.approx(overlap_quadrature(a, b), abs=1e-10)

    def test_random_pairs_against_quadrature(self, rng):
        for _ in range(5):
            a = random_wavefunction(rng)
            b = random_wavefunction(rng)
            assert overlap(a, b) == pytest.approx(overlap_quadrature(a, b), abs=1e-9)

    def test_conjugate_symmetry_and_positivity(self, rng):
        for _ in range(5):
            a = random_wavefunction(rng)
            b = random_wavefunction(rng)
            assert overlap(a, b) == pytest.approx(np.conj(overlap(b, a)), abs=1e-13)
            self_ov = overlap(a, a)
            assert self_ov.imag == pytest.approx(0.0, abs=1e-13)
            assert self_ov.real > 0

    def test_basis_mismatch(self):
        with pytest.raises(BasisMismatch):
            overlap(initial_meter(), to_xprime_basis(initial_meter()))


class TestDensity:
    def test_translation_invariance(self):
        shifted = PointerWavefunction([1.0], [3.0], [0.0])
        assert density(shifted, 3.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_interference_against_direct_sum(self, rng):
        w = PointerWavefunction([1 / math.sqrt(2)] * 2, [-1.0, 1.0], [0.0, 0.0])
        xs = np.linspace(-4, 4, 41)
        direct = np.abs([wavefunction_value(x, w) for x in xs]) ** 2
        assert np.max(np.abs(density(w, xs) - direct)) < 1e-12

    def test_nonnegative_everywhere(self, rng):
        w = random_wavefunction(rng, 4)
        assert np.all(density(w, np.linspace(-15, 15, 301)) >= 0.0)

    def test_grid_integral_matches_norm(self, rng):
        w = random_wavefunction(rng, 3)
        xs = np.linspace(-30, 30, 4001)
        integral = np.trapezoid(density(w, xs), xs)
        assert integral == pytest.approx(squared_norm(w), abs=1e-9)


class TestMoments:
    def test_translated_mean(self):
        w = PointerWavefunction([1.0], [5.0], [0.0])
        assert moment(w, 1) == pytest.approx(5.0, abs=1e-12)

    def test_closed_form_matches_quadrature_on_random_five_term(self, rng):
        for _ in range(4):
            w = random_wavefunction(rng, 5)
            nrm = squared_norm(w)
            for n in (1, 2):
                oracle = quad(
                    lambda x: x**n * abs(wavefunction_value(x, w)) ** 2,
                    -50,
                    50,
                    limit=400,
                )[0] / nrm
                assert moment(w, n) == pytest.approx(oracle, abs=1e-9)

    def test_rejects_higher_orders(self):
        with pytest.raises(ValueError):
            moment(initial_meter(), 3)


class TestBasisChange:
    def test_initial_meter_form_invariant(self):
        mp = to_xprime_basis(initial_meter())
        assert mp.basis == BASIS_XPRIME
        assert mp.weights.shape == (1,)
        assert mp.weights[0] == pytest.approx(1.0 + 0.0j)
        assert mp.centers[0] == pytest.approx(0.0)
        assert mp.phase_slopes[0] == pytest.approx(0.0)

    def test_displaced_term_becomes_phase_slope(self):
        lam_a = 0.8
        w = PointerWavefunction([1.0], [lam_a], [0.0])
        wp = to_xprime_basis(w)
        assert wp.centers[0] == pytest.approx(0.0)
        assert wp.phase_slopes[0] == pytest.approx(-lam_a / 2.0)

    def test_against_fourier_quadrature(self, rng):
        # <x'|w> = (4 pi)^(-1/2) Int exp(-i x' x / 2) w(x) dx
        w = random_wavefunction(rng, 2)
        wp = to_xprime_basis(w)
        for xp in (-1.7, 0.3, 2.1):
            re = quad(lambda x: (np.exp(-0.5j * xp * x) * wavefunction_value(x, w)).real, -50, 50, limit=300)[0]
            im = quad(lambda x: (np.exp(-0.5j * xp * x) * wavefunction_value(x, w)).imag, -50, 50, limit=300)[0]
            oracle = (re + 1j * im) / math.sqrt(4 * math.pi)
            assert wavefunction_value(xp, wp) == pytest.approx(oracle, abs=1e-10)

    @settings(max_examples=100)
    @given(terms=term_lists)
    def test_round_trip_density(self, terms):
        w = PointerWavefunction(*zip(*terms))
        back = to_x_basis(to_xprime_basis(w))
        # halving and doubling are exact above the subnormal range
        np.testing.assert_allclose(back.centers, w.centers, rtol=0, atol=1e-300)
        np.testing.assert_allclose(back.phase_slopes, w.phase_slopes, rtol=0, atol=1e-300)
        xs = np.linspace(-12, 12, 97)
        assert np.max(np.abs(density(back, xs) - density(w, xs))) <= 1e-14 * weight_scale(w)

    @settings(max_examples=100)
    @given(terms=term_lists)
    def test_norm_preserved(self, terms):
        w = PointerWavefunction(*zip(*terms))
        assert abs(squared_norm(to_xprime_basis(w)) - squared_norm(w)) <= 1e-14 * weight_scale(w)

    def test_wrong_basis_raises(self):
        with pytest.raises(BasisMismatch):
            to_xprime_basis(to_xprime_basis(initial_meter()))
        with pytest.raises(BasisMismatch):
            to_x_basis(initial_meter())


class TestConstruction:
    def test_terms_are_read_only_copies(self):
        weights = np.array([1.0 + 0.5j, 0.3])
        w = PointerWavefunction(weights, [0.0, 1.0], [0.0, 0.0])
        weights[0] = 7.0
        assert w.weights[0] == 1.0 + 0.5j
        with pytest.raises(ValueError):
            w.centers[0] = 2.0

    @pytest.mark.parametrize(
        "weights, centers, slopes",
        [
            ([], [], []),
            ([1.0, 1.0], [0.0], [0.0]),
            ([[1.0]], [[0.0]], [[0.0]]),
            ([1.0], [math.inf], [0.0]),
            ([complex(1.0, math.nan)], [0.0], [0.0]),
        ],
    )
    def test_rejects_empty_ragged_or_non_finite_terms(self, weights, centers, slopes):
        with pytest.raises(ValueError):
            PointerWavefunction(weights, centers, slopes)


@st.composite
def split_terms(draw):
    """Terms (w, c, k), and the same state with each term split into positive
    shares of its weight, plus zero-weight terms, in a shuffled order."""
    summed = draw(term_lists)
    pieces = []
    for weight, c, k in summed:
        shares = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=1, max_size=3)))
        pieces += [(weight * f, c, k) for f in shares / shares.sum()]
    zeros = draw(st.lists(st.sampled_from(summed), max_size=2))
    pieces += [(0.0, c, k) for _, c, k in zeros]
    if draw(st.booleans()):
        pieces.append((0.0, draw(st.floats(-6.0, 6.0)), draw(st.floats(-2.0, 2.0))))
    order = draw(st.permutations(range(len(pieces))))
    return summed, [pieces[i] for i in order]


class TestCoincidentTerms:
    """Terms that share a centre and slope, and zero weights, need no merge:
    the pair sums over all terms equal those of the hand-summed state."""

    @settings(max_examples=200)
    @given(split=split_terms())
    def test_matches_hand_summed_form(self, split):
        summed, pieces = split
        whole = PointerWavefunction(*zip(*summed))
        split_state = PointerWavefunction(*zip(*pieces))
        scale = weight_scale(whole)
        norm = squared_norm(whole)
        assert abs(squared_norm(split_state) - norm) <= 1e-12 * scale
        xs = np.linspace(-10, 10, 81)
        assert np.max(np.abs(density(split_state, xs) - density(whole, xs))) <= 1e-12 * scale
        assume(norm >= 1e-2 * scale)
        reach = 1.0 + np.max(np.abs(whole.centers)) + np.max(np.abs(whole.phase_slopes))
        assert abs(moment(split_state, 1) - moment(whole, 1)) <= 1e-12 * reach * scale / norm


class TestSampler:
    """Per-stream generators, which the Monte Carlo runners draw from."""

    def test_stream_rng_distinct_and_reproducible(self):
        a = stream_rng(7, 0).random(5)
        b = stream_rng(7, 1).random(5)
        assert not np.allclose(a, b)
        assert np.array_equal(a, stream_rng(7, 0).random(5))
