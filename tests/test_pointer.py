"""Meter-state algebra: norms, overlaps, moments, basis change, one and two meters."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import quad

from conftest import random_observable, random_selection_pair, to_x_basis
from weakmeas.core import branch_weights
from weakmeas.errors import BasisMismatch, ZeroProbabilityOutcome
from weakmeas.pointer import (
    BASIS_X,
    BASIS_XPRIME,
    MeterState,
    WAVEFUNCTION_NORM,
    gaussian_density,
    stream_rng,
)

INV_SQRT_2PI = (2 * math.pi) ** -0.5


def one_meter(weights, centers, slopes, basis=BASIS_X) -> MeterState:
    return MeterState(weights, (centers,), (slopes,), (basis,))


def initial_meter() -> MeterState:
    """The unit meter sqrt(G(x)): one unit-weight term at the origin."""
    return one_meter([1.0], [0.0], [0.0])


def term_value(x, weight, center, phase_slope):
    """Independent re-evaluation of one Gaussian term."""
    return weight * np.exp(1j * phase_slope * x) * WAVEFUNCTION_NORM * np.exp(
        -((x - center) ** 2) / 4.0
    )


def wavefunction_value(x, w: MeterState):
    return sum(term_value(x, *t) for t in zip(w.weights, w.centers[0], w.phase_slopes[0]))


def joined(a: MeterState, b: MeterState, factor: complex = 1.0) -> MeterState:
    """a + factor * b as one state, so |a + factor b|^2 = |a|^2 + |b|^2 + 2 Re(factor <a|b>)."""
    return one_meter(
        np.concatenate([a.weights, factor * b.weights]),
        np.concatenate([a.centers[0], b.centers[0]]),
        np.concatenate([a.phase_slopes[0], b.phase_slopes[0]]),
        a.bases[0],
    )


def overlap(a: MeterState, b: MeterState) -> complex:
    """<a|b> by polarization, (1/4) sum_p conj(p) |a + p b|^2 over p = 1, i, -1, -i:
    every overlap is a combination of squared norms of joined states."""
    return sum(np.conj(p) * joined(a, b, p).squared_norm() for p in (1, 1j, -1, -1j)) / 4


def overlap_quadrature(a: MeterState, b: MeterState) -> complex:
    re = quad(lambda x: (np.conj(wavefunction_value(x, a)) * wavefunction_value(x, b)).real, -50, 50, limit=300)[0]
    im = quad(lambda x: (np.conj(wavefunction_value(x, a)) * wavefunction_value(x, b)).imag, -50, 50, limit=300)[0]
    return re + 1j * im


def random_wavefunction(rng, n_terms=3, basis=BASIS_X) -> MeterState:
    terms = [(rng.normal() + 1j * rng.normal(), 2.0 * rng.normal(), rng.normal()) for _ in range(n_terms)]
    return one_meter(*zip(*terms), basis)


term_lists = st.lists(
    st.tuples(
        st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0),
        st.floats(-6.0, 6.0),
        st.floats(-2.0, 2.0),
    ),
    min_size=1,
    max_size=6,
)


def weight_scale(w: MeterState) -> float:
    """(sum |w_t|)^2: bounds |<w|w>| and every rounding error of its pair sum."""
    return float(np.sum(np.abs(w.weights))) ** 2


class TestInitialMeter:
    def test_density_at_origin(self):
        assert initial_meter().density(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_unit_norm(self):
        assert initial_meter().squared_norm() == pytest.approx(1.0, abs=1e-14)

    def test_zero_mean_unit_variance(self):
        m = initial_meter()
        assert m.first_moment() == pytest.approx(0.0, abs=1e-14)
        # no closed-form second moment is left: the trapezoid rule is exact to
        # rounding for a Gaussian on a grid this fine and wide
        xs = np.linspace(-40.0, 40.0, 8001)
        assert np.trapezoid(xs * xs * m.density(xs), xs) == pytest.approx(1.0, abs=1e-14)


class TestOverlap:
    """Overlaps as squared norms of joined states: |a + b|^2 = |a|^2 + |b|^2 + 2 Re<a|b>,
    and the full <a|b> by polarization."""

    def test_self_overlap_of_initial_meter(self):
        m = initial_meter()
        assert joined(m, m).squared_norm() == pytest.approx(4.0, abs=1e-14)
        assert overlap(m, m) == pytest.approx(1.0 + 0.0j, abs=1e-14)

    def test_displaced_pair_closed_form(self):
        a = one_meter([1.0], [0.0], [0.0])
        b = one_meter([1.0], [2.0], [0.0])
        pair = joined(a, b)
        assert pair.squared_norm() == pytest.approx(2.0 + 2.0 * 0.6065306597126334, abs=1e-12)
        assert pair.squared_norm() == pytest.approx(overlap_quadrature(pair, pair).real, abs=1e-10)
        got = overlap(a, b)
        assert got == pytest.approx(0.6065306597126334, abs=1e-12)
        assert got == pytest.approx(overlap_quadrature(a, b), abs=1e-10)

    def test_phase_slope_pair_closed_form(self):
        a = one_meter([1.0], [0.0], [0.0])
        b = one_meter([1.0], [0.0], [1.0])
        pair = joined(a, b)
        assert pair.squared_norm() == pytest.approx(2.0 + 2.0 * math.exp(-0.5), abs=1e-12)
        assert pair.squared_norm() == pytest.approx(overlap_quadrature(pair, pair).real, abs=1e-10)
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
            # polarization subtracts squared norms of size (sum |w|)^2
            scale = weight_scale(joined(a, b))
            assert abs(overlap(a, b) - np.conj(overlap(b, a))) <= 1e-14 * scale
            self_ov = overlap(a, a)
            assert abs(self_ov.imag) <= 1e-14 * scale
            assert self_ov.real > 0
            assert a.squared_norm() == pytest.approx(self_ov.real, abs=1e-14 * scale)


class TestDensity:
    def test_translation_invariance(self):
        shifted = one_meter([1.0], [3.0], [0.0])
        assert shifted.density(3.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_interference_against_direct_sum(self, rng):
        w = one_meter([1 / math.sqrt(2)] * 2, [-1.0, 1.0], [0.0, 0.0])
        xs = np.linspace(-4, 4, 41)
        direct = np.abs([wavefunction_value(x, w) for x in xs]) ** 2
        assert np.max(np.abs(w.density(xs) - direct)) < 1e-12

    def test_nonnegative_everywhere(self, rng):
        w = random_wavefunction(rng, 4)
        assert np.all(w.density(np.linspace(-15, 15, 301)) >= 0.0)

    def test_grid_integral_matches_norm(self, rng):
        w = random_wavefunction(rng, 3)
        xs = np.linspace(-30, 30, 4001)
        integral = np.trapezoid(w.density(xs), xs)
        assert integral == pytest.approx(w.squared_norm(), abs=1e-9)


class TestMoments:
    def test_translated_mean(self):
        w = one_meter([1.0], [5.0], [0.0])
        assert w.first_moment() == pytest.approx(5.0, abs=1e-12)

    def test_closed_form_matches_quadrature_on_random_five_term(self, rng):
        for _ in range(4):
            w = random_wavefunction(rng, 5)
            oracle = quad(
                lambda x: x * abs(wavefunction_value(x, w)) ** 2,
                -50,
                50,
                limit=400,
            )[0] / w.squared_norm()
            assert w.first_moment() == pytest.approx(oracle, abs=1e-9)

    def test_rejects_a_missing_meter(self):
        with pytest.raises(IndexError):
            initial_meter().first_moment(1)

    def test_zero_norm_refuses_moments(self):
        one = one_meter([0.0], [1.0], [0.0])
        two = MeterState(np.zeros((2, 1)), ([0.0, 1.0], [0.0]), ([0.0, 0.0], [0.0]), (BASIS_X, BASIS_X))
        for state in (one, two):
            assert state.squared_norm() == 0.0
            with pytest.raises(ZeroProbabilityOutcome):
                state.first_moment()
        with pytest.raises(ZeroProbabilityOutcome):
            two.cross_moment()


class TestBasisChange:
    def test_initial_meter_form_invariant(self):
        mp = initial_meter().to_xprime()
        assert mp.bases == (BASIS_XPRIME,)
        assert mp.weights.shape == (1,)
        assert mp.weights[0] == pytest.approx(1.0 + 0.0j)
        assert mp.centers[0][0] == pytest.approx(0.0)
        assert mp.phase_slopes[0][0] == pytest.approx(0.0)

    def test_displaced_term_becomes_phase_slope(self):
        lam_a = 0.8
        wp = one_meter([1.0], [lam_a], [0.0]).to_xprime()
        assert wp.centers[0][0] == pytest.approx(0.0)
        assert wp.phase_slopes[0][0] == pytest.approx(-lam_a / 2.0)

    def test_against_fourier_quadrature(self, rng):
        # <x'|w> = (4 pi)^(-1/2) Int exp(-i x' x / 2) w(x) dx
        w = random_wavefunction(rng, 2)
        wp = w.to_xprime()
        for xp in (-1.7, 0.3, 2.1):
            re = quad(lambda x: (np.exp(-0.5j * xp * x) * wavefunction_value(x, w)).real, -50, 50, limit=300)[0]
            im = quad(lambda x: (np.exp(-0.5j * xp * x) * wavefunction_value(x, w)).imag, -50, 50, limit=300)[0]
            oracle = (re + 1j * im) / math.sqrt(4 * math.pi)
            assert wavefunction_value(xp, wp) == pytest.approx(oracle, abs=1e-10)
            assert wp.amplitude(xp)[0] == pytest.approx(oracle, abs=1e-10)

    @settings(max_examples=100)
    @given(terms=term_lists)
    def test_round_trip_density(self, terms):
        w = one_meter(*zip(*terms))
        back = to_x_basis(w.to_xprime())
        # halving and doubling are exact above the subnormal range
        np.testing.assert_allclose(back.centers[0], w.centers[0], rtol=0, atol=1e-300)
        np.testing.assert_allclose(back.phase_slopes[0], w.phase_slopes[0], rtol=0, atol=1e-300)
        xs = np.linspace(-12, 12, 97)
        assert np.max(np.abs(back.density(xs) - w.density(xs))) <= 1e-14 * weight_scale(w)

    @settings(max_examples=100)
    @given(terms=term_lists)
    def test_norm_preserved(self, terms):
        w = one_meter(*zip(*terms))
        assert abs(w.to_xprime().squared_norm() - w.squared_norm()) <= 1e-14 * weight_scale(w)

    def test_wrong_basis_raises(self):
        with pytest.raises(BasisMismatch):
            initial_meter().to_xprime().to_xprime()
        with pytest.raises(BasisMismatch):
            to_x_basis(initial_meter())


class TestConstruction:
    def test_terms_are_read_only_copies(self):
        weights = np.array([1.0 + 0.5j, 0.3])
        centers = np.array([0.0, 1.0])
        w = one_meter(weights, centers, [0.0, 0.0])
        weights[0] = 7.0
        centers[0] = 7.0
        assert w.weights[0] == 1.0 + 0.5j
        assert w.centers[0][0] == 0.0
        with pytest.raises(ValueError):
            w.centers[0][0] = 2.0
        with pytest.raises(ValueError):
            w.weights[0] = 2.0

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
            one_meter(weights, centers, slopes)

    @pytest.mark.parametrize(
        "weights, centers, slopes, bases",
        [
            # ragged axes
            ([1.0, 1.0], ([0.0],), ([0.0, 0.0],), (BASIS_X,)),
            (np.ones((2, 3)), ([0.0, 1.0], [0.0, 1.0]), ([0.0, 0.0], [0.0, 0.0]), (BASIS_X, BASIS_X)),
            (np.ones((2, 2)), ([0.0, 1.0], [0.0, 1.0]), ([0.0, 0.0], [0.0]), (BASIS_X, BASIS_X)),
            (np.ones((0, 1)), ([], [0.0]), ([], [0.0]), (BASIS_X, BASIS_X)),
            # three weight axes
            (np.ones((1, 1, 1)), ([0.0],) * 3, ([0.0],) * 3, (BASIS_X,) * 3),
            (1.0, (), (), ()),
            # a bases tuple of the wrong length
            ([1.0], ([0.0],), ([0.0],), (BASIS_X, BASIS_X)),
            (np.ones((1, 1)), ([0.0], [0.0]), ([0.0], [0.0]), (BASIS_X,)),
            # a non-finite centre or slope on meter 2
            (np.ones((1, 2)), ([0.0], [0.0, math.nan]), ([0.0], [0.0, 0.0]), (BASIS_X, BASIS_X)),
            (np.ones((1, 1)), ([0.0], [math.inf]), ([0.0], [0.0]), (BASIS_X, BASIS_X)),
            (np.ones((1, 1)), ([0.0], [0.0]), ([0.0], [-math.inf]), (BASIS_X, BASIS_X)),
            # an unknown basis
            ([1.0], ([0.0],), ([0.0],), ("p",)),
            (np.ones((1, 1)), ([0.0], [0.0]), ([0.0], [0.0]), (BASIS_X, "p")),
        ],
    )
    def test_rejects_malformed_meters_at_both_ranks(self, weights, centers, slopes, bases):
        with pytest.raises(ValueError):
            MeterState(weights, centers, slopes, bases)


class TestOneMeterAsTwo:
    """A one-meter state is the two-meter state whose second meter holds one
    unit term at the origin: the same pair sums through the two-meter route."""

    @settings(max_examples=100)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        coupling=st.floats(1e-3, 20.0),
        basis=st.sampled_from((BASIS_X, BASIS_XPRIME)),
    )
    def test_matches_one_term_second_meter(self, dim, seed, coupling, basis):
        rng = np.random.default_rng(seed)
        obs = random_observable(rng, dim)
        psi, phi = random_selection_pair(rng, dim)
        w = branch_weights(obs, psi, phi)
        a = obs.eigensystem.eigenvalues
        if basis == BASIS_X:  # von Neumann terms
            centers, slopes = coupling * a, np.zeros_like(a)
        else:  # kick terms
            centers, slopes = np.zeros_like(a), -coupling * a / 2.0
        one = one_meter(w, centers, slopes, basis)
        two = MeterState(w[:, None], (centers, [0.0]), (slopes, [0.0]), (basis, BASIS_X))
        tol = 1e-13 * weight_scale(one)
        reach = 1.0 + coupling  # unit spectral radius: |m| + |dk| <= coupling
        xs, x2 = np.linspace(-coupling - 6.0, coupling + 6.0, 61), np.linspace(-3.0, 3.0, 7)
        pairs = [(one, two)]
        if basis == BASIS_X:
            pairs.append((one.to_xprime(0), two.to_xprime(0)))
        else:
            for state in (one, two):
                with pytest.raises(BasisMismatch):
                    state.to_xprime(0)
        for o, t in pairs:
            norm = o.squared_norm()
            assert abs(t.squared_norm() - norm) <= tol
            assert abs(t.first_moment(0) - o.first_moment(0)) * norm <= tol * reach
            assert t.first_moment(1) == 0.0 and t.cross_moment() == 0.0
            want = np.outer(o.density(xs), gaussian_density(x2))
            assert np.max(np.abs(t.density(xs, x2) - want)) <= tol
            np.testing.assert_array_equal(t.centers[0], o.centers[0])
            np.testing.assert_array_equal(t.phase_slopes[0], o.phase_slopes[0])
            assert np.max(np.abs(t.weights[:, 0] - o.weights)) <= tol


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
        whole = one_meter(*zip(*summed))
        split_state = one_meter(*zip(*pieces))
        scale = weight_scale(whole)
        norm = whole.squared_norm()
        assert abs(split_state.squared_norm() - norm) <= 1e-12 * scale
        xs = np.linspace(-10, 10, 81)
        assert np.max(np.abs(split_state.density(xs) - whole.density(xs))) <= 1e-12 * scale
        assume(norm >= 1e-2 * scale)
        reach = 1.0 + np.max(np.abs(whole.centers[0])) + np.max(np.abs(whole.phase_slopes[0]))
        assert abs(split_state.first_moment() - whole.first_moment()) <= 1e-12 * reach * scale / norm


class TestSampler:
    """Per-stream generators, which the Monte Carlo runners draw from."""

    def test_stream_rng_distinct_and_reproducible(self):
        a = stream_rng(7, 0).random(5)
        b = stream_rng(7, 1).random(5)
        assert not np.allclose(a, b)
        assert np.array_equal(a, stream_rng(7, 0).random(5))
