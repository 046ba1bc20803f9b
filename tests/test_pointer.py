"""Meter wavefunction algebra: overlaps, moments, basis change."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import to_x_basis
from weakmeas.errors import BasisMismatch
from weakmeas.pointer import (
    BASIS_X,
    BASIS_XPRIME,
    GaussianTerm,
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
    return PointerWavefunction((GaussianTerm(1.0, 0.0, 0.0),), BASIS_X)


def term_value(x, t: GaussianTerm):
    """Independent re-evaluation of one Gaussian term."""
    return t.weight * np.exp(1j * t.phase_slope * x) * WAVEFUNCTION_NORM * np.exp(
        -((x - t.center) ** 2) / 4.0
    )


def wavefunction_value(x, w: PointerWavefunction):
    return sum(term_value(x, t) for t in w.terms)


def overlap_quadrature(a: PointerWavefunction, b: PointerWavefunction) -> complex:
    re = quad(lambda x: (np.conj(wavefunction_value(x, a)) * wavefunction_value(x, b)).real, -50, 50, limit=300)[0]
    im = quad(lambda x: (np.conj(wavefunction_value(x, a)) * wavefunction_value(x, b)).imag, -50, 50, limit=300)[0]
    return re + 1j * im


def random_wavefunction(rng, n_terms=3, basis=BASIS_X) -> PointerWavefunction:
    terms = tuple(
        GaussianTerm(
            rng.normal() + 1j * rng.normal(),
            2.0 * rng.normal(),
            rng.normal(),
        )
        for _ in range(n_terms)
    )
    return PointerWavefunction(terms, basis)


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
        a = PointerWavefunction((GaussianTerm(1.0, 0.0, 0.0),))
        b = PointerWavefunction((GaussianTerm(1.0, 2.0, 0.0),))
        got = overlap(a, b)
        assert got == pytest.approx(0.6065306597126334, abs=1e-12)
        assert got == pytest.approx(overlap_quadrature(a, b), abs=1e-10)

    def test_phase_slope_pair_closed_form(self):
        a = PointerWavefunction((GaussianTerm(1.0, 0.0, 0.0),))
        b = PointerWavefunction((GaussianTerm(1.0, 0.0, 1.0),))
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
        shifted = PointerWavefunction((GaussianTerm(1.0, 3.0, 0.0),))
        assert density(shifted, 3.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)

    def test_interference_against_direct_sum(self, rng):
        w = PointerWavefunction(
            (GaussianTerm(1 / math.sqrt(2), -1.0, 0.0), GaussianTerm(1 / math.sqrt(2), 1.0, 0.0))
        )
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
        w = PointerWavefunction((GaussianTerm(1.0, 5.0, 0.0),))
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
        assert len(mp.terms) == 1
        assert mp.terms[0].weight == pytest.approx(1.0 + 0.0j)
        assert mp.terms[0].center == pytest.approx(0.0)
        assert mp.terms[0].phase_slope == pytest.approx(0.0)

    def test_displaced_term_becomes_phase_slope(self):
        lam_a = 0.8
        w = PointerWavefunction((GaussianTerm(1.0, lam_a, 0.0),))
        wp = to_xprime_basis(w)
        assert wp.terms[0].center == pytest.approx(0.0)
        assert wp.terms[0].phase_slope == pytest.approx(-lam_a / 2.0)

    def test_against_fourier_quadrature(self, rng):
        # <x'|w> = (4 pi)^(-1/2) Int exp(-i x' x / 2) w(x) dx
        w = random_wavefunction(rng, 2)
        wp = to_xprime_basis(w)
        for xp in (-1.7, 0.3, 2.1):
            re = quad(lambda x: (np.exp(-0.5j * xp * x) * wavefunction_value(x, w)).real, -50, 50, limit=300)[0]
            im = quad(lambda x: (np.exp(-0.5j * xp * x) * wavefunction_value(x, w)).imag, -50, 50, limit=300)[0]
            oracle = (re + 1j * im) / math.sqrt(4 * math.pi)
            assert wavefunction_value(xp, wp) == pytest.approx(oracle, abs=1e-10)

    def test_round_trip_density(self, rng):
        w = random_wavefunction(rng, 3)
        back = to_x_basis(to_xprime_basis(w))
        xs = np.linspace(-8, 8, 100)
        assert np.max(np.abs(density(back, xs) - density(w, xs))) < 1e-10

    def test_norm_preserved(self, rng):
        w = random_wavefunction(rng, 4)
        assert squared_norm(to_xprime_basis(w)) == pytest.approx(squared_norm(w), abs=1e-12)

    def test_wrong_basis_raises(self):
        with pytest.raises(BasisMismatch):
            to_xprime_basis(to_xprime_basis(initial_meter()))
        with pytest.raises(BasisMismatch):
            to_x_basis(initial_meter())


class TestMerging:
    def test_duplicates_coalesce(self):
        w = PointerWavefunction(
            (GaussianTerm(0.3, 1.0, 0.5), GaussianTerm(0.7, 1.0, 0.5))
        )
        assert len(w.terms) == 1
        assert w.terms[0].weight == pytest.approx(1.0 + 0.0j)

    def test_density_unchanged_by_merge(self):
        split = (
            GaussianTerm(0.3 + 0.1j, 1.0, 0.5),
            GaussianTerm(0.7 - 0.1j, 1.0, 0.5),
            GaussianTerm(0.2, -1.0, 0.0),
        )
        merged = PointerWavefunction(split)
        xs = np.linspace(-5, 5, 64)
        direct = np.abs([sum(term_value(x, t) for t in split) for x in xs]) ** 2
        assert np.max(np.abs(density(merged, xs) - direct)) < 1e-12


class TestSampler:
    """Per-stream generators, which the Monte Carlo runners draw from."""

    def test_stream_rng_distinct_and_reproducible(self):
        a = stream_rng(7, 0).random(5)
        b = stream_rng(7, 1).random(5)
        assert not np.allclose(a, b)
        assert np.array_equal(a, stream_rng(7, 0).random(5))
