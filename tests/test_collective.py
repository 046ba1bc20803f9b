"""Collective coupling of one meter to N identically prepared systems."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import SX, direct_x_density, random_observable, random_selection_pair, single_x_synthesis_density
from weakmeas.cli import DEFAULT_N_GRID
from weakmeas.core import Observable, PureState, branch_weights, weak_value
from weakmeas.errors import GridTooCoarse, NumericalQualityError
from weakmeas.collective import (
    CollectiveSetup,
    collective_conditional_density,
    collective_conditional_mean,
    collective_postselection_ratio,
    collective_ratio_limit,
    collective_x_densities,
)
from weakmeas.pointer import (
    BASIS_X,
    BASIS_XPRIME,
    MeterState,
    gaussian_density,
)
from weakmeas.protocols import (
    MeasurementSetup,
    conditional_meter_mean,
    conditional_meter_state,
    postselection_probability,
)


def ket(*vals) -> PureState:
    return PureState.normalized(np.array(vals, dtype=complex))


PSI0 = ket(1, 0)
PHI_REAL = ket(0.3, math.sqrt(0.91))
PHI_COMPLEX = PureState(np.array([0.3, 1j * math.sqrt(0.91)]))


def two_system_pointer(cs: CollectiveSetup) -> MeterState:
    """The N = 2 meter state written out: weights w_i w_j at centers
    lam (a_i + a_j) / 2, unnormalized so its squared norm is P."""
    w = branch_weights(cs.observable, cs.preselect, cs.postselect)
    a = cs.observable.eigensystem.eigenvalues
    weights = np.outer(w, w).ravel()
    centers = (cs.coupling * (a[:, None] + a[None, :]) / 2.0).ravel()
    return MeterState(weights, (centers,), (np.zeros_like(centers),), (BASIS_X,))


class TestReductionToSingleMeasurement:
    def test_density_matches_protocols_at_n1(self):
        for basis in (BASIS_X, BASIS_XPRIME):
            cs = CollectiveSetup(Observable(SX), 0.7, PSI0, PHI_REAL, 1)
            setup = MeasurementSetup(Observable(SX), 0.7, PSI0, PHI_REAL)
            xs = np.linspace(-5, 5, 101)
            got = collective_conditional_density(cs, basis, xs)
            cm = conditional_meter_state(setup, basis)
            want = cm.pointer.density(xs) / cm.probability
            assert np.max(np.abs(got - want)) < 1e-12

    def test_probability_and_mean_match_at_n1(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        cs = CollectiveSetup(obs, 0.45, psi, phi, 1)
        setup = MeasurementSetup(obs, 0.45, psi, phi)
        ov_sq = abs(phi.overlap(psi)) ** 2
        assert collective_postselection_ratio(cs) * ov_sq == pytest.approx(
            postselection_probability(setup), abs=1e-12
        )
        assert collective_conditional_mean(cs, BASIS_X) == pytest.approx(
            conditional_meter_mean(setup, BASIS_X), abs=1e-12
        )
        assert collective_conditional_mean(cs, BASIS_XPRIME) == pytest.approx(
            conditional_meter_mean(setup, BASIS_XPRIME), abs=1e-12
        )

    @settings(max_examples=25)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        coupling=st.floats(1e-3, 20.0),
    )
    def test_matches_single_measurement_on_random_setups(self, dim, seed, coupling):
        rng = np.random.default_rng(seed)
        obs = random_observable(rng, dim)
        psi, phi = random_selection_pair(rng, dim)
        cs = CollectiveSetup(obs, coupling, psi, phi, 1)
        setup = MeasurementSetup(obs, coupling, psi, phi)
        prob = postselection_probability(setup)
        assert collective_postselection_ratio(cs) * abs(phi.overlap(psi)) ** 2 == pytest.approx(
            prob, rel=1e-12
        )
        xs = np.linspace(-coupling - 6.0, coupling + 6.0, 61)
        for basis in (BASIS_X, BASIS_XPRIME):
            got = collective_conditional_density(cs, basis, xs)
            cm = conditional_meter_state(setup, basis)
            want = cm.pointer.density(xs) / cm.probability
            assert np.max(np.abs(got - want)) < 1e-12
            assert collective_conditional_mean(cs, basis) == pytest.approx(
                conditional_meter_mean(setup, basis), abs=1e-12 * (1.0 + coupling)
            )


class TestExpansion:
    def test_two_system_binomial_weights(self, rng):
        for dim in (2, 3):
            psi, phi = random_selection_pair(rng, dim)
            cs = CollectiveSetup(random_observable(rng, dim), 0.8, psi, phi, 2)
            pointer_x = two_system_pointer(cs)
            prob = pointer_x.squared_norm()
            assert collective_postselection_ratio(cs) * abs(phi.overlap(psi)) ** 4 == pytest.approx(
                prob, rel=1e-12
            )
            xs = np.linspace(-6.0, 6.0, 121)
            for basis, pointer in ((BASIS_X, pointer_x), (BASIS_XPRIME, pointer_x.to_xprime())):
                got = collective_conditional_density(cs, basis, xs)
                assert np.max(np.abs(got - pointer.density(xs) / prob)) < 1e-12
                assert collective_conditional_mean(cs, basis) == pytest.approx(
                    pointer.first_moment(), abs=1e-12
                )

    def test_zero_coupling_probability_in_log_domain(self):
        n = 400
        cs = CollectiveSetup(Observable(SX), 0.0, PSI0, PHI_REAL, n)
        ov = abs(PHI_REAL.overlap(PSI0))
        log_p = 2 * n * math.log(ov) + math.log(collective_postselection_ratio(cs))
        assert log_p == pytest.approx(2 * n * math.log(ov), rel=1e-10)
        assert collective_postselection_ratio(cs) == pytest.approx(1.0, rel=1e-9)



class TestDensities:
    @pytest.mark.parametrize("basis", [BASIS_X, BASIS_XPRIME])
    def test_normalized(self, basis):
        cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_COMPLEX, 60)
        a_w = weak_value(Observable(SX), PSI0, PHI_COMPLEX).value
        center = a_w.real if basis == BASIS_X else a_w.imag
        xs = np.linspace(center - 12, center + 12, 4001)
        total = np.trapezoid(collective_conditional_density(cs, basis, xs), xs)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_x_density_approaches_shifted_gaussian(self):
        a_w = weak_value(Observable(SX), PSI0, PHI_REAL).value
        xs = np.linspace(a_w.real - 8, a_w.real + 8, 512)
        target = gaussian_density(xs - a_w.real)
        sups = []
        for n in (25, 50, 100, 200):
            cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_REAL, n)
            dens = collective_conditional_density(cs, BASIS_X, xs)
            sups.append(np.max(np.abs(dens - target)))
        for small, big in zip(sups, sups[1:]):
            assert small / big == pytest.approx(2.0, abs=0.3)

    def test_xprime_mean_approaches_im_weak_value(self):
        im_w = weak_value(Observable(SX), PSI0, PHI_COMPLEX).value.imag
        gaps = []
        for n in (50, 100, 200, 400):
            cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_COMPLEX, n)
            gaps.append(abs(collective_conditional_mean(cs, BASIS_XPRIME) - im_w))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[0] / gaps[-1] > 5.0


def random_collective_setup(dim, seed, coupling, n_systems) -> CollectiveSetup:
    """A random collective setup, skipped when its profile leaves the grid."""
    rng = np.random.default_rng(seed)
    obs = random_observable(rng, dim)
    psi, phi = random_selection_pair(rng, dim)
    cs = CollectiveSetup(obs, coupling, psi, phi, n_systems)
    try:
        cs._profile
    except GridTooCoarse:
        assume(False)
    return cs


def x_window(cs: CollectiveSetup, halfwidth: float, points: int) -> np.ndarray:
    """Evenly spaced x around the large-N centre lam Re(A_w), as the CLI takes."""
    center = cs.coupling * weak_value(cs.observable, cs.preselect, cs.postselect).value.real
    return np.linspace(center - halfwidth, center + halfwidth, points)


RANDOM_SETUPS = dict(
    dim=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
    coupling=st.floats(1e-3, 20.0),
    n_systems=st.sampled_from([1, 3, 25, 400, 10**6]),
)


class TestXSynthesis:
    """The chirp-z x density against the plain Fourier sum over the grid."""

    @settings(max_examples=25)
    @given(**RANDOM_SETUPS, halfwidth=st.floats(0.5, 20.0), points=st.integers(1, 600))
    def test_matches_direct_kernel_on_random_setups(
        self, dim, seed, coupling, n_systems, halfwidth, points
    ):
        cs = random_collective_setup(dim, seed, coupling, n_systems)
        xs = x_window(cs, halfwidth, points)
        got = collective_conditional_density(cs, BASIS_X, xs)
        # normalized densities: an absolute bound, since far from the mass
        # the values fall to ~1e-31 and a relative one means nothing there
        assert np.max(np.abs(got - direct_x_density(cs, xs))) <= 1e-12

    def test_matches_mpmath_sum(self):
        mpmath = pytest.importorskip("mpmath")
        cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_COMPLEX, 100)
        xs = x_window(cs, 2.5, 6)
        a = cs.observable.eigensystem.eigenvalues
        w = branch_weights(cs.observable, cs.preselect, cs.postselect)
        with mpmath.workdps(40):
            grid = [mpmath.mpf(float(g)) for g in cs._profile.grid]
            shift = mpmath.mpf(cs.coupling) / (2 * cs.n_systems)
            f = [
                sum(mpmath.mpc(wi) * mpmath.expj(-shift * float(ai) * g) for ai, wi in zip(a, w))
                ** cs.n_systems
                * mpmath.exp(-g * g / 4)
                for g in grid
            ]
            dens = [abs(v) ** 2 for v in f]
            norm = sum((g1 - g0) * (d0 + d1) / 2 for g0, g1, d0, d1 in zip(grid, grid[1:], dens, dens[1:]))
            step = (grid[-1] - grid[0]) / (len(grid) - 1)
            want = [
                float(
                    abs(sum(v * mpmath.expj(mpmath.mpf(float(x)) * g / 2) for v, g in zip(f, grid)))
                    ** 2 * step**2 / (4 * mpmath.pi) / norm
                )
                for x in xs
            ]
        got = collective_conditional_density(cs, BASIS_X, xs)
        assert max(want) > 0.1
        assert np.max(np.abs(got - np.array(want))) <= 1e-12

    def test_scalar_single_point_and_decreasing_x(self):
        cs = CollectiveSetup(Observable(SX), 0.7, PSI0, PHI_COMPLEX, 25)
        xs = np.linspace(3.0, -3.0, 7)
        want = direct_x_density(cs, xs)
        assert np.max(np.abs(collective_conditional_density(cs, BASIS_X, xs) - want)) <= 1e-12
        got = collective_conditional_density(cs, BASIS_X, 1.0)
        assert isinstance(got, float) and got == pytest.approx(want[2], abs=1e-12)
        got = collective_conditional_density(cs, BASIS_X, np.array([1.0]))
        assert got.shape == (1,) and got[0] == pytest.approx(want[2], abs=1e-12)

    @pytest.mark.parametrize(
        "xs",
        [
            [0.0, 1.0, 3.0],
            np.geomspace(0.1, 4.0, 50),
            np.linspace(-4.0, 4.0, 64) + 1e-9 * np.arange(64) ** 2,
        ],
    )
    def test_uneven_x_is_refused(self, xs):
        cs = CollectiveSetup(Observable(SX), 0.7, PSI0, PHI_COMPLEX, 25)
        with pytest.raises(ValueError, match="evenly spaced"):
            collective_conditional_density(cs, BASIS_X, xs)


class TestSharedKernel:
    """One chirp-z kernel for many setups gives each setup's own synthesis."""

    @settings(max_examples=10)
    @given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1), coupling=st.floats(1e-3, 3.0))
    def test_default_n_grid_matches_single_synthesis_bit_for_bit(self, dim, seed, coupling):
        setups = [random_collective_setup(dim, seed, coupling, n) for n in DEFAULT_N_GRID]
        xs = x_window(setups[0], 8.0, 512)
        for cs, got in zip(setups, collective_x_densities(setups, xs), strict=True):
            want = single_x_synthesis_density(cs, xs)
            assert got.tobytes() == want.tobytes()
            assert collective_conditional_density(cs, BASIS_X, xs).tobytes() == want.tobytes()

    def test_uneven_x_is_refused(self):
        setups = [CollectiveSetup(Observable(SX), 0.7, PSI0, PHI_COMPLEX, n) for n in DEFAULT_N_GRID]
        with pytest.raises(ValueError, match="evenly spaced"):
            collective_x_densities(setups, [0.0, 1.0, 3.0])

    def test_no_setups_give_no_densities(self):
        assert collective_x_densities([], np.linspace(-1.0, 1.0, 5)) == []


class TestQuadratureError:
    """Every other grid point (4096 of 8192) moves no result beyond its bound."""

    @settings(max_examples=25)
    @given(**RANDOM_SETUPS)
    def test_halving_the_grid(self, dim, seed, coupling, n_systems):
        cs = random_collective_setup(dim, seed, coupling, n_systems)
        prof = cs._profile
        grid, density = prof.grid[::2], prof.density[::2]
        coarse = dataclasses.replace(cs)  # same setup, no cached profile
        coarse.__dict__["_profile"] = dataclasses.replace(
            prof,
            grid=grid,
            amplitude=prof.amplitude[::2],
            density=density,
            norm=float(np.trapezoid(density, grid)),
            local_weak_value=prof.local_weak_value[::2],
        )
        assert collective_postselection_ratio(coarse) == pytest.approx(
            collective_postselection_ratio(cs), rel=1e-12
        )
        assert collective_conditional_mean(coarse, BASIS_XPRIME) == pytest.approx(
            collective_conditional_mean(cs, BASIS_XPRIME), abs=1e-12
        )
        xs = x_window(cs, 8.0, 512)
        fine = collective_conditional_density(cs, BASIS_X, xs)
        assert np.max(np.abs(collective_conditional_density(coarse, BASIS_X, xs) - fine)) <= 1e-10


class TestPostselectionRatio:
    def test_real_weak_value_limit_is_one(self):
        diffs = []
        for n in (50, 100, 200):
            cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_REAL, n)
            diffs.append(abs(collective_postselection_ratio(cs) - 1.0))
        assert diffs == sorted(diffs, reverse=True)
        assert diffs[0] / diffs[-1] == pytest.approx(4.0, rel=0.35)

    def test_complex_weak_value_limit(self):
        a_w = weak_value(Observable(SX), PSI0, PHI_COMPLEX).value
        limit = math.exp(a_w.imag**2 / 2.0)
        gaps = []
        for n in (50, 100, 200, 400):
            cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_COMPLEX, n)
            gaps.append(abs(collective_postselection_ratio(cs) - limit))
        assert gaps == sorted(gaps, reverse=True)

    def test_large_n_keeps_the_approach_to_the_limit(self):
        # the ratio approaches its limit as 1/N; the gap times N stays put
        # only if the O(1/N) per-system factor keeps its digits
        a_w = weak_value(Observable(SX), PSI0, PHI_COMPLEX).value
        limit = math.exp(a_w.imag**2 / 2.0)
        scaled = []
        for n in (10**6, 10**9, 10**12):
            cs = CollectiveSetup(Observable(SX), 1.0, PSI0, PHI_COMPLEX, n)
            scaled.append(n * (limit - collective_postselection_ratio(cs)))
        assert min(scaled) > 0.0
        assert max(scaled) / min(scaled) < 1.01
        assert collective_conditional_mean(cs, BASIS_XPRIME) == pytest.approx(
            a_w.imag, abs=1e-9
        )


    def test_limit_past_the_float_range_is_refused(self):
        # lam^2 Im(A_w)^2 / 2 = 1600 * 10.1 / 2: exp overflows; at N = 1 the
        # profile itself fits the grid, so only the limit is refused
        cs = CollectiveSetup(Observable(SX), 40.0, PSI0, PHI_COMPLEX, 1)
        assert math.isfinite(collective_postselection_ratio(cs))
        with pytest.raises(NumericalQualityError, match="float range"):
            collective_ratio_limit(cs)
        a_w = weak_value(Observable(SX), PSI0, PHI_COMPLEX).value
        cs = dataclasses.replace(cs, coupling=1.0)
        assert collective_ratio_limit(cs) == math.exp(a_w.imag**2 / 2.0)


class TestGridEdge:
    """The fixed x' grid must hold the whole profile, or the setup is refused."""

    @pytest.mark.parametrize("coupling", [3.0, 5.0])
    def test_profile_cut_by_the_edge_is_refused(self, coupling):
        # at N = 10^6 the profile sits near lam Im(A_w) = -3.2 lam: at lam = 3
        # its edge density is 2.5e-3 of the peak, at lam = 5 the edge is the peak
        cs = CollectiveSetup(Observable(SX), coupling, PSI0, PHI_COMPLEX, 10**6)
        with pytest.raises(GridTooCoarse, match="grid edge"):
            collective_postselection_ratio(cs)
        with pytest.raises(GridTooCoarse):
            collective_conditional_mean(cs, BASIS_XPRIME)
        with pytest.raises(GridTooCoarse):
            collective_conditional_density(cs, BASIS_X, np.zeros(3))

    @pytest.mark.parametrize("coupling", [0.1, 1.0])
    def test_profile_inside_the_grid_is_computed(self, coupling):
        a_w = weak_value(Observable(SX), PSI0, PHI_COMPLEX).value
        limit = math.exp(coupling**2 * a_w.imag**2 / 2.0)
        cs = CollectiveSetup(Observable(SX), coupling, PSI0, PHI_COMPLEX, 100)
        assert 1.0 < collective_postselection_ratio(cs) < limit
