"""Stochastic runners against their analytic targets."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import kstest

from conftest import (
    SX,
    SY,
    SZ,
    complex_kick,
    complex_single,
    cumulative_distribution,
    degenerate_observable,
    projector_stack_sequential,
    random_observable,
    random_selection_pair,
    run_python,
    untiled_threshold,
)
from weakmeas.core import Observable, PureState
from weakmeas.errors import NoPostselectedRuns, OrthogonalPostselection
from weakmeas.montecarlo import (
    BLOCK_SIZE,
    TILE,
    TrialPlan,
    TrialStatistics,
    _categorical,
    run_kick,
    run_plan,
    run_sequential,
    run_single,
    run_threshold,
    truncated_mean_prediction,
)
from weakmeas.pointer import BASIS_X, BASIS_XPRIME
from weakmeas.protocols import (
    MeasurementSetup,
    SequentialSetup,
    conditional_meter_mean,
    conditional_meter_state,
    kick_pointer_state,
    postselection_probability,
    sequential_cross_covariance,
    sequential_meter_state,
)


def ket(*vals) -> PureState:
    return PureState.normalized(np.array(vals, dtype=complex))


PSI = ket(1, 0)
PHI = ket(0.6, 0.8)
OBS = Observable(SX)
TRIALS = 100_000


def within_se(value, target, se, n_se=4.0):
    return abs(value - target) <= n_se * se


class TestDeterminism:
    def test_identical_records_for_same_seed(self):
        plan = TrialPlan("single", OBS, 0.1, PSI, PHI, 20_000, 77)
        rec_a, stats_a = run_single(plan)
        rec_b, stats_b = run_single(plan)
        assert np.array_equal(rec_a, rec_b)
        assert stats_a == stats_b

    def test_thread_count_does_not_change_results(self):
        base = TrialPlan("single", OBS, 0.1, PSI, PHI, 150_000, 5, threads=1)
        multi = TrialPlan("single", OBS, 0.1, PSI, PHI, 150_000, 5, threads=4)
        rec_a, _ = run_single(base)
        rec_b, _ = run_single(multi)
        assert np.array_equal(rec_a, rec_b)

    def test_different_seeds_differ(self):
        rec_a, _ = run_single(TrialPlan("single", OBS, 0.1, PSI, PHI, 10_000, 1))
        rec_b, _ = run_single(TrialPlan("single", OBS, 0.1, PSI, PHI, 10_000, 2))
        assert not np.array_equal(rec_a, rec_b)


class TestRunSingle:
    def test_conditional_mean_matches_analytic(self):
        plan = TrialPlan("single", OBS, 0.1, PSI, PHI, 10**6, 11)
        _, stats = run_single(plan)
        target = conditional_meter_mean(MeasurementSetup(OBS, 0.1, PSI, PHI), BASIS_X)
        assert within_se(stats.conditional_means[0], target, stats.standard_errors[0])

    def test_postselection_rate_matches_probability(self):
        plan = TrialPlan("single", OBS, 0.1, PSI, PHI, TRIALS, 12)
        _, stats = run_single(plan)
        p = postselection_probability(MeasurementSetup(OBS, 0.1, PSI, PHI))
        se = math.sqrt(p * (1 - p) / TRIALS)
        assert within_se(stats.postselection_rate, p, se)

    def test_eigenstate_postselection_near_certain(self):
        psi = ket(1, 1)  # +1 eigenstate of sigma_x
        plan = TrialPlan("single", OBS, 0.4, psi, psi, 50_000, 3)
        _, stats = run_single(plan)
        assert stats.postselection_rate == pytest.approx(1.0)
        assert within_se(stats.conditional_means[0], 0.4, stats.standard_errors[0])

    def test_postselected_sample_passes_ks(self):
        lam = 0.3
        plan = TrialPlan("single", OBS, lam, PSI, PHI, TRIALS, 21)
        records, _ = run_single(plan)
        kept = records[records["postselected"]]["x"]
        meter = conditional_meter_state(MeasurementSetup(OBS, lam, PSI, PHI)).pointer
        grid, cdf = cumulative_distribution(meter)
        stat = kstest(kept, lambda x: np.interp(x, grid, cdf)).statistic
        assert stat < 1.628 / math.sqrt(kept.size)  # 1% critical value


class TestSingleAgainstComplexFormula:
    """run_single's real, constant-free kernel, evaluated in tiles, gives the
    same records, byte for byte, as the complex amplitude over normalized
    Gaussians on whole blocks."""

    @settings(max_examples=50)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 20.0),
        trials=st.integers(1, 3 * TILE + 1),
        data=st.data(),
    )
    def test_records_match_on_degenerate_spectra(self, dim, seed, lam, trials, data):
        rng = np.random.default_rng(seed)
        a = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"))
        psi, phi = random_selection_pair(rng, dim)
        plan = TrialPlan("single", a, lam, psi, phi, trials, int(rng.integers(2**31)))
        expected = complex_single(plan)
        if not expected["postselected"].any():
            with pytest.raises(NoPostselectedRuns):
                run_single(plan)
            return
        records, _ = run_single(plan)
        assert records.dtype == expected.dtype
        assert records.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_blocks(self, threads):
        rng = np.random.default_rng(70_001)
        a = degenerate_observable(rng, 9, 4)
        psi, phi = random_selection_pair(rng, 9)
        plan = TrialPlan("single", a, 1.7, psi, phi, BLOCK_SIZE + TILE + 1, 8, threads=threads)
        records, _ = run_single(plan)
        assert records.tobytes() == complex_single(plan).tobytes()


class TestKickAgainstComplexFormula:
    """run_kick's real cos/sin kernel, evaluated in tiles, gives the same
    records, byte for byte, as the complex exponential of the (n, k) outer
    product of a whole block."""

    @settings(max_examples=50)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(math.log(1e-3), math.log(20.0)),
        trials=st.integers(1, 3 * TILE + 1),
        data=st.data(),
    )
    def test_records_match_on_degenerate_spectra(self, dim, seed, log_lam, trials, data):
        rng = np.random.default_rng(seed)
        a = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"))
        psi, phi = random_selection_pair(rng, dim)
        plan = TrialPlan("kick", a, math.exp(log_lam), psi, phi, trials, int(rng.integers(2**31)))
        expected = complex_kick(plan)
        if not expected["postselected"].any():
            with pytest.raises(NoPostselectedRuns):
                run_kick(plan)
            return
        records, _ = run_kick(plan)
        assert records.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_blocks(self, threads):
        rng = np.random.default_rng(70_003)
        a = degenerate_observable(rng, 11, 5)
        psi, phi = random_selection_pair(rng, 11)
        plan = TrialPlan("kick", a, 3.1, psi, phi, BLOCK_SIZE + 1, 9, threads=threads)
        records, _ = run_kick(plan)
        assert records.tobytes() == complex_kick(plan).tobytes()


class TestThresholdAgainstUntiledBlocks:
    """run_threshold's tiled kernel gives the same records, byte for byte, as
    one pass over each whole block."""

    @settings(max_examples=50)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        log_lam=st.floats(math.log(1e-3), math.log(20.0)),
        log_multiple=st.floats(math.log(1e-2), math.log(1e3)),
        trials=st.integers(1, 3 * TILE + 1),
        data=st.data(),
    )
    def test_records_match_on_degenerate_spectra(self, dim, seed, log_lam, log_multiple, trials, data):
        rng = np.random.default_rng(seed)
        a = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"))
        psi, _ = random_selection_pair(rng, dim)
        plan = TrialPlan(
            "threshold", a, math.exp(log_lam), psi, None, trials, int(rng.integers(2**31)),
            threshold_multiple=math.exp(log_multiple),
        )
        expected = untiled_threshold(plan)
        if not expected["postselected"].any():
            with pytest.raises(NoPostselectedRuns):
                run_threshold(plan)
            return
        records, _ = run_threshold(plan)
        assert records.dtype == expected.dtype
        assert records.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_blocks(self, threads):
        rng = np.random.default_rng(70_005)
        a = degenerate_observable(rng, 7, 3)
        psi, _ = random_selection_pair(rng, 7)
        plan = TrialPlan(
            "threshold", a, 0.4, psi, None, BLOCK_SIZE + TILE + 1, 10, threshold_multiple=2.0, threads=threads
        )
        records, _ = run_threshold(plan)
        assert records.tobytes() == untiled_threshold(plan).tobytes()


class TestCategorical:
    """Counting the CDF entries <= u is np.searchsorted(side="right") clipped
    to the last branch, on every u, the CDF's own entries included."""

    @given(
        probs=st.lists(
            st.sampled_from([0.0, 1e-300, 1e-12, 0.1, 0.25, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=16
        ).filter(lambda p: sum(p) > 0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(probs=[0.3], seed=0)
    @example(probs=[0.0, 0.2, 0.0, 0.0, 0.8, 0.0], seed=0)
    def test_same_branches_as_searchsorted(self, probs, seed):
        probs = np.array(probs)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        at_edges = np.concatenate((cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf)))
        u = np.concatenate((at_edges, [0.0, np.nextafter(1.0, 0.0)], np.random.default_rng(seed).random(256)))
        expected = np.searchsorted(cdf, u, side="right").clip(0, probs.size - 1)
        assert np.array_equal(_categorical(u, probs), expected)

    def test_zero_probability_branches_are_never_drawn(self):
        probs = np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0])
        u = np.array([0.0, np.nextafter(0.5, 0.0), 0.5, np.nextafter(1.0, 0.0)])
        assert np.array_equal(_categorical(u, probs), [1, 1, 4, 4])


class TestRunKick:
    def test_conditional_mean_matches_kick_density(self):
        psi, phi = PSI, ket(1, 1j)
        lam = 0.15
        plan = TrialPlan("kick", OBS, lam, psi, phi, 10**6, 8)
        _, stats = run_kick(plan)
        target = kick_pointer_state(MeasurementSetup(OBS, lam, psi, phi)).first_moment()
        assert within_se(stats.conditional_means[0], target, stats.standard_errors[0])

    def test_unconditional_mean_is_zero(self):
        plan = TrialPlan("kick", OBS, 0.15, PSI, ket(1, 1j), TRIALS, 9)
        records, _ = run_kick(plan)
        xs = records["x"]
        assert abs(xs.mean()) <= 4.0 / math.sqrt(xs.size)

    def test_postselection_rate_equals_von_neumann_probability(self):
        psi, phi = PSI, ket(1, 1j)
        lam = 0.5
        plan = TrialPlan("kick", OBS, lam, psi, phi, TRIALS, 10)
        _, stats = run_kick(plan)
        p = postselection_probability(MeasurementSetup(OBS, lam, psi, phi))
        se = math.sqrt(p * (1 - p) / TRIALS)
        assert within_se(stats.postselection_rate, p, se)


class TestRunSequential:
    def setup_method(self):
        self.psi = ket(0.8, 0.6j)
        self.phi = ket(0.6, 0.8)
        self.lam = 0.25

    def _plan(self, trials=400_000, seed=4):
        return TrialPlan(
            "sequential",
            OBS,
            self.lam,
            self.psi,
            self.phi,
            trials,
            seed,
            second_observable=Observable(SY),
            second_coupling=self.lam,
        )

    def test_cross_covariance_matches_analytic(self):
        _, stats = run_sequential(self._plan())
        sq = SequentialSetup(OBS, self.lam, Observable(SY), self.lam, self.psi, self.phi)
        target = sequential_cross_covariance(sq)
        assert within_se(stats.cross_covariance, target, stats.cross_covariance_se)

    def test_means_match_analytic(self):
        _, stats = run_sequential(self._plan())
        sq = SequentialSetup(OBS, self.lam, Observable(SY), self.lam, self.psi, self.phi)
        state = sequential_meter_state(sq)
        m1, m2 = state.first_moment(0), state.first_moment(1)
        assert within_se(stats.conditional_means[0], m1, stats.standard_errors[0])
        assert within_se(stats.conditional_means[1], m2, stats.standard_errors[1])

    def test_commuting_pair_covariance_consistent_with_zero(self):
        plan = TrialPlan(
            "sequential",
            Observable(SZ),
            0.3,
            ket(0.8, 0.6),
            self.phi,
            200_000,
            6,
            second_observable=Observable(SZ),
            second_coupling=0.3,
        )
        _, stats = run_sequential(plan)
        sq = SequentialSetup(Observable(SZ), 0.3, Observable(SZ), 0.3, ket(0.8, 0.6), self.phi)
        target = sequential_cross_covariance(sq)
        assert within_se(stats.cross_covariance, target, stats.cross_covariance_se)


def sequential_plan(rng, dim, trials, a, b, lam1=0.1, lam2=0.1, threads=1) -> TrialPlan:
    psi, phi = random_selection_pair(rng, dim)
    return TrialPlan(
        "sequential", a, lam1, psi, phi, trials, int(rng.integers(2**31)),
        second_observable=b, second_coupling=lam2, threads=threads,
    )


class TestSequentialAgainstProjectorStack:
    """The eigenbasis collapse in run_sequential gives the same records, byte
    for byte, as the collapse through a (k2, n, d) stack of projector images.
    Trial counts reach past three tiles, so records cross tile edges."""

    @settings(max_examples=50)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam1=st.floats(1e-3, 20.0),
        lam2=st.floats(1e-3, 20.0),
        trials=st.integers(1, 3 * TILE + 1),
        data=st.data(),
    )
    def test_records_match_on_degenerate_spectra(self, dim, seed, lam1, lam2, trials, data):
        rng = np.random.default_rng(seed)
        a = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels_a"))
        b = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels_b"))
        plan = sequential_plan(rng, dim, trials, a, b, lam1, lam2)
        expected = projector_stack_sequential(plan)
        if not expected["postselected"].any():
            with pytest.raises(NoPostselectedRuns):
                run_sequential(plan)
            return
        records, _ = run_sequential(plan)
        assert records.dtype == expected.dtype
        assert records.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_two_blocks_at_d16(self, threads):
        rng = np.random.default_rng(70_000)
        a, b = random_observable(rng, 16), random_observable(rng, 16)
        plan = sequential_plan(rng, 16, 70_000, a, b, threads=threads)
        records, _ = run_sequential(plan)
        assert records.tobytes() == projector_stack_sequential(plan).tobytes()

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tile_edges_across_two_blocks(self, threads):
        # the second block holds one full tile and a tile of one trial
        rng = np.random.default_rng(4097)
        a, b = degenerate_observable(rng, 5, 3), degenerate_observable(rng, 5, 4)
        plan = sequential_plan(rng, 5, BLOCK_SIZE + TILE + 1, a, b, lam1=0.7, lam2=1.3, threads=threads)
        records, _ = run_sequential(plan)
        assert records.tobytes() == projector_stack_sequential(plan).tobytes()

    def test_block_memory_stays_linear_in_d(self):
        # a (k2, n, d) complex stack alone is 268 MB for one block at d = 16
        rng = np.random.default_rng(65_536)
        a, b = random_observable(rng, 16), random_observable(rng, 16)
        plan = sequential_plan(rng, 16, BLOCK_SIZE, a, b)
        tracemalloc.start()
        try:
            run_sequential(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20


@pytest.mark.parametrize("protocol", ["single", "kick", "threshold"])
def test_one_meter_block_memory_is_tile_sized(protocol):
    # at d = 16 a block of (k, n) temporaries peaked at 13.6 MiB for single and
    # 27.6 MiB for kick; tiles hold them to a few MiB beside the draws and records
    rng = np.random.default_rng(65_536)
    a = random_observable(rng, 16)
    psi, phi = random_selection_pair(rng, 16)
    post = None if protocol == "threshold" else phi
    plan = TrialPlan(protocol, a, 0.1, psi, post, BLOCK_SIZE, 3, threshold_multiple=1.0)
    tracemalloc.start()
    try:
        run_plan(plan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20


class TestRunThreshold:
    def test_mean_exceeds_threshold(self):
        plan = TrialPlan("threshold", OBS, 0.05, PSI, None, 50_000, 13, threshold_multiple=10.0)
        _, stats = run_threshold(plan)
        assert stats.conditional_means[0] > 10.0 * 0.05

    def test_matches_truncated_prediction(self):
        lam = 0.01
        plan = TrialPlan("threshold", OBS, lam, PSI, None, 10**6, 14, threshold_multiple=100.0)
        _, stats = run_threshold(plan)
        target = truncated_mean_prediction(OBS, lam, PSI, 100.0 * lam)
        assert within_se(stats.conditional_means[0], target, stats.standard_errors[0])

    def test_small_threshold_approaches_half_gaussian_mean(self):
        lam = 0.01
        plan = TrialPlan("threshold", OBS, lam, PSI, None, 10**6, 15, threshold_multiple=0.1)
        _, stats = run_threshold(plan)
        assert within_se(stats.conditional_means[0], math.sqrt(2 / math.pi), stats.standard_errors[0])

    def test_empty_selection_raises(self):
        plan = TrialPlan("threshold", OBS, 0.05, PSI, None, 1000, 16, threshold_multiple=1e6)
        with pytest.raises(NoPostselectedRuns):
            run_threshold(plan)


class TestStatisticsQuality:
    def test_standard_error_shrinks_like_root_two(self):
        ratios = []
        for seed in range(4):
            _, small = run_single(TrialPlan("single", OBS, 0.1, PSI, PHI, 100_000, seed))
            _, big = run_single(TrialPlan("single", OBS, 0.1, PSI, PHI, 200_000, seed))
            ratios.append(big.standard_errors[0] / small.standard_errors[0])
        assert np.mean(ratios) == pytest.approx(1 / math.sqrt(2), rel=0.1)

    def test_jackknife_covariance_se_reasonable(self):
        # jackknife SE should be close to the spread of covariance over seeds
        plan = lambda seed: TrialPlan(
            "sequential",
            OBS,
            0.2,
            ket(0.8, 0.6j),
            PHI,
            50_000,
            seed,
            second_observable=Observable(SY),
            second_coupling=0.2,
        )
        covs, ses = [], []
        for seed in range(12):
            _, stats = run_sequential(plan(seed))
            covs.append(stats.cross_covariance)
            ses.append(stats.cross_covariance_se)
        spread = np.std(covs, ddof=1)
        assert np.mean(ses) == pytest.approx(spread, rel=0.6)


class TestPlanAndRecords:
    def test_plan_validation(self):
        with pytest.raises(ValueError):
            TrialPlan("bogus", OBS, 0.1, PSI, PHI, 10, 0)
        with pytest.raises(ValueError):
            TrialPlan("single", OBS, 0.1, PSI, None, 10, 0)
        with pytest.raises(ValueError):
            TrialPlan("threshold", OBS, 0.1, PSI, PHI, 10, 0)
        with pytest.raises(ValueError):
            TrialPlan("sequential", OBS, 0.1, PSI, PHI, 10, 0)
        with pytest.raises(OrthogonalPostselection):
            TrialPlan("single", OBS, 0.1, PSI, ket(0, 1), 10, 0)
        with pytest.raises(ValueError):
            TrialPlan("single", OBS, 0.1, PSI, PHI, 0, 0)

    def test_statistics_validation(self):
        with pytest.raises(ValueError):
            TrialStatistics(10, 11, 1.1, (0.0,), (1.0,))

    def test_importing_the_cli_leaves_the_thread_pool_unloaded(self):
        # concurrent.futures is imported by the first threaded run of two or more
        # blocks; its import stays out of every command's start-up
        proc = run_python("-c", "import sys, weakmeas.cli; print('concurrent.futures' in sys.modules)")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")

    def test_run_plan_dispatch(self):
        plan = TrialPlan("kick", OBS, 0.1, PSI, PHI, 100, 0)
        records, stats = run_plan(plan)
        assert records.size == 100
        assert stats.n_total == 100
