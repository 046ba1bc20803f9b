"""Kraus family oracle, joint = P^w + error decomposition, GDI diagnostics."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SX,
    SZ,
    KrausFamily,
    completeness_residual,
    degenerate_observable,
    dense_error_term_density,
    random_observable,
    random_selection_pair,
    random_state,
    stacked_max_abs_error,
)
from weakmeas import lindblad
from weakmeas.cli import main
from weakmeas.core import Observable, PureState, anomalous_pair, branch_weights, weak_value
from weakmeas.errors import NumericalQualityError
from weakmeas.lindblad import (
    MAX_ERROR_GRID_POINTS,
    GdiReport,
    _max_abs_error,
    decompose_on_grid,
    error_term_density,
    gauss_legendre,
    gdi_diagnostic,
    integration_interval,
    joint_probability_density,
    pw_density,
    second_order_coefficient,
)
from weakmeas.pointer import gaussian_density
from weakmeas.protocols import (
    BRANCH_HALFWIDTH,
    MeasurementSetup,
    conditional_meter_state,
    disturbance_report,
    nonselective_state,
    postselection_probability,
    postselection_shift,
)
from weakmeas.pointer import BASIS_X


def ket(*vals) -> PureState:
    return PureState.normalized(np.array(vals, dtype=complex))


def integrate(obs, lam, fn) -> float:
    lo, hi = integration_interval(obs, lam)
    xs, wts = gauss_legendre(lo, hi)
    return float((wts * fn(xs)).sum())


class TestKrausFamily:
    def test_zero_coupling_is_scaled_identity(self):
        m = KrausFamily(Observable(SX), 0.0).at_many([0.4])[0]
        assert np.allclose(m, math.sqrt(gaussian_density(0.4)) * np.eye(2), atol=1e-14)

    def test_taylor_expansion_in_coupling(self):
        obs = Observable(SX)
        x = 0.8
        devs = []
        for lam in (0.1, 0.05, 0.025):
            m = KrausFamily(obs, lam).at_many([x])[0]
            series = math.sqrt(gaussian_density(x)) * (
                np.eye(2)
                + lam * (x / 2.0) * obs.matrix
                + (lam**2 / 2.0) * (x**2 / 4.0 - 0.5) * (obs.matrix @ obs.matrix)
            )
            devs.append(np.max(np.abs(m - series)) / lam**3)
        assert max(devs) < 2.0 * min(devs)  # residual scales like lambda^3

    def test_hermitian_for_von_neumann_family(self, rng):
        obs = random_observable(rng, 3)
        m = KrausFamily(obs, 0.7).at_many([-1.3])[0]
        assert np.max(np.abs(m - m.conj().T)) < 1e-12

    def test_completeness_by_quadrature(self, rng):
        for lam in (0.1, 1.0, 5.0):
            fam = KrausFamily(random_observable(rng, 2), lam)
            assert completeness_residual(fam) < 1e-8


class TestJointDensity:
    def test_equals_conditional_times_probability(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        lam = 0.45
        setup = MeasurementSetup(obs, lam, psi, phi)
        prob = postselection_probability(setup)
        xs = np.linspace(-6, 6, 101)
        joint = joint_probability_density(obs, lam, psi, phi, xs)
        cm = conditional_meter_state(setup, BASIS_X)
        cond = cm.pointer.density(xs) / cm.probability
        assert np.max(np.abs(joint - cond * prob)) < 1e-12

    def test_zero_coupling(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        xs = np.linspace(-4, 4, 41)
        want = abs(phi.overlap(psi)) ** 2 * gaussian_density(xs)
        assert np.max(np.abs(joint_probability_density(obs, 0.0, psi, phi, xs) - want)) < 1e-13

    def test_nonnegative_on_grid(self, rng):
        psi, phi = random_selection_pair(rng, 3)
        obs = random_observable(rng, 3)
        xs = np.linspace(-12, 12, 1024)
        assert np.min(joint_probability_density(obs, 1.2, psi, phi, xs)) >= 0.0

    def test_integrates_to_postselection_probability(self, rng):
        psi, phi = random_selection_pair(rng, 3)
        obs = random_observable(rng, 3)
        lam = 0.9
        total = integrate(obs, lam, lambda xs: joint_probability_density(obs, lam, psi, phi, xs))
        assert total == pytest.approx(
            postselection_probability(MeasurementSetup(obs, lam, psi, phi)), abs=1e-9
        )


class TestPwDensity:
    def test_integrates_to_unperturbed_probability(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        lam = 0.8
        total = integrate(obs, lam, lambda xs: pw_density(obs, lam, psi, phi, xs))
        assert total == pytest.approx(abs(phi.overlap(psi)) ** 2, abs=1e-9)

    @pytest.mark.parametrize("lam", [0.05, 0.5, 2.0])
    def test_conditional_mean_exactly_weak_value_shift(self, rng, lam):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        first = integrate(obs, lam, lambda xs: xs * pw_density(obs, lam, psi, phi, xs))
        norm = integrate(obs, lam, lambda xs: pw_density(obs, lam, psi, phi, xs))
        a_w = weak_value(obs, psi, phi).value
        assert first / norm == pytest.approx(lam * a_w.real, abs=1e-10)

    def test_eigenstate_pw_equals_joint(self):
        psi, phi = ket(1, 0), ket(0.8, 0.6)
        xs = np.linspace(-5, 5, 41)
        pw = pw_density(Observable(SZ), 0.6, psi, phi, xs)
        joint = joint_probability_density(Observable(SZ), 0.6, psi, phi, xs)
        assert np.max(np.abs(pw - joint)) < 1e-13


class TestErrorTerm:
    @settings(max_examples=60)
    @given(
        dim=st.integers(2, 16),
        lam=st.floats(1e-3, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pointwise_decomposition_identity(self, dim, lam, seed):
        rng = np.random.default_rng(seed)
        psi, phi = random_selection_pair(rng, dim)
        obs = random_observable(rng, dim)
        xs = np.linspace(-lam - 8.0, lam + 8.0, 257)  # every branch centre lam * a_i, |a_i| <= 1
        joint = joint_probability_density(obs, lam, psi, phi, xs)
        pw = pw_density(obs, lam, psi, phi, xs)
        err = error_term_density(obs, lam, psi, phi, xs)
        assert np.max(np.abs(joint - pw - err)) <= 1e-13 * np.max(joint)

    def test_integral_is_postselection_shift(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        lam = 0.7
        total = integrate(obs, lam, lambda xs: error_term_density(obs, lam, psi, phi, xs))
        rep = disturbance_report(MeasurementSetup(obs, lam, psi, phi))
        assert total == pytest.approx(
            rep.postselect_prob_exact - rep.postselect_prob_unperturbed, abs=1e-9
        )

    def test_small_coupling_profile(self):
        pair = anomalous_pair(Observable(SX), 0.1, "re")
        obs = Observable(SX)
        lam = 0.005
        xs = np.linspace(-8, 8, 801)
        err = error_term_density(obs, lam, pair.psi, pair.phi, xs)
        coeff = second_order_coefficient(obs, pair.psi, pair.phi)
        profile = lam**2 * coeff * gaussian_density(xs) * xs**2
        assert np.max(np.abs(err - profile)) < 0.01 * np.max(np.abs(profile))

    def test_eigenstate_error_vanishes(self):
        xs = np.linspace(-5, 5, 101)
        err = error_term_density(Observable(SZ), 0.8, ket(1, 0), ket(0.6, 0.8), xs)
        assert np.max(np.abs(err)) < 1e-14

    def test_error_over_coupling_sq_stabilizes(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        xs = np.linspace(-8, 8, 801)
        peaks = [
            np.max(np.abs(error_term_density(obs, lam, psi, phi, xs))) / lam**2
            for lam in (0.02, 0.01, 0.005)
        ]
        assert max(peaks) < 1.2 * min(peaks)
        assert min(peaks) > 0.0

    @settings(max_examples=100)
    @given(
        dim=st.integers(2, 16),
        lam=st.floats(1e-6, 10.0),
        radius=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_branch_form_matches_dense_oracle(self, dim, lam, radius, seed, data):
        # the dense route rounds its two O(G) terms to about 1e-16 absolute;
        # over 1,500 random setups the largest gap was 1.7e-16
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), radius)
        psi, phi = random_selection_pair(rng, dim)
        xs = error_grid(obs, lam, 257)
        got = error_term_density(obs, lam, psi, phi, xs)
        assert np.max(np.abs(got - dense_error_term_density(obs, lam, psi, phi, xs))) <= 1e-15

    @settings(max_examples=30)
    @given(
        lam=st.floats(1e-6, 10.0),
        radius=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_branch_form_matches_mpmath_at_d2(self, lam, radius, seed):
        # error = -1/2 sum_ij Re(conj(w_i) w_j) (s_i - s_j)^2. Its largest term
        # sets the rounding: the bracket forms Re(conj(w_j) <phi|psi>) - |w_j|^2,
        # which cancels when Re(conj(w_0) w_1) << |w_j|^2. Where it does not,
        # that term is the column's largest |error| (sigma_x case below).
        # Over 200 random setups the deviation was at most 6.2e-15 of it, and
        # at most 7.8e-14 (median 8.7e-16) of the largest |error|.
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, 2, 2, radius)
        psi, phi = random_selection_pair(rng, 2)
        xs = error_grid(obs, lam, 41)
        want, scale = mpmath_error(obs, lam, psi, phi, xs)
        got = error_term_density(obs, lam, psi, phi, xs)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(scale)

    @pytest.mark.parametrize("lam", [0.1, 1e-3, 1e-5])
    def test_branch_form_matches_mpmath_without_cancellation(self, lam):
        # the dense route read 1.3e-13, 6.9e-10 and 1.5e-5 of the largest |error| here
        obs, psi, phi = Observable(SX), ket(1, 0), ket(0.6, 0.8)
        xs = np.linspace(-5.0, 5.0, 41)
        want, _ = mpmath_error(obs, lam, psi, phi, xs)
        got = error_term_density(obs, lam, psi, phi, xs)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_scalar_and_shaped_outcomes(self, rng):
        psi, phi = random_selection_pair(rng, 3)
        obs = random_observable(rng, 3)
        xs = np.linspace(-4.0, 4.0, 12)
        flat = error_term_density(obs, 0.6, psi, phi, xs)
        assert np.array_equal(error_term_density(obs, 0.6, psi, phi, xs.reshape(3, 4)), flat.reshape(3, 4))
        assert error_term_density(obs, 0.6, psi, phi, xs[5]) == flat[5]


def error_grid(obs, lam, points: int) -> np.ndarray:
    """``points`` outcomes across every branch, and 25 within 6 of each centre."""
    mu = lam * obs.eigensystem.eigenvalues
    reach = lam * obs.spectral_radius + 8.0
    return np.concatenate([np.linspace(-reach, reach, points), (mu[:, None] + np.linspace(-6.0, 6.0, 25)).ravel()])


def mpmath_error(obs, lam, psi, phi, xs) -> tuple[np.ndarray, np.ndarray]:
    """joint - pw at 50 digits, with s_i = sqrt(G(x - mu_i)) taken from the
    same float64 mu_i and w_i as the package, and the size of its largest
    pair term, 1/2 sum_ij |w_i| |w_j| (s_i - s_j)^2."""
    mpmath = pytest.importorskip("mpmath")
    w = [mpmath.mpc(complex(v)) for v in branch_weights(obs, psi, phi)]
    mu = [mpmath.mpf(float(m)) for m in lam * obs.eigensystem.eigenvalues]
    pairs = [(i, j) for i in range(len(w)) for j in range(len(w))]
    err, scale = [], []
    with mpmath.workdps(50):
        norm = mpmath.power(2 * mpmath.pi, -0.25)
        for x in xs:
            s = [norm * mpmath.exp(-((mpmath.mpf(float(x)) - m) ** 2) / 4) for m in mu]
            err.append(float(-sum(mpmath.re(mpmath.conj(w[i]) * w[j]) * (s[i] - s[j]) ** 2 for i, j in pairs) / 2))
            scale.append(float(sum(abs(w[i]) * abs(w[j]) * (s[i] - s[j]) ** 2 for i, j in pairs) / 2))
    return np.array(err), np.array(scale)


def first_moment_quadrature(obs, lam) -> np.ndarray:
    """Int x M_x^dag M_x dx over the Kraus family, by Gauss-Legendre."""
    lo, hi = integration_interval(obs, lam)
    xs, wts = gauss_legendre(lo, hi)
    m = KrausFamily(obs, lam).at_many(xs)
    return np.einsum("n,nji,njk->ik", wts * xs, np.conj(m), m)


class TestFirstMomentOperator:
    """Int x M_x^dag M_x dx = lam * A: the unconditional meter mean is
    lam <A> for every state."""

    @pytest.mark.parametrize("lam", [0.1, 1.0, 5.0])
    def test_equals_scaled_observable(self, rng, lam):
        obs = random_observable(rng, 3)
        assert np.max(np.abs(first_moment_quadrature(obs, lam) - lam * obs.matrix)) < 1e-8

    def test_zero_coupling_vanishes(self, rng):
        obs = random_observable(rng, 2)
        assert np.max(np.abs(first_moment_quadrature(obs, 0.0))) < 1e-12

    def test_quadrature_companion(self, rng):
        obs = random_observable(rng, 2)
        assert np.max(np.abs(first_moment_quadrature(obs, 0.8) - 0.8 * obs.matrix)) < 1e-8


def max_error_weak_limit(obs, psi, phi) -> float:
    """lim max |joint - pw| / lam^2 on the max-error grid as lam -> 0: with
    d_i = a_i - a_r and y = x - lam a_r, joint - pw -> -lam^2 G(y) y^2 / 4
    [sum_i d_i^2 Re(conj(w_i) <phi|psi>) - |sum_i w_i d_i|^2]."""
    a, w = obs.eigensystem.eigenvalues, branch_weights(obs, psi, phi)
    y = np.linspace(-BRANCH_HALFWIDTH, BRANCH_HALFWIDTH, MAX_ERROR_GRID_POINTS)
    d = a[None, :] - a[:, None]
    bracket = (d * d) @ (np.conj(w) * w.sum()).real - np.abs(d @ w) ** 2
    return float(np.max(gaussian_density(y) * y * y / 4.0 * np.abs(bracket)[:, None]))


class TestGdiDiagnostic:
    @pytest.mark.parametrize(
        "matrix, psi, phi",
        [(SX, [1.0, 0.0], [0.6, 0.8]), (np.diag([1.0, 2.0, 3.0]), [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])],
    )
    def test_max_error_has_a_weak_limit(self, matrix, psi, phi):
        # the grid difference joint - pw cancels to ~1e-17, which read 8.3e283
        # at lam = 1e-150; the grid follows the centres lam a_r, so its maximum
        # itself moves by O(lam): 5e-6 relative at lam = 1e-3 for sigma_x
        obs = Observable(np.asarray(matrix, dtype=complex))
        psi, phi = PureState.normalized(psi), PureState.normalized(phi)
        limit = max_error_weak_limit(obs, psi, phi)
        assert limit > 1e-3
        for lam in np.logspace(-3.0, -150.0, 40):
            got = gdi_diagnostic(obs, lam, psi, phi).max_error_over_coupling_sq
            assert got == pytest.approx(limit, rel=1e-6 + 1e-2 * lam)

    @pytest.mark.parametrize(
        "matrix, lam",
        [(SX, 0.3), (np.diag([100.0, 3.0, -100.0]), 5.0), (None, 0.3)],
    )
    def test_max_error_matches_the_grid_difference(self, rng, matrix, lam):
        obs = random_observable(rng, 16) if matrix is None else Observable(np.asarray(matrix, dtype=complex))
        psi, phi = random_selection_pair(rng, obs.matrix.shape[0])
        setup = MeasurementSetup(obs, lam, psi, phi)
        offsets = np.linspace(-BRANCH_HALFWIDTH, BRANCH_HALFWIDTH, MAX_ERROR_GRID_POINTS)
        xs = (lam * obs.eigensystem.eigenvalues[:, None] + offsets).ravel()
        args = (obs, lam, psi, phi, xs)
        grid = np.max(np.abs(joint_probability_density(*args) - pw_density(*args)))
        assert _max_abs_error(setup) == pytest.approx(grid, rel=1e-12)

    @settings(max_examples=100)
    @given(
        dim=st.integers(2, 16),
        lam=st.floats(1e-3, 10.0),
        scale=st.floats(1e-3, 1e3),
        points=st.sampled_from([MAX_ERROR_GRID_POINTS, 2 * MAX_ERROR_GRID_POINTS - 1, 17]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_max_error_equals_the_stacked_evaluation(self, dim, lam, scale, points, seed, data):
        # gdi.json keeps its bytes: batching the windows leaves every e_i,
        # matmul and maximum as the one (k, points, k) stack computed them
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        psi, phi = random_selection_pair(rng, dim)
        setup = MeasurementSetup(obs, lam, psi, phi)
        assert _max_abs_error(setup, points) == stacked_max_abs_error(setup, points)

    def test_eigenstate_all_zero(self):
        rep = gdi_diagnostic(Observable(SZ), 0.3, ket(1, 0), ket(0.6, 0.8))
        assert rep.max_error_over_coupling_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.integrated_error_over_coupling_sq == pytest.approx(0.0, abs=1e-12)
        assert rep.mean_gap == pytest.approx(0.0, abs=1e-10)

    def test_anomalous_setup_means(self):
        pair = anomalous_pair(Observable(SX), 0.1, "re")
        lam = 0.05
        rep = gdi_diagnostic(Observable(SX), lam, pair.psi, pair.phi)
        assert rep.mean_pw == pytest.approx(lam * pair.weak_value.real, abs=1e-10)
        # the full-density mean differs by a reported higher-order amount;
        # empirically it shrinks ~ lambda^3 (the conditional mean is odd in
        # lambda while the pw mean is exactly linear)
        rep_half = gdi_diagnostic(Observable(SX), lam / 2.0, pair.psi, pair.phi)
        assert abs(rep.mean_gap) > 1e-3
        assert abs(rep.mean_gap / rep_half.mean_gap) == pytest.approx(8.0, rel=0.3)

    def test_integrated_error_matches_expansion_coefficient(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        coeff = second_order_coefficient(obs, psi, phi)
        rep = gdi_diagnostic(obs, 0.005, psi, phi)
        assert rep.integrated_error_over_coupling_sq == pytest.approx(coeff, abs=2e-5 + 0.01 * abs(coeff))


# Branches at lam * (100, 3, -100) = (500, 15, -500), far wider apart than
# the node spacing of one 400-node rule over the whole span. With
# w = (0.36, -0.48, 0) the pair sums have no cross terms left: P = 0.36,
# mean_full = (0.1296 * 500 + 0.2304 * 15) / 0.36 = 189.6,
# lam Re A_w = 5 * (36 - 1.44) / (-0.12) = -1440 and
# (P - |<phi|psi>|^2) / lam^2 = (0.36 - 0.0144) / 25 = 0.013824.
SEPARATED = {
    "observable": [[100, 0], [0, 0], [0, 0], [0, 0], [3, 0], [0, 0], [0, 0], [0, 0], [-100, 0]],
    "psi": [[0.6, 0], [0.6, 0], [math.sqrt(0.28), 0]],
    "phi": [[0.6, 0], [-0.8, 0], [0, 0]],
    "lambda": 5.0,
}


def composite_rule(centres, half: float = 12.0, panel: float = 2.0, nodes: int = 20):
    """Gauss-Legendre nodes and weights, ``nodes`` per panel of width at most
    ``panel``, over the union of the windows [c - half, c + half]."""
    merged: list[list[float]] = []
    for lo, hi in sorted((c - half, c + half) for c in centres):
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    base_x, base_w = np.polynomial.legendre.leggauss(nodes)
    xs, ws = [], []
    for lo, hi in merged:
        edges = np.linspace(lo, hi, math.ceil((hi - lo) / panel) + 1)
        a, b = edges[:-1, None], edges[1:, None]
        xs.append((0.5 * (b - a) * base_x + 0.5 * (b + a)).ravel())
        ws.append((0.5 * (b - a) * base_w).ravel())
    return np.concatenate(xs), np.concatenate(ws)


class TestGdiClosedForms:
    def assert_separated_report(self, rep):
        assert rep.mean_pw == pytest.approx(-1440.0, rel=1e-9)
        assert rep.mean_full == pytest.approx(189.6, rel=1e-9)
        assert rep.integrated_error_over_coupling_sq == pytest.approx(0.013824, rel=1e-12)

    def test_separated_branches_library(self):
        obs = Observable(np.diag([100.0, 3.0, -100.0]).astype(complex))
        psi = ket(0.6, 0.6, math.sqrt(0.28))
        phi = ket(0.6, -0.8, 0.0)
        self.assert_separated_report(gdi_diagnostic(obs, 5.0, psi, phi))

    def test_separated_branches_cli(self, tmp_path, capsys):
        assert main(["lindblad", "--config", json.dumps(SEPARATED), "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "gdi.json").read_text())
        self.assert_separated_report(GdiReport(**{k: v for k, v in doc.items() if k != "metadata"}))
        assert "mean_pw=-1440.0" in capsys.readouterr().out

    @settings(max_examples=200)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 20.0),
        scale=st.floats(0.1, 100.0),
        data=st.data(),
    )
    def test_report_against_oracles(self, dim, seed, lam, scale, data):
        rng = np.random.default_rng(seed)
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        psi, phi = random_selection_pair(rng, dim)
        setup = MeasurementSetup(obs, lam, psi, phi)
        rep = gdi_diagnostic(obs, lam, psi, phi)
        reach = lam * obs.spectral_radius
        unperturbed = abs(phi.overlap(psi)) ** 2

        xs, wts = composite_rule(lam * obs.eigensystem.eigenvalues)
        joint = wts * joint_probability_density(obs, lam, psi, phi, xs)
        mean = float((xs * joint).sum() / joint.sum())
        assert abs(rep.mean_full - mean) <= 1e-10 * (abs(mean) + reach)

        prob = postselection_probability(setup)
        assert lam**2 * rep.integrated_error_over_coupling_sq + unperturbed == pytest.approx(
            prob, rel=1e-12
        )
        # P - |<phi|psi>|^2 = <phi|(rho_ns - |psi><psi|)|phi>
        disturbed = nonselective_state(obs, lam, psi).expectation_in(phi)
        assert abs(postselection_shift(setup) - (disturbed - unperturbed)) <= 1e-12 * max(
            disturbed, unperturbed
        )

        # halving the max grid's spacing; joint - pw cancels to about 1e-16
        # of the densities, which is all an identically zero error leaves
        fine = _max_abs_error(setup, 2 * MAX_ERROR_GRID_POINTS - 1) / lam**2
        delta = abs(rep.max_error_over_coupling_sq - fine)
        assert delta <= 5e-4 * fine + 1e-14 / lam**2

    @settings(max_examples=100)
    @given(
        dim=st.integers(2, 16),
        seed=st.integers(0, 2**32 - 1),
        lam=st.floats(1e-3, 20.0),
        data=st.data(),
    )
    def test_report_matches_uniform_quadrature(self, dim, seed, lam, data):
        # one 400-node rule over |x| <= 10 + lam * radius resolves the
        # branches while lam * radius <= 20
        rng = np.random.default_rng(seed)
        scale = data.draw(st.floats(0.1, 20.0 / lam), label="scale")
        obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"), scale)
        psi, phi = random_selection_pair(rng, dim)
        rep = gdi_diagnostic(obs, lam, psi, phi)

        lo, hi = integration_interval(obs, lam)
        xs, wts = gauss_legendre(lo, hi)
        joint = wts * joint_probability_density(obs, lam, psi, phi, xs)
        pw = wts * pw_density(obs, lam, psi, phi, xs)
        err = float((wts * error_term_density(obs, lam, psi, phi, xs)).sum())
        for got, want in (
            (rep.mean_full, (xs * joint).sum() / joint.sum()),
            (rep.mean_pw, (xs * pw).sum() / pw.sum()),
        ):
            # the rule's x-moments round on the scale of its half-width
            assert abs(got - want) <= 1e-12 * (abs(want) + hi)
        assert abs(lam**2 * rep.integrated_error_over_coupling_sq - err) <= 1e-13


class TestDecompositionSamples:
    def test_grid_dump_consistent(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        obs = random_observable(rng, 2)
        xs = np.linspace(-5, 5, 21)
        x, joint, pw, err = decompose_on_grid(obs, 0.4, psi, phi, xs)
        assert np.array_equal(x, xs)
        assert joint.shape == pw.shape == err.shape == (21,)
        assert np.all(joint >= 0.0)
        assert np.max(np.abs(joint - (pw + err))) <= 1e-12

    def test_sample_invariant_enforced(self, monkeypatch):
        args = (Observable(SX), 0.4, ket(1, 0), ket(0.6, 0.8), np.linspace(-3, 3, 7))
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "error_term_density", lambda *a: error_term_density(*a) + 1e-9)
            with pytest.raises(NumericalQualityError, match="beyond 1e-12"):
                decompose_on_grid(*args)
        with monkeypatch.context() as patch:
            patch.setattr(
                lindblad, "joint_probability_density", lambda *a: -joint_probability_density(*a)
            )
            with pytest.raises(NumericalQualityError, match="nonnegative"):
                decompose_on_grid(*args)

    def test_sample_invariant_refuses_nan(self, monkeypatch):
        # NaN compares false both ways: a refusal written as "any x < 0" lets it through
        args = (Observable(SX), 0.4, ket(1, 0), ket(0.6, 0.8), np.linspace(-3, 3, 7))
        with_nan = lambda fn: lambda *a: np.where(np.arange(7) == 3, np.nan, fn(*a))
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "error_term_density", with_nan(error_term_density))
            with pytest.raises(NumericalQualityError, match="beyond 1e-12"):
                decompose_on_grid(*args)
        with monkeypatch.context() as patch:
            patch.setattr(lindblad, "joint_probability_density", with_nan(joint_probability_density))
            with pytest.raises(NumericalQualityError, match="nonnegative"):
                decompose_on_grid(*args)


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn()`` runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """The dense Kraus route held (n, d, d) operators: 38.4 MiB for
    decompose_on_grid on 8,192 points at d = 16, and 6.3 MiB for the GDI
    maximum's (k, 1024, k) stack. The branch form holds a bounded chunk."""

    @pytest.fixture
    def d16(self):
        rng = np.random.default_rng(7)
        obs = random_observable(rng, 16)
        psi, phi = random_selection_pair(rng, 16)
        return obs, 0.3, psi, phi

    def test_decompose_on_grid(self, d16):
        # 3.1 MiB, nearly all of it the (n, k) Gaussians of joint and pw
        xs = np.linspace(*integration_interval(d16[0], d16[1]), 8192)
        assert traced_peak(lambda: decompose_on_grid(*d16, xs)) <= 8 * 2**20

    def test_gdi_diagnostic(self, d16):
        # 0.6 MiB
        assert traced_peak(lambda: gdi_diagnostic(*d16)) <= 2 * 2**20

    def test_cli_on_65536_points(self, d16, tmp_path):
        # 25.6 MiB; the dense route would ask for about 4.3 GB here
        obs, lam, psi, phi = d16
        pairs = lambda a: [[float(z.real), float(z.imag)] for z in np.ravel(a)]
        doc = {
            "observable": pairs(obs.matrix),
            "psi": pairs(psi.amplitudes),
            "phi": pairs(phi.amplitudes),
            "lambda": lam,
            "grid": {"points": 65536},
        }
        argv = ["lindblad", "--config", json.dumps(doc), "--out", str(tmp_path)]
        codes = []
        assert traced_peak(lambda: codes.append(main(argv))) <= 40 * 2**20
        assert codes == [0]
        assert (tmp_path / "lindblad_decomposition.csv").read_text().count("\n") > 65536
