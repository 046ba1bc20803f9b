"""Acceptance gate: every shipped claim, one test per criterion.

Each test prints one `[ACCEPTANCE] criterion-NN ...: PASS/FAIL` line (run
pytest with -s to see them all) and then asserts. Tolerances are pinned here,
not configurable.

Weak-limit extrapolations fit the scaled diagnostic against lambda^2 (the
fitted quantities are even functions of lambda; see protocols module) over
the coupling grid {0.2, 0.1, 0.05, 0.025}.
"""

import json
import math
import time

import numpy as np
import pytest

from conftest import SX, SY, SZ, random_observable, random_selection_pair
from weakmeas.cli import main
from weakmeas.core import (
    Observable,
    PureState,
    anomalous_pair,
    expectation,
    matrix_weak_value,
    weak_value,
)
from weakmeas.lindblad import (
    error_term_density,
    gauss_legendre,
    integration_interval,
    joint_probability_density,
    pw_density,
    second_order_coefficient,
)
from weakmeas.montecarlo import (
    TrialPlan,
    run_kick,
    run_sequential,
    run_single,
    run_threshold,
    truncated_mean_prediction,
)
from weakmeas.pointer import (
    BASIS_X,
    BASIS_XPRIME,
    gaussian_density,
)
from weakmeas.protocols import (
    MeasurementSetup,
    SequentialSetup,
    conditional_meter_mean,
    conditional_meter_state,
    disturbance_report,
    extrapolate_to_zero_coupling,
    kick_pointer_state,
    postselection_probability,
    sequential_cross_covariance,
    sequential_meter_state,
)
from weakmeas.collective import (
    CollectiveSetup,
    collective_conditional_density,
    collective_conditional_mean,
    collective_postselection_ratio,
)

LAMBDA_GRID = (0.2, 0.1, 0.05, 0.025)
SEED = 20260810


def ket(*vals) -> PureState:
    return PureState.normalized(np.array(vals, dtype=complex))


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


def random_setups(count: int, dims=(2, 3)):
    rng = np.random.default_rng(SEED)
    for i in range(count):
        dim = dims[i % len(dims)]
        obs = random_observable(rng, dim)
        psi, phi = random_selection_pair(rng, dim)
        yield obs, psi, phi


def extrapolated_mean(obs, psi, phi, basis, grid=LAMBDA_GRID) -> float:
    scaled = [
        conditional_meter_mean(MeasurementSetup(obs, lam, psi, phi), basis) / lam
        for lam in grid
    ]
    return extrapolate_to_zero_coupling(grid, scaled)[0]


def test_criterion_01_weak_value_shift():
    worst = 0.0
    for obs, psi, phi in random_setups(20):
        target = weak_value(obs, psi, phi).value.real
        got = extrapolated_mean(obs, psi, phi, BASIS_X)
        tol = max(1e-3 * abs(target), 1e-4)
        worst = max(worst, abs(got - target) / tol)
    verdict(
        "criterion-01 weak-value shift",
        worst <= 1.0,
        f"worst |extrapolation - Re A_w| = {worst:.3f} of tolerance (20 setups)",
    )


def test_criterion_02_anomalous_value_100():
    pair = anomalous_pair(Observable(SX), 0.01, "re")
    closed_form = math.sqrt(1 - 0.01**2) / 0.01
    ok_value = abs(pair.weak_value.real - 99.995) <= 1e-6
    ok_closed = abs(pair.weak_value.real - closed_form) <= 1e-12
    # couplings scaled into the weak regime lambda * |A_w| ~ grid
    grid = tuple(lam / pair.weak_value.real for lam in LAMBDA_GRID)
    got = extrapolated_mean(Observable(SX), pair.psi, pair.phi, BASIS_X, grid)
    rel = abs(got - pair.weak_value.real) / pair.weak_value.real
    verdict(
        "criterion-02 anomalous value 100",
        ok_value and ok_closed and rel <= 0.005,
        f"Re A_w = {pair.weak_value.real:.9f}, extrapolated rel dev = {rel:.2e}",
    )


def test_criterion_03_postselection_probability_expansion():
    # pinned instance first
    setup = MeasurementSetup(Observable(SX), 0.1, ket(1, 0), ket(1, 0))
    prob = postselection_probability(setup)
    oracle = 0.5 + 0.5 * math.exp(-0.005)
    ok_instance = abs(prob - oracle) <= 1e-7 and abs(prob - 0.9975062395963412) <= 1e-7

    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    checked = 0
    while checked < 20:
        dim = 2 + checked % 2
        obs = random_observable(rng, dim)
        psi, phi = random_selection_pair(rng, dim)
        coeff = second_order_coefficient(obs, psi, phi)
        if abs(coeff) < 0.02:  # relative comparison needs a nonvanishing target
            continue
        checked += 1
        lam = 0.005
        p0 = abs(phi.overlap(psi)) ** 2
        p = postselection_probability(MeasurementSetup(obs, lam, psi, phi))
        worst = max(worst, abs((p - p0) / lam**2 - coeff) / abs(coeff))
    verdict(
        "criterion-03 post-selection probability expansion",
        ok_instance and worst <= 0.01,
        f"P_0.1 = {prob:.10f}, worst rel dev at lambda=0.005: {worst:.2e}",
    )


def test_criterion_04_kick_xprime_duality():
    worst_density = 0.0
    worst_prob = 0.0
    rng = np.random.default_rng(SEED + 4)
    xs = np.linspace(-9, 9, 401)
    for _ in range(5):
        obs = random_observable(rng, 2)
        psi, phi = random_selection_pair(rng, 2)
        for lam in (0.1, 0.5, 2.0):
            setup = MeasurementSetup(obs, lam, psi, phi)
            cm = conditional_meter_state(setup, BASIS_XPRIME)
            vn = cm.pointer.density(xs) / cm.probability
            kick_state = kick_pointer_state(setup)
            kick_prob = kick_state.squared_norm()
            kick = kick_state.density(xs) / kick_prob
            worst_density = max(worst_density, float(np.max(np.abs(vn - kick))))
            worst_prob = max(worst_prob, abs(kick_prob - postselection_probability(setup)))
    verdict(
        "criterion-04 kick/xprime duality",
        worst_density <= 1e-12 and worst_prob <= 1e-12,
        f"max density gap {worst_density:.2e}, max prob gap {worst_prob:.2e}",
    )


def test_criterion_05_imaginary_part_shift():
    worst = 0.0
    for obs, psi, phi in random_setups(20):
        target = weak_value(obs, psi, phi).value.imag
        got = extrapolated_mean(obs, psi, phi, BASIS_XPRIME)
        tol = max(1e-3 * abs(target), 1e-4)
        worst = max(worst, abs(got - target) / tol)
    verdict(
        "criterion-05 imaginary-part shift",
        worst <= 1.0,
        f"worst |extrapolation - Im A_w| = {worst:.3f} of tolerance (20 setups)",
    )


def _sequential_coefficient(first, second, psi, phi) -> float:
    coeffs = [
        sequential_cross_covariance(SequentialSetup(first, lam, second, lam, psi, phi))
        / (lam * lam / 2.0)
        for lam in LAMBDA_GRID
    ]
    return extrapolate_to_zero_coupling(LAMBDA_GRID, coeffs)[0]


def test_criterion_06_sequential_order_dependence():
    # random-setup coefficient accuracy (2%)
    rng = np.random.default_rng(SEED + 6)
    worst = 0.0
    checked = 0
    while checked < 10:
        obs_a = random_observable(rng, 2)
        obs_b = random_observable(rng, 2)
        psi, phi = random_selection_pair(rng, 2)
        ba = matrix_weak_value(obs_b.matrix @ obs_a.matrix, psi, phi)
        target = (
            ba
            - weak_value(obs_a, psi, phi).value * weak_value(obs_b, psi, phi).value
        ).real
        if abs(target) < 0.05:
            continue
        checked += 1
        got = _sequential_coefficient(obs_a, obs_b, psi, phi)
        worst = max(worst, abs(got - target) / abs(target))

    # pinned Pauli instance: gap between the two interaction orders
    psi = ket(1, 1)
    phi = PureState(np.array([1, np.exp(1j * math.pi / 4)]) / math.sqrt(2))
    coeff_ab = _sequential_coefficient(Observable(SX), Observable(SY), psi, phi)
    coeff_ba = _sequential_coefficient(Observable(SY), Observable(SX), psi, phi)
    gap = coeff_ab - coeff_ba
    gap_target = 2 * math.tan(math.pi / 8)
    ok_gap = abs(gap - gap_target) <= 0.01 * gap_target

    # commuting case
    rng2 = np.random.default_rng(SEED + 60)
    psi_c, phi_c = random_selection_pair(rng2, 2)
    sq = SequentialSetup(Observable(SZ), 0.1, Observable(SZ), 0.1, psi_c, phi_c)
    from weakmeas.protocols import sequential_order_gap

    ok_commuting = abs(sequential_order_gap(sq)) <= 1e-10
    verdict(
        "criterion-06 sequential order dependence",
        worst <= 0.02 and ok_gap and ok_commuting,
        f"worst coeff rel dev {worst:.2e}, order gap {gap:.6f} vs {gap_target:.6f}",
    )


def test_criterion_07_disturbance_identity():
    rng = np.random.default_rng(SEED + 7)
    worst_residual = 0.0
    min_purity_gap = math.inf
    for trial in range(100):
        dim = 2 + trial % 3
        obs = random_observable(rng, dim)
        psi, phi = random_selection_pair(rng, dim)
        lam = float(rng.uniform(0.05, 1.5))
        rep = disturbance_report(MeasurementSetup(obs, lam, psi, phi))
        worst_residual = max(worst_residual, rep.identity_residual)
        # random states are never exact eigenstates; purity must drop
        min_purity_gap = min(min_purity_gap, 1.0 - rep.nonselective_purity)
    verdict(
        "criterion-07 disturbance identity",
        worst_residual <= 1e-12 and min_purity_gap > 0.0,
        f"max residual {worst_residual:.2e}, min purity drop {min_purity_gap:.2e}",
    )


def test_criterion_08_collective_asymptotics():
    start = time.monotonic()
    obs = Observable(SX)
    psi = ket(1, 0)
    phi_real = ket(0.3, math.sqrt(0.91))
    phi_complex = PureState(np.array([0.3, 1j * math.sqrt(0.91)]))
    re_w = weak_value(obs, psi, phi_real).value.real
    im_w = weak_value(obs, psi, phi_complex).value.imag
    ratio_limit = math.exp(im_w**2 / 2.0)
    ns = np.array([25, 50, 100, 200, 400])
    xs = np.linspace(re_w - 8, re_w + 8, 512)
    target_density = gaussian_density(xs - re_w)
    sup_gap, mean_gap, ratio_gap = [], [], []
    for n in ns:
        cs_r = CollectiveSetup(obs, 1.0, psi, phi_real, int(n))
        cs_c = CollectiveSetup(obs, 1.0, psi, phi_complex, int(n))
        dens = collective_conditional_density(cs_r, BASIS_X, xs)
        sup_gap.append(float(np.max(np.abs(dens - target_density))))
        mean_gap.append(abs(collective_conditional_mean(cs_c, BASIS_XPRIME) - im_w))
        # log-domain discrepancy, matching the module's log-scale arithmetic
        ratio_gap.append(abs(math.log(collective_postselection_ratio(cs_c) / ratio_limit)))
    slopes = {
        name: float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
        for name, vals in (
            ("x-density sup-norm", sup_gap),
            ("xprime mean", mean_gap),
            ("ratio", ratio_gap),
        )
    }
    elapsed = time.monotonic() - start
    ok = all(abs(s + 1.0) <= 0.2 for s in slopes.values()) and elapsed < 300.0
    verdict(
        "criterion-08 collective asymptotics",
        ok,
        "slopes "
        + ", ".join(f"{k}: {v:+.3f}" for k, v in slopes.items())
        + f"; elapsed {elapsed:.1f}s",
    )


def test_criterion_09_lindblad_decomposition():
    rng = np.random.default_rng(SEED + 9)
    worst_pointwise = 0.0
    worst_integral = 0.0
    worst_mean = 0.0
    for dim in (2, 3):
        for lam in (0.01, 0.1, 1.0):
            obs = random_observable(rng, dim)
            psi, phi = random_selection_pair(rng, dim)
            xs = np.linspace(-9, 9, 513)
            joint = joint_probability_density(obs, lam, psi, phi, xs)
            pw = pw_density(obs, lam, psi, phi, xs)
            err = error_term_density(obs, lam, psi, phi, xs)
            worst_pointwise = max(worst_pointwise, float(np.max(np.abs(joint - pw - err))))

            lo, hi = integration_interval(obs, lam)
            nodes, wts = gauss_legendre(lo, hi)
            err_total = float((wts * error_term_density(obs, lam, psi, phi, nodes)).sum())
            rep = disturbance_report(MeasurementSetup(obs, lam, psi, phi))
            worst_integral = max(
                worst_integral,
                abs(err_total - (rep.postselect_prob_exact - rep.postselect_prob_unperturbed)),
            )

            pw_nodes = pw_density(obs, lam, psi, phi, nodes)
            mean_pw = float((wts * nodes * pw_nodes).sum() / (wts * pw_nodes).sum())
            target = lam * weak_value(obs, psi, phi).value.real
            worst_mean = max(worst_mean, abs(mean_pw - target))

    # error-term profile at small coupling, anomalous instance
    pair = anomalous_pair(Observable(SX), 0.1, "re")
    lam = 0.005
    xs = np.linspace(-8, 8, 801)
    err = error_term_density(Observable(SX), lam, pair.psi, pair.phi, xs)
    coeff = second_order_coefficient(Observable(SX), pair.psi, pair.phi)
    profile = lam**2 * coeff * gaussian_density(xs) * xs**2
    profile_gap = float(np.max(np.abs(err - profile)) / np.max(np.abs(profile)))

    ok = (
        worst_pointwise <= 1e-12
        and worst_integral <= 1e-9
        and worst_mean <= 1e-10
        and profile_gap <= 0.01
    )
    verdict(
        "criterion-09 lindblad decomposition",
        ok,
        f"pointwise {worst_pointwise:.2e}, integral {worst_integral:.2e}, "
        f"pw-mean {worst_mean:.2e}, profile {profile_gap:.2%}",
    )


def _seed_success_rate(estimates) -> float:
    good = sum(1 for ok in estimates if ok)
    return good / len(estimates)


def test_criterion_10_monte_carlo_fidelity():
    start = time.monotonic()
    trials = 10**6
    seeds = range(20)
    results: dict[str, list[bool]] = {}

    # single: sigma_x, psi=(1,0), phi=(0.6,0.8), lambda=0.1
    psi, phi = ket(1, 0), ket(0.6, 0.8)
    setup = MeasurementSetup(Observable(SX), 0.1, psi, phi)
    mean_target = conditional_meter_mean(setup, BASIS_X)
    rate_target = postselection_probability(setup)
    singles_mean, singles_rate = [], []
    for seed in seeds:
        _, stats = run_single(TrialPlan("single", Observable(SX), 0.1, psi, phi, trials, seed))
        singles_mean.append(
            abs(stats.conditional_means[0] - mean_target) <= 4 * stats.standard_errors[0]
        )
        rate_se = math.sqrt(rate_target * (1 - rate_target) / trials)
        singles_rate.append(abs(stats.postselection_rate - rate_target) <= 4 * rate_se)
    results["single mean"] = singles_mean
    results["single rate"] = singles_rate

    # kick: sigma_x, psi=(1,0), phi=(1,i)/sqrt(2), lambda=0.15
    phi_k = ket(1, 1j)
    setup_k = MeasurementSetup(Observable(SX), 0.15, psi, phi_k)
    kick_target = kick_pointer_state(setup_k).first_moment()
    kick_rate = postselection_probability(setup_k)
    kick_mean_ok, kick_rate_ok = [], []
    for seed in seeds:
        _, stats = run_kick(TrialPlan("kick", Observable(SX), 0.15, psi, phi_k, trials, seed))
        kick_mean_ok.append(
            abs(stats.conditional_means[0] - kick_target) <= 4 * stats.standard_errors[0]
        )
        rate_se = math.sqrt(kick_rate * (1 - kick_rate) / trials)
        kick_rate_ok.append(abs(stats.postselection_rate - kick_rate) <= 4 * rate_se)
    results["kick mean"] = kick_mean_ok
    results["kick rate"] = kick_rate_ok

    # sequential: sigma_x then sigma_y
    psi_s, phi_s = ket(0.8, 0.6j), ket(0.6, 0.8)
    sq = SequentialSetup(Observable(SX), 0.2, Observable(SY), 0.2, psi_s, phi_s)
    cov_target = sequential_cross_covariance(sq)
    seq_state = sequential_meter_state(sq)
    m1_target, m2_target = seq_state.first_moment(0), seq_state.first_moment(1)
    seq_cov_ok, seq_mean_ok = [], []
    for seed in seeds:
        _, stats = run_sequential(
            TrialPlan(
                "sequential",
                Observable(SX),
                0.2,
                psi_s,
                phi_s,
                trials,
                seed,
                second_observable=Observable(SY),
                second_coupling=0.2,
            )
        )
        seq_cov_ok.append(
            abs(stats.cross_covariance - cov_target) <= 4 * stats.cross_covariance_se
        )
        seq_mean_ok.append(
            abs(stats.conditional_means[0] - m1_target) <= 4 * stats.standard_errors[0]
            and abs(stats.conditional_means[1] - m2_target) <= 4 * stats.standard_errors[1]
        )
    results["sequential covariance"] = seq_cov_ok
    results["sequential means"] = seq_mean_ok

    # threshold at lambda=0.01: against the exact truncated prediction at
    # x >= 100*lambda, and against sqrt(2/pi) when the cut is ~0 (the
    # truncated-Gaussian value the cherry-picking argument quotes)
    lam = 0.01
    pred_100 = truncated_mean_prediction(Observable(SX), lam, psi, 100.0 * lam)
    half_gauss = math.sqrt(2.0 / math.pi)
    thr_pred_ok, thr_half_ok = [], []
    for seed in seeds:
        _, stats = run_threshold(
            TrialPlan("threshold", Observable(SX), lam, psi, None, trials, seed,
                      threshold_multiple=100.0)
        )
        thr_pred_ok.append(
            abs(stats.conditional_means[0] - pred_100) <= 4 * stats.standard_errors[0]
        )
        _, stats0 = run_threshold(
            TrialPlan("threshold", Observable(SX), lam, psi, None, trials, seed,
                      threshold_multiple=0.1)
        )
        thr_half_ok.append(
            abs(stats0.conditional_means[0] - half_gauss) <= 4 * stats0.standard_errors[0]
        )
    results["threshold vs truncated prediction"] = thr_pred_ok
    results["threshold vs sqrt(2/pi)"] = thr_half_ok

    elapsed = time.monotonic() - start
    rates = {k: _seed_success_rate(v) for k, v in results.items()}
    ok = all(r >= 0.95 for r in rates.values()) and elapsed < 600.0
    verdict(
        "criterion-10 monte carlo fidelity",
        ok,
        ", ".join(f"{k}: {r:.0%}" for k, r in rates.items()) + f"; elapsed {elapsed:.0f}s",
    )


def test_criterion_11_cli_determinism(tmp_path):
    sim_cfg = json.dumps(
        {
            "protocol": "single",
            "observable": [[0, 0], [1, 0], [1, 0], [0, 0]],
            "psi": [[1, 0], [0, 0]],
            "phi": [[0.6, 0], [0.8, 0]],
            "trials": 200_000,
        }
    )
    outputs = {}
    for threads in ("1", "8"):
        for attempt in ("a", "b"):
            out = tmp_path / f"sim-{threads}-{attempt}"
            code = main(
                ["simulate", "--config", sim_cfg, "--seed", "42", "--threads", threads,
                 "--out", str(out)]
            )
            assert code == 0
            outputs[(threads, attempt)] = (
                (out / "records.csv").read_bytes(),
                (out / "stats.json").read_bytes(),
            )
    sim_ok = len({v for v in outputs.values()}) == 1

    dens_cfg = json.dumps(
        {
            "observable": [[0, 0], [1, 0], [1, 0], [0, 0]],
            "psi": [[1, 0], [0, 0]],
            "phi": [[0.6, 0], [0.8, 0]],
        }
    )
    dens_files = []
    for attempt in ("a", "b"):
        out = tmp_path / f"dens-{attempt}"
        assert main(["density", "--config", dens_cfg, "--lambda", "0.1", "--out", str(out)]) == 0
        dens_files.append((out / "density.csv").read_bytes())
    dens_ok = dens_files[0] == dens_files[1]

    verdict(
        "criterion-11 determinism",
        sim_ok and dens_ok,
        f"simulate byte-identical across reruns and 1/8 threads: {sim_ok}; "
        f"density rerun identical: {dens_ok}",
    )
