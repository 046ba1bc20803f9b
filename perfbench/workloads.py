"""The benchmark's three workloads: their inputs, operations and checks.

Inputs are drawn from the seed alone: random Hermitian observables scaled to
spectral radius 1, and pre/post-selected pairs ``phi = eps psi + sqrt(1 -
eps^2) e^{i theta} perp`` with ``eps`` in [0.15, 0.3], so weak values reach
well past the spectrum while post-selection keeps 2-9% of the runs. The
program receives only the generated configs.

Each operation returns the outputs it produced; :func:`digest` hashes them
for the byte-identity check, and the operation's ``check`` compares them with
:mod:`oracle` (closed forms recomputed without ``weakmeas``) or with an
identity the method must satisfy. Checks that compare Monte Carlo estimates
with closed forms allow ``N_SE`` standard errors.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracle

N_SE = 5.0
BLOCK = 65536
DIMS = (2, 8, 16)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
LAMBDA = 0.1


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    cleanup: Callable[[], None] = lambda: None


# ---------------------------------------------------------------- inputs


def random_observable(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (g + g.conj().T) / 2.0
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def random_pair(rng: np.random.Generator, d: int) -> tuple[np.ndarray, np.ndarray]:
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    perp = rng.normal(size=d) + 1j * rng.normal(size=d)
    perp -= np.vdot(psi, perp) * psi
    perp /= np.linalg.norm(perp)
    eps = rng.uniform(0.15, 0.3)
    phi = eps * psi + math.sqrt(1.0 - eps * eps) * np.exp(2j * math.pi * rng.random()) * perp
    return psi, phi / np.linalg.norm(phi)


def pairs(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.ravel(values)]


def from_pairs(data) -> np.ndarray:
    return np.array([complex(re, im) for re, im in data])


def state(data) -> np.ndarray:
    """A state as the program sees it: parsed from [re, im] pairs and normalized."""
    v = from_pairs(data)
    return v / np.linalg.norm(v)


def observable(data) -> np.ndarray:
    flat = from_pairs(data)
    d = math.isqrt(flat.size)
    return flat.reshape(d, d)


# ---------------------------------------------------------------- helpers


def digest(result) -> str:
    """sha256 over every output: files (by name) and in-memory arrays."""
    h = hashlib.sha256()
    for key in sorted(result):
        value = result[key]
        h.update(key.encode())
        if isinstance(value, Path):
            h.update(value.read_bytes())
        elif isinstance(value, np.ndarray):
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())
    return h.hexdigest()


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def numeric_columns(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


def close(name: str, got: float, want: float, tol: float) -> list[str]:
    if math.isfinite(got) and abs(got - want) <= tol:
        return []
    return [f"{name}: got {got!r}, want {want!r} within {tol:.3g}"]


def within_se(name: str, got: float, want: float, se: float) -> list[str]:
    return close(name, got, want, N_SE * se)


def cli_op(cli, name: str, command: str, config: dict, out_dir: Path, check, extra=()):
    """One ``weakmeas`` command run in-process through ``cli.main``.

    ``cli.main`` is looked up on every call, so a traced run sees the
    wrapper. Every call writes into a new directory, which ``cleanup``
    removes once the outputs are checked: rewriting the same files would
    make each close wait on the file system's flush of the previous copy.
    """
    config_json = json.dumps(config)
    calls = itertools.count()
    current: list[Path] = []

    def run():
        op_dir = out_dir / name / str(next(calls))
        current.append(op_dir)
        argv = [command, "--config", config_json, "--out", str(op_dir), *extra]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"weakmeas {command} exited {code}")
        result = {p.name: p for p in sorted(op_dir.iterdir())}
        result["stdout"] = buf.getvalue()
        return result

    def cleanup():
        while current:
            shutil.rmtree(current.pop(), ignore_errors=True)

    return Op(name, run, lambda result: check(config, result), cleanup)


# ---------------------------------------------------------------- simulate_records


def _check_records(config: dict, result, fmt: str) -> tuple[list[str], np.ndarray]:
    problems = []
    if fmt == "json":
        doc = json.loads(result["records.json"].read_text())
        data = np.array(doc["rows"], dtype=np.float64).reshape(-1, 2)
    else:
        data = numeric_columns(result["records.csv"])
    x, kept = data[:, 0], data[:, 1] > 0.5
    n, k = x.size, int(kept.sum())
    stats = json.loads(result["stats.json"].read_text())
    problems += close("records", n, config["trials"], 0)
    problems += close("stats.n_postselected", stats["n_postselected"], k, 0)
    mean = float(x[kept].mean())
    problems += close("stats.conditional_means", stats["conditional_means"][0], mean, 1e-12 * (1 + abs(mean)))

    psi = state(config["psi"])
    lam = config["lambda"]
    se_mean = float(x[kept].std(ddof=1) / math.sqrt(k))
    if config["protocol"] == "threshold":
        vals, _, p = oracle.branches(SIGMA_X, psi)
        want_mean, want_rate = oracle.truncated_mean(vals, p, lam, config["threshold_multiple"] * lam)
    else:
        vals, w, _ = oracle.branches(SIGMA_X, psi, state(config["phi"]))
        want_rate = oracle.postselection_probability(vals, w, lam)
        if config["protocol"] == "kick":
            want_mean = oracle.conditional_mean_xprime(vals, w, lam)
        else:
            want_mean = oracle.conditional_mean_x(vals, w, lam)
    problems += within_se("postselection rate", k / n, want_rate, math.sqrt(want_rate * (1 - want_rate) / n))
    problems += within_se("conditional mean", mean, want_mean, se_mean)
    return problems, data


def simulate_records(cli, seed: int, out_dir: Path, tiny: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    psi, phi = random_pair(rng, 2)
    # one block even when tiny: fewer trials could not see a 10% bias
    base = {"observable": pairs(SIGMA_X), "psi": pairs(psi), "trials": BLOCK}
    configs = {
        "single": {**base, "protocol": "single", "phi": pairs(phi), "lambda": LAMBDA},
        "kick": {**base, "protocol": "kick", "phi": pairs(phi), "lambda": LAMBDA},
        "threshold": {**base, "protocol": "threshold", "lambda": 0.01, "threshold_multiple": 100.0},
    }
    for config in configs.values():
        config["seed"] = int(rng.integers(2**31))
    csv_kick: dict[str, np.ndarray] = {}

    def check_csv(config, result):
        problems, data = _check_records(config, result, "csv")
        if config["protocol"] == "kick":
            csv_kick["data"] = data
        return problems

    def check_json(config, result):
        problems, data = _check_records(config, result, "json")
        if "data" in csv_kick and not np.array_equal(data, csv_kick["data"]):
            problems.append("kick records differ between CSV and JSON")
        return problems

    ops = [
        cli_op(cli, f"simulate_{name}", "simulate", config, out_dir, check_csv, ("--threads", "1"))
        for name, config in configs.items()
    ]
    ops.append(
        cli_op(
            cli, "simulate_kick_json", "simulate", configs["kick"], out_dir, check_json,
            ("--threads", "1", "--format", "json"),
        )
    )
    return ops


# ---------------------------------------------------------------- mc_sequential


def covariance_with_jackknife(x1: np.ndarray, x2: np.ndarray) -> tuple[float, float]:
    """Sample covariance and its delete-one jackknife standard error.

    With d = x - mean and S = sum(d1 d2), leaving out run i gives the
    covariance (S - n d1_i d2_i / (n - 1)) / (n - 2).
    """
    n = x1.size
    d1, d2 = x1 - x1.mean(), x2 - x2.mean()
    s = float(np.sum(d1 * d2))
    loo = (s - n * d1 * d2 / (n - 1)) / (n - 2)
    return s / (n - 1), float(math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def mc_sequential(package, seed: int, out_dir: Path, tiny: bool) -> list[Op]:
    core, mc = package.core, package.montecarlo
    rng = np.random.default_rng([seed, 2])
    trials = {2: 2 * BLOCK, 8: BLOCK, 16: BLOCK}
    ops = []
    for d in DIMS:
        a, b = random_observable(rng, d), random_observable(rng, d)
        psi, phi = random_pair(rng, d)
        mc_seed = int(rng.integers(2**31))
        n = 16384 if tiny else trials[d]

        def run(a=a, b=b, psi=psi, phi=phi, mc_seed=mc_seed, n=n):
            plan = mc.TrialPlan(
                protocol="sequential",
                observable=core.Observable(a),
                coupling=LAMBDA,
                preselect=core.PureState.normalized(psi),
                postselect=core.PureState.normalized(phi),
                trials=n,
                seed=mc_seed,
                second_observable=core.Observable(b),
                second_coupling=LAMBDA,
                threads=1,
            )
            records, stats = mc.run_plan(plan)
            return {"records": records, "stats": stats}

        def check(result, a=a, b=b, psi=psi, phi=phi, n=n):
            records, stats = result["records"], result["stats"]
            kept = records[records["postselected"]]
            x1, x2, k = kept["x"], kept["x2"], kept.size
            a_vals, b_vals, w = oracle.sequential_weights(a, b, psi, phi)
            rate, e1, e2, cov = oracle.sequential_moments(a_vals, b_vals, w, LAMBDA, LAMBDA)
            got_cov, cov_se = covariance_with_jackknife(x1, x2)
            problems = close("trials", records.size, n, 0)
            problems += close("n_postselected", stats.n_postselected, k, 0)
            problems += close("stats.cross_covariance", stats.cross_covariance, got_cov, 1e-9 * cov_se)
            problems += within_se("postselection rate", k / n, rate, math.sqrt(rate * (1 - rate) / n))
            problems += within_se("E[x1]", stats.conditional_means[0], e1, x1.std(ddof=1) / math.sqrt(k))
            problems += within_se("E[x2]", stats.conditional_means[1], e2, x2.std(ddof=1) / math.sqrt(k))
            problems += within_se("Cov(x1, x2)", got_cov, cov, cov_se)
            return problems

        ops.append(Op(f"sequential_d{d}", run, check))
    return ops


# ---------------------------------------------------------------- exact_commands

KICK_GRID = [0.02, 0.01, 0.005, 0.0025]
THRESHOLD_GRID = [0.02, 0.01, 0.005]
DISTURBANCE_LAMBDA = 0.3
# Relative and absolute tolerances for closed forms evaluated two ways.
RTOL = 1e-9
ATOL = 1e-12


def _branches_of(config):
    psi, phi = state(config["psi"]), state(config["phi"])
    vals, w, p = oracle.branches(observable(config["observable"]), psi, phi)
    return psi, phi, vals, w, p


def _curve(name, got, want) -> list[str]:
    err = float(np.max(np.abs(got - want)))
    scale = float(np.max(np.abs(want)))
    return [] if err <= RTOL * scale + ATOL else [f"{name}: max deviation {err:.3g} (scale {scale:.3g})"]


def _check_weak_value(config, result):
    psi, phi, *_ = _branches_of(config)
    doc = json.loads(result["weak_value.json"].read_text())
    want = oracle.weak_value(observable(config["observable"]), psi, phi)
    return close("weak value", abs(complex(*doc["weak_value"]) - want), 0.0, RTOL * (1 + abs(want)))


def _check_anomalous(config, result):
    doc = json.loads(result["anomalous.json"].read_text())
    a = observable(config["observable"])
    psi, phi = from_pairs(doc["psi"]), from_pairs(doc["phi"])
    want = oracle.weak_value(a, psi, phi)
    got = complex(*doc["weak_value"])
    part = want.real if config["target"] == "re" else want.imag
    problems = close("weak value", abs(got - want), 0.0, RTOL * (1 + abs(want)))
    problems += close("postselect_prob", doc["postselect_prob"], abs(np.vdot(phi, psi)) ** 2, ATOL)
    if part <= np.max(np.abs(np.linalg.eigvalsh(a))):
        problems.append(f"targeted part {part!r} of the weak value lies inside the spectrum")
    return problems


def _check_density(config, result):
    _, _, vals, w, _ = _branches_of(config)
    xs, dens = numeric_columns(result["density.csv"]).T
    lam = config["lambda"]
    curve = oracle.density_x if config["basis"] == "x" else oracle.density_xprime
    problems = _curve("density", dens, curve(vals, w, lam, xs))
    problems += close("density integral", float(np.trapezoid(dens, xs)), 1.0, 1e-6)
    problems += close("cdf end", float(numeric_columns(result["cdf.csv"])[-1, 1]), 1.0, 1e-6)
    if config["basis"] == "x":
        problems += close(
            "mean", float(np.trapezoid(xs * dens, xs)), oracle.conditional_mean_x(vals, w, lam), 1e-6
        )
    return problems


def _lambda_rows(path: Path, column: str):
    header, rows = read_table(path)
    idx = header.index(column)
    grid = [(float(r[1]), float(r[idx])) for r in rows if r[0] == "lambda"]
    extrap = [r[idx] for r in rows if r[0] == "extrapolation"][0]
    return grid, float(extrap) if extrap else None


def _check_postselect_prob(config, result):
    _, _, vals, w, _ = _branches_of(config)
    grid, _ = _lambda_rows(result["postselect_prob.csv"], "prob")
    return [
        p
        for lam, prob in grid
        for p in close(f"P({lam})", prob, oracle.postselection_probability(vals, w, lam), ATOL)
    ]


def _check_kick(config, result):
    psi, phi, vals, w, _ = _branches_of(config)
    grid, extrap = _lambda_rows(result["kick.csv"], "mean_over_lambda")
    problems = [
        p
        for lam, scaled in grid
        for p in close(
            f"kick mean({lam})", scaled, oracle.conditional_mean_xprime(vals, w, lam) / lam, RTOL * 10
        )
    ]
    im_aw = oracle.weak_value(observable(config["observable"]), psi, phi).imag
    return problems + close("kick extrapolation vs Im A_w", extrap, im_aw, 1e-4 * (1 + abs(im_aw)))


def _check_sequential(config, result):
    psi, phi = state(config["psi"]), state(config["phi"])
    a_vals, b_vals, w = oracle.sequential_weights(
        observable(config["observable"]), observable(config["observable_b"]), psi, phi
    )
    grid, _ = _lambda_rows(result["sequential.csv"], "cross_covariance")
    problems = [
        p
        for lam, cov in grid
        for p in close(f"Cov({lam})", cov, oracle.sequential_moments(a_vals, b_vals, w, lam, lam)[3], ATOL)
    ]
    x1, x2, dens = numeric_columns(result["sequential_density.csv"]).T
    xs = np.unique(x1)
    grid2 = dens.reshape(xs.size, xs.size)
    want = oracle.sequential_density(a_vals, b_vals, w, LAMBDA, LAMBDA, xs, xs)
    problems += _curve("joint density", grid2, want)
    integral = float(np.trapezoid(np.trapezoid(grid2, xs, axis=1), xs))
    return problems + close("joint density integral", integral, 1.0, 1e-6)


def _check_lindblad(config, result):
    psi, phi, vals, w, _ = _branches_of(config)
    xs, joint, pw, error = numeric_columns(result["lindblad_decomposition.csv"]).T
    lam = LAMBDA
    problems = _curve("joint", joint, oracle.joint_density(vals, w, lam, xs))
    problems += _curve("pw", pw, oracle.pw_density(vals, w, lam, xs, np.vdot(phi, psi)))
    problems += _curve("joint - (pw + error)", joint - (pw + error), np.zeros_like(joint))
    gdi = json.loads(result["gdi.json"].read_text())
    return problems + close("mean_full", gdi["mean_full"], oracle.conditional_mean_x(vals, w, lam), 1e-9)


def _check_disturbance(config, result):
    psi, phi, vals, w, _ = _branches_of(config)
    lam = config["lambda"]
    doc = json.loads(result["disturbance.json"].read_text())
    rho = oracle.nonselective_state(observable(config["observable"]), psi, lam)
    prob = oracle.postselection_probability(vals, w, lam)
    # P_exact - |<phi|psi>|^2 = <phi|(rho_nonselective - psi psi^dag)|phi>
    problems = close("disturbance identity", prob, float(np.vdot(phi, rho @ phi).real), ATOL)
    problems += close("prob_exact", doc["postselect_prob_exact"], prob, ATOL)
    problems += close("purity", doc["nonselective_purity"], float(np.trace(rho @ rho).real), ATOL)
    problems += close("fidelity", doc["fidelity_to_initial"], float(np.vdot(psi, rho @ psi).real), ATOL)
    return problems


def _check_threshold(config, result):
    psi = state(config["psi"])
    vals, _, p = oracle.branches(observable(config["observable"]), psi)
    grid, _ = _lambda_rows(result["threshold.csv"], "predicted_mean")
    return [
        q
        for lam, mean in grid
        for q in close(f"E[x | x >= {100 * lam}]", mean, oracle.truncated_mean(vals, p, lam, 100 * lam)[0], RTOL)
    ]


def _check_collective(config, result):
    _, _, vals, w, _ = _branches_of(config)
    _, rows = read_table(result["collective.csv"])
    values = {(int(n), metric): float(v) for n, metric, v in rows}
    problems = []
    for n in {n for n, _ in values}:
        ratio, mean = oracle.collective_ratio_and_mean(vals, w, LAMBDA, n)
        problems += close(f"ratio(N={n})", values[n, "postselection_ratio"], ratio, 1e-8 * ratio)
        problems += close(f"x' mean(N={n})", values[n, "xprime_mean"], mean, 1e-8)
        gap = values[n, "x_density_supnorm_gap"]
        if not 0.0 <= gap < 1.0:
            problems.append(f"x density gap(N={n}) = {gap!r}")
    return problems


def exact_commands(cli, seed: int, out_dir: Path, tiny: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = []
    for d in DIMS:
        a, b = random_observable(rng, d), random_observable(rng, d)
        psi, phi = random_pair(rng, d)
        base = {"observable": pairs(a), "psi": pairs(psi), "phi": pairs(phi)}
        commands = [
            ("weak-value", base, _check_weak_value),
            ("anomalous", {"observable": base["observable"], "epsilon": 0.01, "target": "im" if d == 8 else "re"}, _check_anomalous),
            ("density", {**base, "lambda": LAMBDA, "basis": "x"}, _check_density),
            ("density", {**base, "lambda": LAMBDA, "basis": "xprime"}, _check_density),
            ("postselect-prob", base, _check_postselect_prob),
            ("kick", {**base, "lambda_grid": KICK_GRID}, _check_kick),
            ("sequential", {**base, "observable_b": pairs(b)}, _check_sequential),
            ("lindblad", base, _check_lindblad),
            ("disturbance", {**base, "lambda": DISTURBANCE_LAMBDA}, _check_disturbance),
            ("threshold", {"observable": base["observable"], "psi": base["psi"], "lambda_grid": THRESHOLD_GRID}, _check_threshold),
        ]
        if d == 2:
            n_grid = {"n_grid": [5, 10]} if tiny else {}
            commands.append(("collective", {**base, **n_grid}, _check_collective))
        for command, config, check in commands:
            suffix = f"_{config['basis']}" if command == "density" else ""
            ops.append(cli_op(cli, f"{command}{suffix}_d{d}", command, config, out_dir, check))
    return ops


WORKLOADS = {
    "simulate_records": lambda pkg, seed, out, tiny: simulate_records(pkg.cli, seed, out, tiny),
    "mc_sequential": mc_sequential,
    "exact_commands": lambda pkg, seed, out, tiny: exact_commands(pkg.cli, seed, out, tiny),
}
