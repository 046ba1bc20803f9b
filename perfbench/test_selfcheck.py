"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run the launcher as the benchmark harness does, from the root of a
checkout, so they need numpy but no installed copy of weakmeas.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import workloads  # noqa: E402


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=600,
    )


def test_selfcheck_passes():
    proc = run("--selfcheck")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck passed" in proc.stdout


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("--workload", "exact_commands", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_shape():
    proc = run("--workload", "mc_sequential", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}


@pytest.mark.parametrize("d", [2, 8, 16])
def test_inputs_depend_only_on_the_seed(d):
    a = workloads.random_observable(np.random.default_rng(5), d)
    b = workloads.random_observable(np.random.default_rng(5), d)
    assert np.array_equal(a, b)
    assert np.allclose(a, a.conj().T)
    assert np.isclose(np.max(np.abs(np.linalg.eigvalsh(a))), 1.0)


def test_oracle_kick_mean_tends_to_im_weak_value():
    rng = np.random.default_rng(9)
    a = workloads.random_observable(rng, 4)
    psi, phi = workloads.random_pair(rng, 4)
    vals, w, _ = oracle.branches(a, psi, phi)
    lam = 1e-4
    got = oracle.conditional_mean_xprime(vals, w, lam) / lam
    assert got == pytest.approx(oracle.weak_value(a, psi, phi).imag, rel=1e-6)


def test_density_check_rejects_a_wrong_curve(tmp_path):
    rng = np.random.default_rng(2)
    a = workloads.random_observable(rng, 2)
    psi, phi = workloads.random_pair(rng, 2)
    config = {"observable": workloads.pairs(a), "psi": workloads.pairs(psi),
              "phi": workloads.pairs(phi), "lambda": 0.1, "basis": "x"}
    vals, w, _ = oracle.branches(a, psi, phi)
    xs = np.linspace(-10, 10, 512)
    dens = oracle.density_x(vals, w, 0.1, xs)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))))
    for name, shift in (("good", 0.0), ("bad", 1e-3)):
        d = tmp_path / name
        d.mkdir()
        np.savetxt(d / "density.csv", np.c_[xs, dens * (1 + shift)], delimiter=",", header="x,density", comments="")
        np.savetxt(d / "cdf.csv", np.c_[xs, cdf], delimiter=",", header="x,cdf", comments="")
        problems = workloads._check_density(config, {p.name: p for p in d.iterdir()})
        assert bool(problems) == (name == "bad"), problems
