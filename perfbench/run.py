"""Benchmark launcher for weakmeas.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout: the package is imported from
``src/`` there, never from an installed copy, and the run fails without it.
Each run starts one fresh worker process for the workload (``worker.py``)
with the BLAS pool held to one thread, and prints, as its last line, one
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``). ``--selfcheck`` runs every workload once at a tiny
size with all of its checks, traced and untraced.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("simulate_records", "mc_sequential", "exact_commands")
TIME_LIMIT = 170.0
SETUP_REPEATS = 7
# Median probe time on the reference machine (see README), in seconds.
PROBE_REFERENCE_S = 0.0015
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import weakmeas.cli; "
    "print(time.perf_counter() - t)"
)


def environment() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict, deadline: float) -> float:
    """Median time for a fresh interpreter to import weakmeas.cli.

    The first import is not timed: it may write the bytecode cache.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=max(deadline - time.monotonic(), 1.0),
        )
        if i:
            times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_worker(workload: str, seed: int, seconds: float, trace: int, tiny: bool, env: dict,
               deadline: float) -> dict:
    out_dir = OUT / f"{workload}-{os.getpid()}"
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--src", str(SRC), "--out", str(out_dir),
    ]
    if tiny:
        cmd.append("--tiny")
    if trace and not tiny:
        cmd += ["--trace-file", str(OUT / f"trace-{workload}-seed{seed}.npz")]
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> str:
    """Highest percentile with ten samples beyond it (needs 40 samples)."""
    n = len(latencies)
    if n < 40:
        return f"op latency: {n} samples, too few for a tail percentile"
    pct = math.floor(100 * (n - 10) / n)
    value = sorted(latencies)[n - 11]
    return f"op latency p{pct}: {value:.6f} s (scaled) over {n} samples"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(result: dict, setup_s: float) -> dict:
    """The figures a user of the commands sees, as medians over the run.

    ``ops_per_s`` is the median over rounds of a round's completed
    operations per second of operation time. The two operation timings are
    scaled to the host's reference speed: ``host`` is the median time of
    the probe run after every operation, over ``PROBE_REFERENCE_S``. The
    host's speed drifts by a quarter over minutes and moves every operation
    with it; the measured values are printed on the line before.
    """
    lat = result["latencies"]
    host = statistics.median(result["probes"]) / PROBE_REFERENCE_S
    ops_per_s = statistics.median(n / t for n, t in result["rounds"] if t)
    op_p50_s = statistics.median(lat)
    print(f"measured: ops_per_s={ops_per_s} op_p50_s={op_p50_s} host={host}")
    print(tail([t / host for t in lat]))
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(ops_per_s * host, "ops/s"),
        "op_p50_s": metric(op_p50_s / host, "s"),
        "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
    }


def selfcheck(env: dict) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            deadline = time.monotonic() + TIME_LIMIT
            result = run_worker(workload, 1, 0, trace, True, env, deadline)
            good = result["correct"] and result["failed"] == 0
            ok &= good
            print(f"{workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}")
    print("selfcheck", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main() -> int:
    deadline = time.monotonic() + TIME_LIMIT
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()
    if not (SRC / "weakmeas" / "__init__.py").is_file():
        print(f"no weakmeas sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    env = environment()
    if args.selfcheck:
        return selfcheck(env)
    if args.workload is None:
        parser.error("--workload is required")

    setup_s = None if args.trace else setup_seconds(env, deadline)
    result = run_worker(args.workload, args.seed, args.seconds, args.trace, False, env, deadline)
    print(f"attempted={result['attempted']} failed={result['failed']}")
    if args.trace:
        metrics = result["per_layer"]
    else:
        metrics = end_to_end(result, setup_s)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
