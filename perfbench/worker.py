"""Run one workload in this process and print its figures as one JSON line.

Started by ``run.py`` in a fresh interpreter, with ``src`` on PYTHONPATH and
the BLAS pool held to one thread. Order of work:

1. one warm-up operation;
2. a check round: every operation once, its outputs checked against
   :mod:`oracle` and hashed;
3. timed rounds of the same operations until ``--seconds`` have passed.
   Every round is whole, and every output must hash as in the check round.

With ``--trace 1`` the timed rounds alternate: one untraced, one traced
(wrappers from :mod:`spans` installed), so the per-layer figures and the
tracing overhead come from interleaved rounds of equal work.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from spans import LAYERS, ROOT, Tracer


def load_package(src: Path):
    package = importlib.import_module("weakmeas")
    where = Path(package.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"weakmeas imported from {where}, not from {src}")
    importlib.import_module("weakmeas.cli")
    return package


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work (about 2 ms).

    Run after every timed operation, it samples how fast the host is at
    that moment; the launcher scales the timing metrics by it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(1000):
        total += len(f"{i * 0.5!r},{i}")
    a = np.linspace(0.0, 1.0, 4096)
    for _ in range(20):
        a = np.sqrt(np.exp(-a) + 1.0) - 0.5
    return time.perf_counter() - start


class Runner:
    def __init__(self, ops):
        self.ops = ops
        self.digests: dict[str, str] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.rounds: list[tuple[int, float]] = []  # (operations completed, seconds)
        self.probes: list[float] = []

    def check_round(self) -> None:
        for op in self.ops:
            try:
                result = op.run()
            except Exception as exc:  # counted as failed in every timed round
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                op.cleanup()
                continue
            try:
                problems = op.check(result)
            except Exception as exc:  # a malformed output is a failed check
                problems = [f"checking raised {type(exc).__name__}: {exc}"]
            self.problems += [f"{op.name}: {p}" for p in problems]
            self.digests[op.name] = workloads.digest(result)
            op.cleanup()

    def timed_round(self, wrap=None) -> float:
        """Run every operation once; returns the summed operation time."""
        total = 0.0
        done = 0
        for op in self.ops:
            self.attempted += 1
            call = op.run if wrap is None else (lambda op=op: wrap(op.run))
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:
                self.failed += 1
                print(f"{op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                op.cleanup()
                continue
            elapsed = time.perf_counter() - start
            total += elapsed
            done += 1
            self.latencies.append(elapsed)
            if workloads.digest(result) != self.digests.get(op.name):
                self.problems.append(f"{op.name}: output bytes differ from the check round")
            op.cleanup()
            self.probes.append(host_probe())
        self.rounds.append((done, total))
        return total


def per_layer(tracer: Tracer, rounds: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-round figures of the traced rounds; ratios are over all of them."""
    self_s = tracer.self_times()
    counts = tracer.counts
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
        out[f"{layer}.calls"] = (tracer.calls[layer] / rounds, "count")
    trials = counts["montecarlo.trials"]
    mc_time = tracer.top_level_time("montecarlo")
    rows = counts["serialize.rows"]
    out.update(
        {
            "core.eigendecompose_calls": (counts["core.eigendecompose_calls"] / rounds, "count"),
            "protocols.joint_branches": (counts["protocols.joint_branches"] / rounds, "count"),
            "montecarlo.trials": (trials / rounds, "count"),
            "montecarlo.trials_per_s": (trials / mc_time if mc_time else 0.0, "1/s"),
            "montecarlo.postselected_ratio": (
                counts["montecarlo.postselected"] / trials if trials else 0.0, "ratio"
            ),
            "serialize.rows": (rows / rounds, "count"),
            "serialize.bytes": (counts["serialize.bytes"] / rounds, "bytes"),
            "serialize.rows_per_s": (
                rows / self_s["serialize"] if self_s["serialize"] else 0.0, "1/s"
            ),
            "trace.op_wall_s": (traced_wall / rounds, "s"),
            "trace.unattributed_s": (self_s[ROOT] / rounds, "s"),
            "trace.overhead_s": ((traced_wall - untraced_wall) / rounds, "s"),
        }
    )
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args()

    package = load_package(args.src)
    ops = workloads.WORKLOADS[args.workload](package, args.seed, args.out, args.tiny)
    runner = Runner(ops)
    try:
        ops[0].run()  # warm-up
    except Exception:  # the same failure is counted in the timed rounds
        pass
    ops[0].cleanup()
    runner.check_round()

    layers = None
    start = time.perf_counter()
    if args.trace:
        tracer = Tracer(package)
        rounds = 0
        traced_wall = untraced_wall = 0.0
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            untraced_wall += runner.timed_round()
            tracer.install()
            try:
                traced_wall += runner.timed_round(wrap=tracer.op)
            finally:
                tracer.uninstall()
            rounds += 1
        layers = per_layer(tracer, rounds, traced_wall, untraced_wall)
        if args.trace_file is not None:
            tracer.save(str(args.trace_file))
    else:
        while runner.attempted == 0 or time.perf_counter() - start < args.seconds:
            runner.timed_round()

    for problem in runner.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not runner.problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "latencies": runner.latencies,
                "rounds": runner.rounds,
                "probes": runner.probes,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "per_layer": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
