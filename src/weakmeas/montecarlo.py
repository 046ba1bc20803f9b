"""Per-run stochastic simulation of the measurement protocols.

Every protocol is simulated run by run, in the physical order: draw the meter
outcome, collapse the system to the outcome-conditioned state, then decide
post-selection with a Bernoulli draw on that (possibly disturbed) state. This
mirrors how the disturbance enters a laboratory experiment; nothing is drawn
from the final conditional distribution directly.

Meter outcomes are mixtures of unit-variance Gaussians, so a draw is an
eigenbranch choice (categorical in the branch probabilities |P_i psi|^2 of
:func:`weakmeas.core.branch_components`) plus a standard normal: exact, with
no grid.

Reproducibility contract: trials are generated in fixed blocks of
``BLOCK_SIZE``; block b uses the generator ``stream_rng(seed, b)`` and a fixed
draw order. Results therefore depend only on (plan, seed) and are identical
for any thread count; threads only spread blocks over workers.

The kernels never form a normalized Gaussian: a collapse multiplies by
exp(-(x - c)^2 / 4), sqrt(G(x - c)) without its constant, and a run is kept
when u * P < |amp|^2, with no division. The constants cancel between |amp|^2
and P, so the records are those of the normalized formulas.

Memory: a run allocates its records array once (17 bytes a trial for two
meters, 9 for one) and each block fills its own slice of it. A block draws
its random arrays for all of its trials, as (n,) arrays in a fixed order;
every runner then evaluates the rest in tiles of ``TILE`` trials, so its
other temporaries are a few (k, TILE) or (2d, TILE) float arrays that stay
in cache and that the allocator hands back from tile to tile, not (k, n)
arrays whose fresh pages every block faults in. At d = 16 a block peaks at
about 7.8 MiB traced for the sequential runner, most of it the five (n,)
draws and the records (8.3 MiB with its first meter's outcome formed for the
whole block), and at 3.2, 4.1 and 1.8 MiB for single, kick and threshold
(13.6, 27.6 and 2.6 MiB with untiled blocks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Observable, PureState, branch_components, check_dimensions, postselection_overlap
from .errors import NoPostselectedRuns
from .pointer import gaussian_density, gaussian_upper_tail, stream_rng
from .protocols import check_couplings

BLOCK_SIZE = 65536
# Trials per tile of every kernel. Smaller tiles stay in cache but make more
# numpy calls, each of which drops and retakes the GIL. On a 2-core VM with one
# BLAS thread, seconds per run_plan call of 10^6 trials at 2,048 / 4,096 / 8,192:
# - sequential, median of three: d = 2 0.21/0.19/0.19 on one thread and
#   0.20/0.16/0.15 on two; d = 8 0.22/0.20/0.21 and 0.20/0.15/0.16; d = 16
#   0.40/0.40/0.42 and 0.27/0.21/0.25.
# - one meter, one thread, untiled blocks first, median of six alternating
#   processes: at d = 2, single 0.086 against 0.101/0.080/0.085, kick 0.126
#   against 0.117/0.101/0.122, threshold 0.052 against 0.062/0.051/0.049; at
#   d = 16, 0.174 against 0.144/0.117/0.115, 0.562 against 0.429/0.406/0.489
#   and 0.065 against 0.091/0.072/0.068.
# Two cores cannot show scaling past two threads.
TILE = 4096

PROTOCOLS = ("single", "kick", "sequential", "threshold")


@dataclass(frozen=True)
class TrialPlan:
    """What to simulate, how often, and with which seed."""

    protocol: str
    observable: Observable
    coupling: float
    preselect: PureState
    postselect: PureState | None
    trials: int
    seed: int
    second_observable: Observable | None = None
    second_coupling: float = 0.0
    threshold_multiple: float = 100.0
    threads: int = 1

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")
        if min(self.trials, self.threads) < 1:
            raise ValueError("trials and threads must be >= 1")
        operands = (self.preselect, self.postselect, self.second_observable)
        check_dimensions(self.observable, *(op for op in operands if op is not None))
        check_couplings(self.coupling, self.second_coupling)
        if (self.protocol == "threshold") == (self.postselect is not None):
            raise ValueError("threshold takes no postselect state; every other protocol needs one")
        if self.postselect is not None:
            postselection_overlap(self.preselect, self.postselect)
        if self.protocol == "sequential" and self.second_observable is None:
            raise ValueError("sequential protocol requires a second observable")


@dataclass(frozen=True)
class TrialStatistics:
    """Aggregates over the post-selected runs of one plan.

    A statistic the kept runs cannot define is None: a standard error or the
    covariance of fewer than 2 runs, the covariance's jackknife error of
    fewer than 3.
    """

    n_total: int
    n_postselected: int
    postselection_rate: float
    conditional_means: tuple[float, ...]
    standard_errors: tuple[float | None, ...]
    cross_covariance: float | None = None
    cross_covariance_se: float | None = None

    def __post_init__(self):
        if self.n_postselected > self.n_total:
            raise ValueError("n_postselected exceeds n_total")


def _eigen_arrays(observable: Observable, psi: PureState):
    comps, probs = branch_components(observable, psi)
    return observable.eigensystem.eigenvalues, comps, probs


def _categorical(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Branch i with cdf[i - 1] <= u < cdf[i], the last branch when u >= cdf[-1]:
    the count of cdf[:-1] entries <= u, one (k - 1, n) comparison summed over
    the branch boundaries."""
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    return (cdf[:-1, None] <= u).sum(axis=0)


def _root_gaussian(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """exp(-(x - c)^2 / 4): sqrt(G(x - c)) without its factor (2 pi)^(-1/4),
    which cancels in every ratio the kernels form."""
    h = x - centers
    with np.errstate(over="ignore"):  # (x - c)^2 past the float range: exp(-inf) = 0, exact
        np.square(h, out=h)
    h *= -0.25
    return np.exp(h, out=h)


def _tiles(n: int):
    """Slices of ``TILE`` trials over a block of ``n``, the last one shorter."""
    return (slice(t, t + TILE) for t in range(0, n, TILE))


def _run_blocks(plan: TrialPlan, dtype: np.dtype, block_fn) -> np.ndarray:
    """Fill one records array in fixed-size blocks with per-block derived generators.

    ``block_fn(rng, out)`` fills ``out``, the block's own slice of the array,
    so blocks never share memory and threads need no merge step.
    """
    records = np.empty(plan.trials, dtype)
    starts = range(0, plan.trials, BLOCK_SIZE)

    def one(b: int) -> None:
        block_fn(stream_rng(plan.seed, b), records[starts[b] : starts[b] + BLOCK_SIZE])

    if plan.threads > 1 and len(starts) > 1:
        # Imported here, not at module level: every command pays the import of
        # weakmeas.cli, and only a threaded run of more than one block needs the pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=plan.threads) as pool:
            list(pool.map(one, range(len(starts))))
    else:
        for b in range(len(starts)):
            one(b)
    return records


_DTYPE_ONE = np.dtype([("x", "f8"), ("postselected", "?")])
_DTYPE_TWO = np.dtype([("x", "f8"), ("x2", "f8"), ("postselected", "?")])


def _mean_and_se(values: np.ndarray) -> tuple[float, float | None]:
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return mean, None
    return mean, float(values.std(ddof=1) / math.sqrt(n))


def _basic_stats(records: np.ndarray) -> TrialStatistics:
    """Mean and standard error per meter field (x, x2) of the kept records, and their covariance."""
    kept = records[records["postselected"]]
    if kept.size == 0:
        raise NoPostselectedRuns("no post-selected runs; statistics undefined")
    fields = [name for name in ("x", "x2") if name in records.dtype.names]
    means, ses = zip(*(_mean_and_se(kept[name]) for name in fields))
    cov = _covariance_with_jackknife(kept["x"], kept["x2"]) if len(fields) == 2 else (None, None)
    return TrialStatistics(
        n_total=int(records.size),
        n_postselected=int(kept.size),
        postselection_rate=float(kept.size / records.size),
        conditional_means=means,
        standard_errors=ses,
        cross_covariance=cov[0],
        cross_covariance_se=cov[1],
    )


def run_single(plan: TrialPlan):
    """Weak von Neumann measurement followed by projective post-selection.

    Per trial: draw x from the unconditional outcome mixture, form the
    conditional system state, and accept with |<phi|chi_x>|^2.
    """
    eigenvalues, comps, probs = _eigen_arrays(plan.observable, plan.preselect)
    w_phi = comps @ np.conj(plan.postselect.amplitudes)  # <phi|P_i|psi>
    post = np.array([w_phi.real, w_phi.imag])  # (2, k): Re and Im of the amplitude from real h
    lam = plan.coupling
    centers = lam * eigenvalues[:, None]

    def block(rng: np.random.Generator, out: np.ndarray) -> None:
        n = out.size
        u_branch = rng.random(n)
        z = rng.standard_normal(n)
        u_accept = rng.random(n)
        x_out, kept_out = out["x"], out["postselected"]
        for tile in _tiles(n):
            x = lam * eigenvalues[_categorical(u_branch[tile], probs)] + z[tile]
            h = _root_gaussian(x, centers)  # (k, tile)
            amp = post @ h
            h *= h
            x_out[tile] = x
            # accept with |<phi|chi_x>|^2 = |amp|^2 / sum_i p_i h_i^2, the constants cancelled
            kept_out[tile] = u_accept[tile] * (probs @ h) < amp[0] ** 2 + amp[1] ** 2

    records = _run_blocks(plan, _DTYPE_ONE, block)
    return records, _basic_stats(records)


def run_kick(plan: TrialPlan):
    """Random unitary kick exp(-i lam A x'/2) with x' drawn up front.

    The recorded outcome is the pre-drawn x'; it is never modified, only
    selected on, yet its conditional distribution shifts by lam * Im(A_w).

    The amplitude sum_i w_i exp(-i theta_i), theta_i = (lam a_i / 2) x', is
    evaluated in real arithmetic: [Re; Im] = [[Re w, Im w], [Im w, -Re w]]
    @ [cos theta; sin theta], one (2, 2k) by (2k, TILE) product a tile.
    """
    eigenvalues, comps, _ = _eigen_arrays(plan.observable, plan.preselect)
    w_phi = comps @ np.conj(plan.postselect.amplitudes)
    re, im = w_phi.real, w_phi.imag
    post = np.array([np.concatenate((re, im)), np.concatenate((im, -re))])
    half_kicks = (0.5 * plan.coupling * eigenvalues)[:, None]
    k = eigenvalues.size

    def block(rng: np.random.Generator, out: np.ndarray) -> None:
        n = out.size
        xp = rng.standard_normal(n)
        u_accept = rng.random(n)
        out["x"] = xp
        kept_out = out["postselected"]
        for tile in _tiles(n):
            theta = half_kicks * xp[tile]  # (k, tile)
            cos_sin = np.empty((2 * k, theta.shape[1]))
            np.cos(theta, out=cos_sin[:k])
            np.sin(theta, out=cos_sin[k:])
            amp = post @ cos_sin
            kept_out[tile] = u_accept[tile] < amp[0] ** 2 + amp[1] ** 2

    records = _run_blocks(plan, _DTYPE_ONE, block)
    return records, _basic_stats(records)


def run_sequential(plan: TrialPlan):
    """Two weak measurements in sequence, then post-selection.

    x1 is drawn from the first outcome mixture, the system collapses, x2 is
    drawn from the second mixture of the collapsed state, the system
    collapses again, and post-selection is decided on the twice-disturbed
    state. Cross covariance comes with a delete-one jackknife error.

    The collapsed state chi1 is kept, unnormalized, in coordinates c_m of an
    orthonormal eigenbasis v_m of B, fixed once per plan; coordinate m lies in
    eigenspace group[m]. The second collapse then only multiplies c_m by
    h2_m = exp(-(x2 - lam2 b_group[m])^2 / 4). With weights w_m = |c_m|^2,
    one matmul with the cumulative membership cum[j, m] = [group[m] <= j]
    gives the unnormalized branch-2 CDF, whose last row is |chi1|^2, and
    branch j is the count of rows j' < k_B - 1 with u2 * |chi1|^2 above them.
    The post-selection amplitude is one dot product with <phi|v_m>, and the
    run is kept when u3 * sum_m h2_m^2 w_m < |amp|^2: the normalization of
    chi1, P(x2 | x1) and every Gaussian constant cancel from both sides.

    A block draws its five uniforms and normals for all of its trials, then
    forms x1 and evaluates the collapses in tiles of ``TILE`` trials, in real
    arithmetic and branch-major: the real and imaginary parts of the d
    coordinates are the 2d rows of one (2d, TILE) array. A block costs
    O(n d^2) and, beyond the five (n,) draws, holds only tile-sized arrays
    (1 MiB for the coordinates at d = 16).
    """
    a_vals, comps_a, probs_a = _eigen_arrays(plan.observable, plan.preselect)
    b_system = plan.second_observable.eigensystem
    b_vals = b_system.eigenvalues
    vals, vecs = np.linalg.eigh(b_system.projectors)
    group, cols = np.nonzero(vals > 0.5)  # projector eigenvalues are 0 or 1
    basis = vecs[group, :, cols].T  # orthonormal; column m lies in eigenspace group[m]
    comps_rot = comps_a @ np.conj(basis)  # <v_m|P_i|psi>
    phi_rot = basis.T @ np.conj(plan.postselect.amplitudes)  # <phi|v_m>
    d = group.size
    rot = np.concatenate((comps_rot.real.T, comps_rot.imag.T))  # (2d, k_A): [Re; Im]
    # rows give Re and Im of sum_m <phi|v_m> c_m from the stacked [Re c; Im c]
    re, im = phi_rot.real, phi_rot.imag
    post = np.array([np.concatenate((re, -im)), np.concatenate((im, re))])
    cum = (np.arange(b_vals.size)[:, None] >= group).astype(np.float64)  # (k_B, d): group[m] <= j
    lam1, lam2 = plan.coupling, plan.second_coupling
    centers1 = lam1 * a_vals[:, None]
    centers2 = lam2 * b_vals[group][:, None]  # one centre per coordinate row

    def block(rng: np.random.Generator, out: np.ndarray) -> None:
        n = out.size
        u1 = rng.random(n)
        z1 = rng.standard_normal(n)
        u2 = rng.random(n)
        z2 = rng.standard_normal(n)
        u3 = rng.random(n)
        x1_out, x2_out, kept_out = out["x"], out["x2"], out["postselected"]

        for tile in _tiles(n):
            x1 = lam1 * a_vals[_categorical(u1[tile], probs_a)] + z1[tile]
            # Re and Im of chi1's unnormalized coordinates, (2, d, tile)
            re_im = (rot @ _root_gaussian(x1, centers1)).reshape(2, d, -1)
            weight = np.square(re_im[0])
            weight += np.square(re_im[1])
            cdf = cum @ weight  # unnormalized branch-2 CDF, (k_B, tile)
            branch2 = (u2[tile] * cdf[-1] > cdf[:-1]).sum(axis=0)
            x2 = lam2 * b_vals[branch2] + z2[tile]
            h2 = _root_gaussian(x2, centers2)
            re_im *= h2
            amp = post @ re_im.reshape(2 * d, -1)
            h2 *= h2
            h2 *= weight
            x1_out[tile] = x1
            x2_out[tile] = x2
            kept_out[tile] = u3[tile] * h2.sum(axis=0) < amp[0] ** 2 + amp[1] ** 2

    records = _run_blocks(plan, _DTYPE_TWO, block)
    return records, _basic_stats(records)


def _covariance_with_jackknife(x1: np.ndarray, x2: np.ndarray) -> tuple[float | None, float | None]:
    n = x1.size
    if n < 3:
        return (float(np.cov(x1, x2, ddof=1)[0, 1]) if n == 2 else None), None
    s1, s2, s12 = x1.sum(), x2.sum(), (x1 * x2).sum()
    cov = float((s12 - s1 * s2 / n) / (n - 1))
    loo = (s12 - x1 * x2 - (s1 - x1) * (s2 - x2) / (n - 1)) / (n - 2)
    se = math.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2))
    return cov, float(se)


def run_threshold(plan: TrialPlan):
    """Cherry-picking experiment: keep runs with x >= threshold_multiple * lam.

    No system post-selection happens; the selection acts on the meter record
    alone, yet the kept-run mean exceeds the full-ensemble mean by order one.
    """
    eigenvalues, _, probs = _eigen_arrays(plan.observable, plan.preselect)
    lam = plan.coupling
    threshold = plan.threshold_multiple * lam

    def block(rng: np.random.Generator, out: np.ndarray) -> None:
        n = out.size
        u_branch = rng.random(n)
        z = rng.standard_normal(n)
        x_out, kept_out = out["x"], out["postselected"]
        for tile in _tiles(n):
            x = lam * eigenvalues[_categorical(u_branch[tile], probs)] + z[tile]
            x_out[tile] = x
            kept_out[tile] = x >= threshold

    records = _run_blocks(plan, _DTYPE_ONE, block)
    return records, _basic_stats(records)


def truncated_mean_prediction(
    observable: Observable, coupling: float, psi: PureState, threshold: float
) -> float:
    """Exact E[x | x >= threshold] of the unconditional outcome mixture."""
    _, probs = branch_components(observable, psi)
    mus = coupling * observable.eigensystem.eigenvalues
    tails = np.array([gaussian_upper_tail(threshold - mu) for mu in mus])
    numer = float((probs * (gaussian_density(threshold - mus) + mus * tails)).sum())
    denom = float((probs * tails).sum())
    if denom <= 0.0:
        raise NoPostselectedRuns("threshold leaves zero probability mass")
    return numer / denom


RUNNERS = {
    "single": run_single,
    "kick": run_kick,
    "sequential": run_sequential,
    "threshold": run_threshold,
}


def run_plan(plan: TrialPlan):
    """Dispatch to the protocol runner; returns (records, statistics)."""
    return RUNNERS[plan.protocol](plan)
