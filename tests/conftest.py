"""Shared helpers: Pauli matrices, seeded random setups, hypothesis profile,
and the test oracles: the pairwise projector checks of an eigensystem, the
per-group eigensystem and per-branch images and weights, the
direct-kernel and the single-setup chirp-z collective x density, the
complex-amplitude single and kick, the untiled threshold and the
projector-stack sequential Monte Carlo records, the branch-sum sequential
closed forms, the x'-to-x basis change, the collapsed system state, the
grid CDF of a meter density, the dense Kraus family with its completeness
residual, the dense-Kraus error term and the stacked GDI maximum; and
``run_python``, a fresh interpreter that imports the package under test.

Random observables are normalized to unit spectral radius and random
pre/post-selection pairs are resampled until |<phi|psi>| >= 0.25, keeping
weak values O(1) and post-selection well conditioned.

Every hypothesis test runs under one profile: derandomized, with no example
database and no deadline, so each run of the suite draws the same examples.
"""

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import weakmeas
from weakmeas.collective import CollectiveSetup
from weakmeas.core import EigenSystem, Observable, PureState, branch_components, branch_weights, eigenvalue_merge_tolerance
from weakmeas.errors import BasisMismatch, ZeroProbabilityOutcome
from weakmeas.lindblad import GAUSS_LEGENDRE_NODES, MAX_ERROR_GRID_POINTS, gauss_legendre, integration_interval
from weakmeas.montecarlo import (
    BLOCK_SIZE,
    TrialPlan,
    _DTYPE_ONE,
    _DTYPE_TWO,
    _categorical,
)
from weakmeas.pointer import (
    BASIS_X,
    BASIS_XPRIME,
    WAVEFUNCTION_NORM,
    MeterState,
    gaussian_density,
    gaussian_upper_tail,
    stream_rng,
)
from weakmeas.protocols import BRANCH_HALFWIDTH, MeasurementSetup, SequentialSetup

settings.register_profile("weakmeas", derandomize=True, database=None, deadline=None)
settings.load_profile("weakmeas")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
# eigenvalues 0 and 0.95t merge, 1.05t does not, and the merged mean 0.475t lies
# within t = 1e-10 * (radius + 1) of 1.05t: no merged spectrum is distinct
UNRESOLVED_SPECTRUM = np.diag([-1.0, 0.0, 1.9e-10, 2.1e-10]).astype(complex)


def random_state(rng: np.random.Generator, dim: int) -> PureState:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState.normalized(vec)


def random_observable(rng: np.random.Generator, dim: int) -> Observable:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2.0
    radius = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    return Observable(h / radius)


def degenerate_observable(
    rng: np.random.Generator, dim: int, levels: int, scale: float = 1.0, basis=None
) -> Observable:
    """`levels` distinct eigenvalues in [-scale, scale], each at least once:
    rank-1 eigenspaces at levels = dim, a multiple of the identity at
    levels = 1. The eigenbasis is random unless a unitary `basis` is given,
    so that observables built on one basis commute."""
    values = scale * np.sort(rng.uniform(-1.0, 1.0, levels))
    level_of = np.r_[np.arange(levels), rng.integers(levels, size=dim - levels)]
    spectrum = values[rng.permutation(level_of)]
    if basis is None:
        basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    obs = Observable((basis * spectrum) @ basis.conj().T)
    assert obs.eigensystem.eigenvalues.size == levels
    return obs


def random_selection_pair(
    rng: np.random.Generator, dim: int, min_overlap: float = 0.25
) -> tuple[PureState, PureState]:
    while True:
        psi, phi = random_state(rng, dim), random_state(rng, dim)
        if abs(phi.overlap(psi)) >= min_overlap:
            return psi, phi


def projector_defects(system: EigenSystem) -> dict:
    """Largest entry of each defect the eigenvector check in ``eigendecompose``
    bounds, by k(k+1)/2 pairwise products: ``P_i^2 - P_i``, ``P_i P_j``
    (i < j) and ``sum_i P_i - I``."""
    projs = system.projectors
    k, d, _ = projs.shape
    defects = {"idempotent": 0.0, "orthogonal": 0.0}
    for i in range(k):
        for j in range(i, k):
            kind, target = ("idempotent", projs[i]) if i == j else ("orthogonal", 0.0)
            defects[kind] = max(defects[kind], np.max(np.abs(projs[i] @ projs[j] - target)))
    defects["complete"] = np.max(np.abs(projs.sum(axis=0) - np.eye(d)))
    return defects


def loop_eigensystem(observable: Observable) -> tuple[np.ndarray, np.ndarray]:
    """Merged eigenvalues and projectors built one group at a time: eigh's
    eigenvalues grouped within the merge tolerance of each group's first, then
    the ``np.mean`` and ``V_g V_g^dag`` of every group."""
    vals, vecs = np.linalg.eigh(observable.matrix)
    merge_tol = eigenvalue_merge_tolerance(float(np.max(np.abs(vals))))
    groups: list[list[int]] = [[0]]
    for idx in range(1, len(vals)):
        if vals[idx] - vals[groups[-1][0]] <= merge_tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    eigenvalues = np.array([float(np.mean(vals[g])) for g in groups])
    projectors = np.stack([vecs[:, g] @ vecs[:, g].conj().T for g in groups])
    return eigenvalues, projectors


def loop_branch_components(observable: Observable, psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Projector images P_i psi and their squared norms, one ``vdot`` per branch."""
    images = np.stack([p @ psi.amplitudes for p in observable.eigensystem.projectors])
    return images, np.array([float(np.vdot(c, c).real) for c in images])


def loop_branch_weights(observable: Observable, psi: PureState, phi: PureState) -> np.ndarray:
    """<phi|P_i|psi>, one ``vdot`` per branch."""
    images, _ = loop_branch_components(observable, psi)
    return np.array([complex(np.vdot(phi.amplitudes, c)) for c in images])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def direct_x_density(cs: CollectiveSetup, xs) -> np.ndarray:
    """The collective x density as the plain Fourier sum over the x' grid:
    a len(xs) x grid-size kernel, for any xs, even or not."""
    prof = cs._profile
    kernel = np.exp(0.5j * np.outer(np.atleast_1d(xs), prof.grid))
    step = prof.grid[1] - prof.grid[0]
    amp = kernel @ prof.amplitude * step / math.sqrt(4.0 * math.pi)
    return (amp.real**2 + amp.imag**2) / prof.norm


def single_x_synthesis_density(cs: CollectiveSetup, x: np.ndarray) -> np.ndarray:
    """The collective x density by one chirp-z transform that builds its own
    pre-chirp and chirp spectrum for this one setup and evenly spaced x."""
    prof = cs._profile
    m, n = x.size, prof.grid.size
    j = np.arange(m) - 0.5 * (m - 1)
    k = np.arange(n) - 0.5 * (n - 1)
    x_c = 0.5 * (x[0] + x[-1])
    dx = (x[-1] - x[0]) / max(m - 1, 1)
    dg = (prof.grid[-1] - prof.grid[0]) / (n - 1)
    a = 0.5 * dx * dg
    size = 1 << (n + m - 2).bit_length()
    chirped = np.fft.fft(prof.amplitude * np.exp(0.5j * (x_c * dg * k + a * k * k)), size)
    j_minus_k = np.arange(1 - n, m) + 0.5 * (n - m)
    chirp = np.fft.fft(np.exp(-0.5j * a * j_minus_k * j_minus_k), size)
    amp = np.fft.ifft(chirped * chirp)[n - 1 : n - 1 + m] * dg / math.sqrt(4.0 * math.pi)
    return (amp.real**2 + amp.imag**2) / prof.norm


def plan_branches(plan: TrialPlan):
    """Eigenvalues of the plan's first observable, the images P_i psi with
    their squared norms, and with a post-selection the weights <phi|P_i|psi>
    as the matmul ``comps @ conj(phi)``, formed apart from
    ``core.branch_weights`` so the oracles stay an independent reference."""
    comps, probs = branch_components(plan.observable, plan.preselect)
    w_phi = None if plan.postselect is None else comps @ np.conj(plan.postselect.amplitudes)
    return plan.observable.eigensystem.eigenvalues, comps, probs, w_phi


def _row_categorical(u: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Per-row categorical draw: probs has shape (n, k), u shape (n,)."""
    cdf = np.cumsum(probs, axis=1)
    cdf /= cdf[:, -1][:, None]
    return (u[:, None] > cdf).sum(axis=1).clip(0, probs.shape[1] - 1)


def complex_single(plan: TrialPlan) -> np.ndarray:
    """Single-protocol records from the normalized Gaussians: an (n, k)
    complex product sqrt(G) @ <phi|P_i|psi> for the amplitude, divided by
    P(x) = G @ p for the acceptance, and the branch drawn by
    ``np.searchsorted`` on the CDF. Draws as the runner does."""
    eigenvalues, _, probs, w_phi = plan_branches(plan)
    lam = plan.coupling
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    parts = []
    for b, start in enumerate(range(0, plan.trials, BLOCK_SIZE)):
        rng, n = stream_rng(plan.seed, b), min(BLOCK_SIZE, plan.trials - start)
        u_branch = rng.random(n)
        z = rng.standard_normal(n)
        u_accept = rng.random(n)
        branch = np.searchsorted(cdf, u_branch, side="right").clip(0, probs.size - 1)
        x = lam * eigenvalues[branch] + z
        g = gaussian_density(x[:, None] - lam * eigenvalues)
        amp = np.sqrt(g) @ w_phi
        out = np.empty(n, dtype=_DTYPE_ONE)
        out["x"] = x
        out["postselected"] = u_accept < (amp.real**2 + amp.imag**2) / (g @ probs)
        parts.append(out)
    return np.concatenate(parts)


def complex_kick(plan: TrialPlan) -> np.ndarray:
    """Kick-protocol records from the complex exponential of the (n, k) outer
    product: amplitude exp(-i lam x' a / 2) @ <phi|P_i|psi>. Draws as the
    runner does."""
    eigenvalues, _, _, w_phi = plan_branches(plan)
    parts = []
    for b, start in enumerate(range(0, plan.trials, BLOCK_SIZE)):
        rng, n = stream_rng(plan.seed, b), min(BLOCK_SIZE, plan.trials - start)
        xp = rng.standard_normal(n)
        u_accept = rng.random(n)
        amp = np.exp(-0.5j * plan.coupling * np.outer(xp, eigenvalues)) @ w_phi
        out = np.empty(n, dtype=_DTYPE_ONE)
        out["x"] = xp
        out["postselected"] = u_accept < amp.real**2 + amp.imag**2
        parts.append(out)
    return np.concatenate(parts)


def untiled_threshold(plan: TrialPlan) -> np.ndarray:
    """Threshold-protocol records from one pass over each whole block: the
    branch drawn by ``np.searchsorted`` on the CDF, and a run kept when
    x >= threshold_multiple * lam. Draws as the runner does."""
    eigenvalues, _, probs, _ = plan_branches(plan)
    lam = plan.coupling
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    parts = []
    for b, start in enumerate(range(0, plan.trials, BLOCK_SIZE)):
        rng, n = stream_rng(plan.seed, b), min(BLOCK_SIZE, plan.trials - start)
        u_branch = rng.random(n)
        z = rng.standard_normal(n)
        branch = np.searchsorted(cdf, u_branch, side="right").clip(0, probs.size - 1)
        out = np.empty(n, dtype=_DTYPE_ONE)
        out["x"] = lam * eigenvalues[branch] + z
        out["postselected"] = out["x"] >= plan.threshold_multiple * lam
        parts.append(out)
    return np.concatenate(parts)


def projector_stack_sequential(plan: TrialPlan) -> np.ndarray:
    """Sequential-protocol records with the collapse written out in the
    system basis: chi1 normalized, then a (k2, n, d) stack of its images
    P_j chi1. Draws as the runner does: block b of BLOCK_SIZE trials from
    stream_rng(seed, b), five draws in a fixed order."""
    a_vals, comps_a, probs_a, _ = plan_branches(plan)
    b_system = plan.second_observable.eigensystem
    b_vals, b_projs = b_system.eigenvalues, b_system.projectors
    lam1, lam2 = plan.coupling, plan.second_coupling
    phi = np.conj(plan.postselect.amplitudes)
    parts = []
    for b, start in enumerate(range(0, plan.trials, BLOCK_SIZE)):
        rng, n = stream_rng(plan.seed, b), min(BLOCK_SIZE, plan.trials - start)
        u1 = rng.random(n)
        z1 = rng.standard_normal(n)
        u2 = rng.random(n)
        z2 = rng.standard_normal(n)
        u3 = rng.random(n)

        branch1 = _categorical(u1, probs_a)
        x1 = lam1 * a_vals[branch1] + z1
        g1 = gaussian_density(x1[:, None] - lam1 * a_vals)
        chi1 = np.sqrt(g1) @ comps_a
        chi1 /= np.linalg.norm(chi1, axis=1)[:, None]

        proj_images = np.stack([chi1 @ p.T for p in b_projs])  # (k2, n, d)
        q = np.real(np.einsum("jnd,jnd->nj", np.conj(proj_images), proj_images))
        branch2 = _row_categorical(u2, q)
        x2 = lam2 * b_vals[branch2] + z2
        g2 = gaussian_density(x2[:, None] - lam2 * b_vals)
        chi2 = np.einsum("nj,jnd->nd", np.sqrt(g2), proj_images)
        p2 = np.einsum("nj,nj->n", g2, q)

        amp = chi2 @ phi
        p_acc = (amp.real**2 + amp.imag**2) / p2
        out = np.empty(n, dtype=_DTYPE_TWO)
        out["x"] = x1
        out["x2"] = x2
        out["postselected"] = u3 < p_acc
        parts.append(out)
    return np.concatenate(parts)


def branch_sum_sequential(sq: SequentialSetup, x1, x2) -> dict:
    """The sequential closed forms summed over pairs of joint branches.

    Joint branch (i, j) has system vector Q_j P_i psi and meter centers
    (lam1 a_i, lam2 b_j); its post-selected weight is <phi|Q_j P_i|psi>.
    Each x' meter goes through (w, c, k) -> (w e^{ikc}, 2k, -c/2), and one
    (T, T) Gaussian pair kernel is summed over all T = k_A k_B branches.
    Returns the post-selection probability, both means, E[x1 x2] and the
    normalized density on the outer grid x1 x x2."""
    first, second = sq.first.eigensystem, sq.second.eigensystem
    w = np.array(
        [
            np.vdot(sq.postselect.amplitudes, q @ (p @ sq.preselect.amplitudes))
            for p in first.projectors
            for q in second.projectors
        ]
    )
    c = np.array(
        [
            (sq.first_coupling * a, sq.second_coupling * b)
            for a in first.eigenvalues
            for b in second.eigenvalues
        ]
    )
    k = np.zeros_like(c)
    for mu, basis in enumerate(sq.meter_bases):
        if basis == BASIS_XPRIME:
            w = w * np.exp(1j * k[:, mu] * c[:, mu])
            c[:, mu], k[:, mu] = 2.0 * k[:, mu], -c[:, mu] / 2.0
    pair = np.conj(w)[:, None] * w[None, :]
    polys, factors = [], []
    for mu, x in enumerate((x1, x2)):
        cm, km = c[:, mu], k[:, mu]
        dc = cm[:, None] - cm[None, :]
        dk = km[None, :] - km[:, None]
        m = (cm[:, None] + cm[None, :]) / 2.0
        pair = pair * np.exp(-(dc * dc) / 8.0 + 1j * dk * m - (dk * dk) / 2.0)
        polys.append(m + 1j * dk)
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        factors.append(
            np.exp(1j * np.outer(x, km)) * WAVEFUNCTION_NORM * np.exp(-((x[:, None] - cm[None, :]) ** 2) / 4.0)
        )
    prob = pair.sum().real
    amp = np.einsum("it,jt,t->ij", factors[0], factors[1], w)
    return {
        "probability": prob,
        "means": tuple((pair * p).sum().real / prob for p in polys),
        "cross_moment": (pair * polys[0] * polys[1]).sum().real / prob,
        "density": (amp.real**2 + amp.imag**2) / prob,
    }


def to_x_basis(w: MeterState) -> MeterState:
    """Inverse of a one-meter MeterState.to_xprime: (w, c, k) -> (w e^{ikc}, -2k, c/2)."""
    if w.bases != (BASIS_XPRIME,):
        raise BasisMismatch("meter state is not one meter in the x' basis")
    (c,), (k,) = w.centers, w.phase_slopes
    return MeterState(w.weights * np.exp(1j * k * c), (-2.0 * k,), (c / 2.0,), (BASIS_X,))


def conditional_system_state(observable: Observable, coupling: float, psi: PureState, x: float) -> PureState:
    """System state after the meter reads x, normalized: the collapse that
    montecarlo draws from inline, written out in the system basis."""
    comps, weights = branch_components(observable, psi)
    gx = gaussian_density(x - coupling * observable.eigensystem.eigenvalues)
    prob = float(weights @ gx)
    if prob <= 0.0:
        raise ZeroProbabilityOutcome(f"P(x={x}) vanishes; conditional state undefined")
    return PureState.normalized((np.sqrt(gx) @ comps) / math.sqrt(prob))


CDF_HALFWIDTH = 10.0  # grid margin beyond the outermost term center
CDF_POINTS = 16384
CDF_TAIL_TOL = 1e-9  # envelope bound on the mass outside the grid, relative


def _tail_mass_bound(w: MeterState, lo: float, hi: float) -> float:
    # Cauchy-Schwarz envelope: |psi|^2 <= (sum|w|) * sum |w_t| G(x - c_t)
    absw = np.abs(w.weights)
    tails = np.array([gaussian_upper_tail(c_t - lo) + gaussian_upper_tail(hi - c_t) for c_t in w.centers[0]])
    return float(absw.sum() * (absw * tails).sum())


def cumulative_distribution(w: MeterState) -> tuple[np.ndarray, np.ndarray]:
    """Grid and trapezoid CDF of the density of the one-meter state ``w``, 1 at the right edge.

    The grid spans the term centers plus CDF_HALFWIDTH on each side; the
    envelope bound on the mass outside it must stay below CDF_TAIL_TOL."""
    (c,) = w.centers
    grid = np.linspace(float(np.min(c)) - CDF_HALFWIDTH, float(np.max(c)) + CDF_HALFWIDTH, CDF_POINTS)
    pdf = w.density(grid)
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid))))
    tail = _tail_mass_bound(w, grid[0], grid[-1]) / w.squared_norm()
    assert tail <= CDF_TAIL_TOL, f"tail mass bound {tail:.3e} outside the CDF grid"
    return grid, cdf / cdf[-1]


@dataclass(frozen=True)
class KrausFamily:
    """Outcome-indexed measurement operators of the pointer readout."""

    observable: Observable
    coupling: float

    def at_many(self, xs) -> np.ndarray:
        """M_x = sum_i sqrt(G(x - lam a_i)) P_i over an outcome array, shape
        (len(xs), d, d)."""
        system = self.observable.eigensystem
        xs = np.asarray(xs, dtype=np.float64)
        amp = np.sqrt(gaussian_density(xs[:, None] - self.coupling * system.eigenvalues))
        k, d, _ = system.projectors.shape
        return (amp @ system.projectors.reshape(k, d * d)).reshape(len(xs), d, d)


def dense_error_term_density(observable: Observable, coupling: float, psi: PureState, phi: PureState, xs) -> np.ndarray:
    """<psi| L[M_x](|phi><phi|) |psi> from the dense Kraus operators.

    With O = |phi><phi| the super-operator expands to
    |<phi|M psi>|^2 - Re(<psi|phi><M phi|M psi>), so each M_x is applied to
    the two vectors. An O(lam^2) difference of O(1) densities: it loses
    about 1e-16 / lam^2 of the largest |error| to cancellation."""
    m = KrausFamily(observable, coupling).at_many(np.atleast_1d(xs))
    m_psi = m @ psi.amplitudes
    m_phi = m @ phi.amplitudes
    outcome = m_psi @ np.conj(phi.amplitudes)
    cross = np.sum(np.conj(m_phi) * m_psi, axis=1) * psi.overlap(phi)
    return outcome.real**2 + outcome.imag**2 - cross.real


def stacked_max_abs_error(setup: MeasurementSetup, points: int = MAX_ERROR_GRID_POINTS) -> float:
    """The GDI maximum |joint - pw| with every branch window in one
    (k, points, k) stack of e_i, as the package evaluated it before it went
    through the windows a bounded batch at a time."""
    w = branch_weights(setup.observable, setup.preselect, setup.postselect)
    mu = setup.coupling * setup.observable.eigensystem.eigenvalues
    offsets = np.linspace(-BRANCH_HALFWIDTH, BRANCH_HALFWIDTH, points)
    gap = (mu[None, :] - mu[:, None])[:, None, :]  # [r, ., i]: mu_i - mu_r
    e = np.expm1(gap * (2.0 * offsets[None, :, None] - gap) / 4.0)  # [r, x, i]
    amp = e @ w
    bracket = (e * e) @ (np.conj(w) * w.sum()).real - (amp.real**2 + amp.imag**2)
    return float(np.max(np.abs(gaussian_density(offsets) * bracket)))


def completeness_residual(family: KrausFamily, nodes: int = GAUSS_LEGENDRE_NODES) -> float:
    """max |Int M_x^dag M_x dx - 1| elementwise, by quadrature.

    One Gauss-Legendre rule over ``integration_interval``. The default 400
    nodes resolve it for lam * spectral_radius <= 100: over 200 random
    observables with d in [2, 16] the worst residual is 4e-12 there, 9e-9 at
    120 and 1e-6 at 140. Past about 150 the unit-width branch Gaussians fall
    between the nodes and the residual grows to O(1)."""
    lo, hi = integration_interval(family.observable, family.coupling)
    xs, wts = gauss_legendre(lo, hi, nodes)
    m = family.at_many(xs)
    gram = np.einsum("n,nji,njk->ik", wts, np.conj(m), m)
    return float(np.max(np.abs(gram - np.eye(family.observable.dim))))


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter that imports the ``weakmeas``
    these tests import, with ``env`` added to its environment; text output
    captured."""
    env = {**os.environ, "PYTHONPATH": str(Path(weakmeas.__file__).parents[1]), **env}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)
