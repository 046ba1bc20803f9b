"""Shared helpers: Pauli matrices, seeded random setups, hypothesis profile,
the direct-kernel oracle for the collective x density, the projector-stack
oracle for the sequential Monte Carlo records and the branch-sum oracle for
the sequential closed forms.

Random observables are normalized to unit spectral radius and random
pre/post-selection pairs are resampled until |<phi|psi>| >= 0.25, keeping
weak values O(1) and post-selection well conditioned.

Every hypothesis test runs under one profile: derandomized, with no example
database and no deadline, so each run of the suite draws the same examples.
"""

import math

import numpy as np
import pytest
from hypothesis import settings

from weakmeas.collective import CollectiveSetup
from weakmeas.core import Observable, PureState
from weakmeas.montecarlo import (
    BLOCK_SIZE,
    TrialPlan,
    _DTYPE_TWO,
    _categorical,
    _eigen_arrays,
    _row_categorical,
)
from weakmeas.pointer import BASIS_XPRIME, WAVEFUNCTION_NORM, gaussian_density, stream_rng
from weakmeas.protocols import SequentialSetup, apply_von_neumann, initial_joint_state

settings.register_profile("weakmeas", derandomize=True, database=None, deadline=None)
settings.load_profile("weakmeas")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


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


def projector_stack_sequential(plan: TrialPlan) -> np.ndarray:
    """Sequential-protocol records with the collapse written out in the
    system basis: chi1 normalized, then a (k2, n, d) stack of its images
    P_j chi1. Draws as the runner does: block b of BLOCK_SIZE trials from
    stream_rng(seed, b), five draws in a fixed order."""
    a_vals, comps_a, probs_a = _eigen_arrays(plan.observable, plan.preselect.amplitudes)
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

    Builds the JointState of both couplings, post-selects it branch by
    branch, takes each x' meter through (w, c, k) -> (w e^{ikc}, 2k, -c/2)
    and sums one (T, T) Gaussian pair kernel over all T branches. Returns the
    post-selection probability, both means, E[x1 x2] and the normalized
    density on the outer grid x1 x x2."""
    js = initial_joint_state(sq.preselect, meter_count=2)
    js = apply_von_neumann(js, sq.first, sq.first_coupling, meter=0)
    js = apply_von_neumann(js, sq.second, sq.second_coupling, meter=1)
    w = np.array(
        [
            b.amplitude * complex(np.vdot(sq.postselect.amplitudes, js.system_vectors[b.vector_index]))
            for b in js.branches
        ]
    )
    c = np.array([b.centers for b in js.branches], dtype=np.float64)
    k = np.array([b.phase_slopes for b in js.branches], dtype=np.float64)
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
