"""Shared helpers: Pauli matrices, seeded random setups, hypothesis profile,
and the direct-kernel oracle for the collective x density.

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
