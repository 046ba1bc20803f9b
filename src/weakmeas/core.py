"""Finite-dimensional states, Hermitian observables and weak values.

Everything is dense complex linear algebra on small systems (d <= 16 or so).
All public types are immutable after construction and all operations are pure
functions, so concurrent read access is safe. The lazily computed eigensystem
of an :class:`Observable` is cached with compute-equal semantics: racing
threads recompute the same deterministic decomposition.

Conventions:

* states are unit column vectors of ``complex128``;
* the weak value of ``A`` between preselection ``psi`` and postselection
  ``phi`` is ``<phi|A|psi> / <phi|psi>``;
* eigenvalues closer than ``1e-10 * (spectral_radius + 1)`` are merged into a
  single projector, so degenerate spectra contribute one displacement each.

The eigenbranch kernel works on whole arrays: when nothing merges, the
projectors are one batched outer product of eigh's eigenvectors (merged
groups keep one mean and one matmul each), the images P_i psi are one
stacked matmul, and their norms and the weights <phi|P_i psi> one
``np.vecdot`` each. The results equal those of a loop over eigenvalues and
branches bit for bit.

Each physics precondition has one check; every refusal is a DomainError (exit 3):

* dimensions: :func:`check_dimensions`;
* Hermiticity: ``_check_hermitian``, ``max |M - M^dag| <= HERMITICITY_TOL *
  (max |M_ij| + 1)``, for observables and density matrices;
* resolvable spectrum: :func:`eigendecompose`. With ``E = V^dag V - I`` for
  eigh's eigenvectors V, ``max |E| <= t = PROJECTOR_TOL`` gives ``||E||_2 <=
  d t``, so every entry of ``P_i^2 - P_i``, ``P_i P_j`` (i != j) and ``sum_i
  P_i - I`` is within ``d t (1 + d t)``, 1.6e-9 at d = 16, at any spectral
  scale. The merged eigenvalues must be distinct and the spectral sum must
  reproduce the matrix within the merge tolerance;
* post-selection: :func:`postselection_overlap`, ``|<phi|psi>| > ORTHOGONALITY_TOL``;
* couplings: :func:`weakmeas.protocols.check_couplings`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NotHermitian,
    OrthogonalPostselection,
    ProportionalToIdentity,
    SpectrumUnresolved,
)

HERMITICITY_TOL = 1e-12
ORTHOGONALITY_TOL = 1e-10
STATE_NORM_TOL = 1e-12
PROJECTOR_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIGENVALUE_FLOOR = -1e-10


def _finite_complex_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    arr.setflags(write=False)
    return arr


def eigenvalue_merge_tolerance(spectral_radius: float) -> float:
    """Absolute gap below which two eigenvalues count as degenerate."""
    return 1e-10 * (spectral_radius + 1.0)


def check_dimensions(*operands) -> None:
    """Refuse ``operands`` (states and observables by ``.dim``, arrays by every
    axis) unless they share one system dimension."""
    dims = {n for op in operands for n in (op.shape if isinstance(op, np.ndarray) else (op.dim,))}
    if len(dims) != 1:
        raise DimensionMismatch(f"system dimensions {sorted(dims)} differ")


def _check_hermitian(arr: np.ndarray) -> None:
    tol = HERMITICITY_TOL * (float(np.max(np.abs(arr))) + 1.0)
    dev = float(np.max(np.abs(arr - arr.conj().T)))
    if not dev <= tol:
        raise NotHermitian(f"max |M - M^dag| = {dev:.3e} exceeds {tol:.3e}")


@dataclass(frozen=True)
class PureState:
    """Normalized pure state of a d-dimensional system, d >= 2."""

    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _finite_complex_array(self.amplitudes, "amplitudes")
        if arr.ndim != 1 or arr.shape[0] < 2:
            raise ValueError("state must be a vector of dimension >= 2")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise ValueError(f"state norm {norm!r} differs from 1 beyond {STATE_NORM_TOL}")
        object.__setattr__(self, "amplitudes", arr)

    @classmethod
    def normalized(cls, values) -> "PureState":
        """Build a state from an unnormalized amplitude vector."""
        arr = np.asarray(values, dtype=np.complex128)
        with np.errstate(over="ignore"):  # a squared sum past the float range is rescaled below
            norm = np.linalg.norm(arr)
        if not np.isfinite(norm):  # by the largest real or imaginary part: abs() of an entry can overflow
            arr = arr / np.max(np.abs([arr.real, arr.imag]))
            norm = np.linalg.norm(arr)
        if norm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return cls(arr / norm)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        check_dimensions(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json(self) -> list:
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]


@dataclass(frozen=True)
class EigenSystem:
    """Distinct eigenvalues (ascending) with their orthogonal projectors."""

    eigenvalues: np.ndarray  # (k,) real, read-only
    projectors: np.ndarray  # (k, d, d) complex, read-only

    def reconstruct(self) -> np.ndarray:
        """Spectral sum ``sum_i a_i P_i``."""
        return np.einsum("i,ijk->jk", self.eigenvalues, self.projectors)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with a cached eigendecomposition."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _finite_complex_array(self.matrix, "matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("observable must be a square matrix of dimension >= 2")
        _check_hermitian(arr)
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigensystem(self) -> EigenSystem:
        return eigendecompose(self)

    @property
    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigensystem.eigenvalues)))


def eigendecompose(observable: Observable) -> EigenSystem:
    """Spectral decomposition with degenerate eigenvalues merged (see the
    module docstring), so branch bookkeeping downstream never splits a
    displacement center across numerically equal eigenvalues."""
    vals, vecs = np.linalg.eigh(observable.matrix)
    merge_tol = eigenvalue_merge_tolerance(float(np.max(np.abs(vals))))
    if np.all(np.diff(vals) > merge_tol):
        # nothing merges: every eigenvector is its own rank-one projector
        eigenvalues = vals
        projectors = np.matmul(vecs.T[:, :, None], vecs.T.conj()[:, None, :])
    else:
        groups: list[list[int]] = [[0]]
        for idx in range(1, len(vals)):
            if vals[idx] - vals[groups[-1][0]] <= merge_tol:
                groups[-1].append(idx)
            else:
                groups.append([idx])
        eigenvalues = np.array([float(np.mean(vals[g])) for g in groups])
        projectors = np.stack([vecs[:, g] @ vecs[:, g].conj().T for g in groups])
    system = EigenSystem(eigenvalues, projectors)
    ortho_err = np.max(np.abs(vecs.conj().T @ vecs - np.eye(len(vals))))
    # a merge moves eigenvalues by up to merge_tol; eigh rounds at a few ulps of the radius
    recon_err = np.max(np.abs(system.reconstruct() - observable.matrix))
    checks = {
        f"max |V^dag V - I| = {ortho_err:.3e} exceeds {PROJECTOR_TOL}": ortho_err <= PROJECTOR_TOL,
        "eigenvalues not distinct after merging": np.all(np.diff(eigenvalues) > merge_tol),
        f"reconstruction error {recon_err:.3e} exceeds {merge_tol:.3e}": recon_err <= merge_tol,
    }
    failed = [message for message, ok in checks.items() if not ok]
    if failed:
        raise SpectrumUnresolved("eigendecomposition refused: " + "; ".join(failed))
    eigenvalues.setflags(write=False)
    projectors.setflags(write=False)
    return system


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _finite_complex_array(self.matrix, "matrix")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("density matrix must be square")
        _check_hermitian(arr)
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) > DENSITY_TRACE_TOL:
            raise ValueError(f"trace {tr!r} differs from 1")
        eigs = np.linalg.eigvalsh(arr)
        if np.min(eigs) < DENSITY_EIGENVALUE_FLOOR:
            raise ValueError(f"negative eigenvalue {np.min(eigs):.3e}")
        object.__setattr__(self, "matrix", arr)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def expectation_in(self, state: PureState) -> float:
        """<state| rho |state> (real by Hermiticity)."""
        v = state.amplitudes
        return float(np.real(np.vdot(v, self.matrix @ v)))


@dataclass(frozen=True)
class WeakValueResult:
    """Weak value together with the preselection overlap it divides by."""

    value: complex
    preselect_overlap: complex


def postselection_overlap(psi: PureState, phi: PureState) -> complex:
    """<phi|psi>, refused when the pre- and post-selection are orthogonal."""
    ov = phi.overlap(psi)
    if abs(ov) <= ORTHOGONALITY_TOL:
        raise OrthogonalPostselection(
            f"pre- and post-selected states are orthogonal: "
            f"|<phi|psi>| = {abs(ov):.3e} <= {ORTHOGONALITY_TOL}"
        )
    return ov


def branch_components(observable: Observable, psi: PureState) -> tuple[np.ndarray, np.ndarray]:
    """Projector images P_i psi, shape (k, d), and their squared norms, (k,).

    One row per distinct eigenvalue, in ascending order. Every eigenbranch
    quantity of the package (weights, outcome mixtures, collapsed states,
    the non-selective map) is built from these.
    """
    check_dimensions(observable, psi)
    images = observable.eigensystem.projectors @ psi.amplitudes
    # copied out of the complex result: callers reduce the norms as the
    # contiguous array the per-branch loop returned
    return images, np.vecdot(images, images).real.copy()


def branch_weights(observable: Observable, psi: PureState, phi: PureState) -> np.ndarray:
    """Eigenbranch weights w_i = <phi|P_i|psi>, one per distinct eigenvalue."""
    check_dimensions(observable, phi)
    images, _ = branch_components(observable, psi)
    return np.vecdot(phi.amplitudes, images)


def matrix_weak_value(matrix: np.ndarray, psi: PureState, phi: PureState) -> complex:
    """Generalized weak value <phi|M|psi> / <phi|psi> for any square M."""
    m = np.asarray(matrix, dtype=np.complex128)
    check_dimensions(m, psi)
    ov = postselection_overlap(psi, phi)
    return complex(np.vdot(phi.amplitudes, m @ psi.amplitudes) / ov)


def weak_value(observable: Observable, psi: PureState, phi: PureState) -> WeakValueResult:
    """Weak value of a Hermitian observable between psi and phi."""
    check_dimensions(observable, psi)
    ov = postselection_overlap(psi, phi)
    val = complex(np.vdot(phi.amplitudes, observable.matrix @ psi.amplitudes) / ov)
    return WeakValueResult(value=val, preselect_overlap=ov)


def expectation(observable: Observable, psi: PureState) -> float:
    """Ordinary expectation value <psi|A|psi>, returned as a real number."""
    check_dimensions(observable, psi)
    val = complex(np.vdot(psi.amplitudes, observable.matrix @ psi.amplitudes))
    return float(val.real)


@dataclass(frozen=True)
class AnomalousPair:
    """Pre/post-selection pair engineered for an anomalous weak value.

    ``postselect_prob`` is the unperturbed success probability |<phi|psi>|^2
    (= epsilon^2); it shrinks quadratically as the anomaly grows, and the
    trade-off is reported rather than policed.
    """

    psi: PureState
    phi: PureState
    perp: PureState
    weak_value: complex
    postselect_prob: float


def _candidate_states(dim: int):
    for j in range(dim):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[j] = 1.0
        yield PureState(vec)
    yield PureState.normalized(np.ones(dim, dtype=np.complex128))


def anomalous_pair(observable: Observable, epsilon: float, target: str = "re") -> AnomalousPair:
    """Construct (psi, phi) whose weak value has an anomalous Re or Im part.

    Takes psi from a fixed candidate list (computational basis states, then
    the uniform superposition), picks the component of ``A psi`` orthogonal to
    psi as ``perp`` (phase-rotated so ``<perp|A|psi> > 0``) and sets::

        phi = sqrt(1 - eps^2) * perp + eps * psi          (target 're')
        phi = -1j * sqrt(1 - eps^2) * perp + eps * psi    (target 'im')

    so that the targeted part of the weak value equals
    ``sqrt(1-eps^2)/eps * <perp|A|psi>``, positive and of order 1/eps.
    """
    if target not in ("re", "im"):
        raise ValueError("target must be 're' or 'im'")
    if not (0.0 < abs(epsilon) <= 1.0):
        raise DomainError(f"epsilon must satisfy 0 < |epsilon| <= 1, got {epsilon!r}")
    psi = perp = None
    for candidate in _candidate_states(observable.dim):
        image = observable.matrix @ candidate.amplitudes
        residual = image - np.vdot(candidate.amplitudes, image) * candidate.amplitudes
        res_norm = np.linalg.norm(residual)
        if res_norm > 1e-8 * (observable.spectral_radius + 1.0):
            psi = candidate
            perp_vec = residual / res_norm
            coupling = complex(np.vdot(perp_vec, image))
            # rotate perp so <perp|A|psi> is real positive
            perp = PureState(perp_vec * np.exp(1j * np.angle(coupling)))
            break
    if psi is None:  # every candidate is an eigenvector to 1e-8 of the scale
        raise ProportionalToIdentity("observable is proportional to the identity")

    s = np.sqrt(1.0 - epsilon * epsilon)
    perp_coeff = s if target == "re" else -1j * s
    phi = PureState.normalized(perp_coeff * perp.amplitudes + epsilon * psi.amplitudes)
    wv = weak_value(observable, psi, phi)
    return AnomalousPair(
        psi=psi,
        phi=phi,
        perp=perp,
        weak_value=wv.value,
        postselect_prob=float(abs(wv.preselect_overlap) ** 2),
    )
