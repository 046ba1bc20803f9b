"""States, observables, eigensystems, weak values, anomalous pairs."""

import math

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import (
    SX,
    SY,
    SZ,
    UNRESOLVED_SPECTRUM,
    degenerate_observable,
    loop_branch_components,
    loop_branch_weights,
    loop_eigensystem,
    projector_defects,
    random_observable,
    random_selection_pair,
    random_state,
)
from weakmeas.core import (
    PROJECTOR_TOL,
    DensityMatrix,
    Observable,
    PureState,
    anomalous_pair,
    branch_components,
    branch_weights,
    eigendecompose,
    expectation,
    matrix_weak_value,
    weak_value,
)
from weakmeas.errors import (
    DomainError,
    NotHermitian,
    OrthogonalPostselection,
    ProportionalToIdentity,
    SpectrumUnresolved,
)


def qubit_eigensystem_oracle(h: np.ndarray):
    """2x2 Hermitian eigensystem from the characteristic polynomial."""
    a, b = h[0, 0].real, h[0, 1]
    d = h[1, 1].real
    mid = (a + d) / 2.0
    rad = math.sqrt(((a - d) / 2.0) ** 2 + abs(b) ** 2)
    lo, hi = mid - rad, mid + rad
    ident = np.eye(2)
    p_hi = (h - lo * ident) / (hi - lo)
    p_lo = ident - p_hi
    return (lo, hi), (p_lo, p_hi)


class TestEigendecompose:
    def test_sigma_z_diagonal(self):
        system = eigendecompose(Observable(SZ))
        assert np.allclose(system.eigenvalues, [-1.0, 1.0])
        assert np.allclose(system.projectors[0], np.diag([0.0, 1.0]))
        assert np.allclose(system.projectors[1], np.diag([1.0, 0.0]))

    def test_identity_merges_to_single_projector(self):
        system = eigendecompose(Observable(np.eye(2, dtype=complex)))
        assert len(system.eigenvalues) == 1
        assert system.eigenvalues[0] == pytest.approx(1.0)
        assert np.allclose(system.projectors[0], np.eye(2))

    def test_sigma_x_against_characteristic_polynomial(self):
        system = eigendecompose(Observable(SX))
        (lo, hi), (p_lo, p_hi) = qubit_eigensystem_oracle(SX)
        assert system.eigenvalues == pytest.approx([lo, hi])
        assert np.allclose(system.projectors[0], p_lo, atol=1e-12)
        assert np.allclose(system.projectors[1], p_hi, atol=1e-12)

    def test_random_qubits_against_characteristic_polynomial(self, rng):
        for _ in range(10):
            h = random_observable(rng, 2).matrix
            system = eigendecompose(Observable(h))
            (lo, hi), (p_lo, p_hi) = qubit_eigensystem_oracle(h)
            assert system.eigenvalues == pytest.approx([lo, hi], abs=1e-10)
            assert np.allclose(system.projectors[0], p_lo, atol=1e-9)
            assert np.allclose(system.projectors[1], p_hi, atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 3, 4, 8])
    def test_projector_algebra_random(self, rng, dim):
        system = random_observable(rng, dim).eigensystem
        projs = system.projectors
        assert np.max(np.abs(projs.sum(axis=0) - np.eye(dim))) < 1e-10
        for i in range(len(projs)):
            for j in range(len(projs)):
                target = projs[i] if i == j else np.zeros((dim, dim))
                assert np.max(np.abs(projs[i] @ projs[j] - target)) < 1e-10
        recon = system.reconstruct()
        assert np.max(np.abs(recon - system.reconstruct())) == 0.0

    def test_degenerate_spectrum_merges(self, rng):
        diag = np.diag([1.0, 1.0, 2.0]).astype(complex)
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        q, _ = np.linalg.qr(m)
        system = eigendecompose(Observable(q @ diag @ q.conj().T))
        assert len(system.eigenvalues) == 2
        assert system.eigenvalues == pytest.approx([1.0, 2.0])
        assert np.trace(system.projectors[0]).real == pytest.approx(2.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            Observable(np.array([[0, 1], [2, 0]], dtype=complex))

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e5, 1e8])
    def test_hermiticity_tolerance_scales_with_the_matrix(self, scale):
        # 1e-12 * (max |M_ij| + 1): half of it passes, twice it is refused
        tol = 1e-12 * (scale + 1.0)
        for factor, accepted in ((0.5, True), (2.0, False)):
            m = scale * SX + np.array([[0.0, factor * tol], [0.0, 0.0]])
            if accepted:
                Observable(m)
            else:
                with pytest.raises(NotHermitian):
                    Observable(m)

    def test_eigensystem_cache_idempotent(self):
        obs = Observable(SX)
        assert obs.eigensystem is obs.eigensystem


def one_large_group_observable(rng: np.random.Generator, dim: int, size: int) -> Observable:
    """Random eigenbasis; ``size`` equal eigenvalues, the other dim - size apart."""
    values = np.sort(rng.uniform(-1.0, 1.0, dim - size + 1))
    spectrum = rng.permutation(np.r_[np.full(size - 1, values[0]), values])
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return Observable((basis * spectrum) @ basis.conj().T)


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestArrayKernel:
    """The array-at-once eigenbranch kernel equals the per-group and
    per-branch loops bit for bit."""

    @settings(max_examples=300)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        spectrum=st.sampled_from(["random", "degenerate", "one large group"]),
        data=st.data(),
    )
    def test_matches_the_loops(self, seed, dim, spectrum, data):
        rng = np.random.default_rng(seed)
        if spectrum == "random":
            obs = random_observable(rng, dim)
        elif spectrum == "degenerate":
            obs = degenerate_observable(rng, dim, data.draw(st.integers(1, dim), label="levels"))
        else:  # np.mean sums 8 or more values pairwise
            dim = max(dim, 8)
            size = data.draw(st.integers(8, dim), label="size")
            obs = one_large_group_observable(rng, dim, size)
            assert obs.eigensystem.eigenvalues.size == dim - size + 1
        system = eigendecompose(obs)
        eigenvalues, projectors = loop_eigensystem(obs)
        assert same_bits(system.eigenvalues, eigenvalues)
        assert same_bits(system.projectors, projectors)
        psi, phi = random_selection_pair(rng, dim)
        for got, want in zip(branch_components(obs, psi), loop_branch_components(obs, psi)):
            assert same_bits(got, want)
        assert same_bits(branch_weights(obs, psi, phi), loop_branch_weights(obs, psi, phi))


class TestSpectralScale:
    @settings(max_examples=60)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        log_scale=st.floats(5.0, 8.0),
        data=st.data(),
    )
    def test_large_scale_decomposes(self, seed, dim, log_scale, data):
        rng = np.random.default_rng(seed)
        levels = data.draw(st.integers(1, dim))
        m = degenerate_observable(rng, dim, levels).matrix * 10.0**log_scale
        obs = Observable((m + m.conj().T) / 2.0)  # Hermitian to the last bit
        system = eigendecompose(obs)
        assert system.eigenvalues.size == levels
        radius = obs.spectral_radius
        # the check allows 1e-10 * (radius + 1); eigh lands within a few ulps
        assert np.max(np.abs(system.reconstruct() - obs.matrix)) <= 1e-13 * radius

    @settings(max_examples=80)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 16),
        log_scale=st.floats(-6.0, 8.0),
        degenerate=st.booleans(),
        data=st.data(),
    )
    def test_decompositions_pass_the_pairwise_oracle(self, seed, dim, log_scale, degenerate, data):
        # degenerate_observable builds (V * a) @ V^dag without symmetrising
        rng = np.random.default_rng(seed)
        levels = data.draw(st.integers(1, dim), label="levels") if degenerate else dim
        obs = degenerate_observable(rng, dim, levels, 10.0**log_scale)
        defects = projector_defects(eigendecompose(obs))
        assert max(defects.values()) <= PROJECTOR_TOL, defects

    def test_random_d16_at_1e8_decomposes(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            eigendecompose(Observable(random_observable(rng, 16).matrix * 1e8))

    def test_unresolved_spectrum_is_a_domain_error(self):
        with pytest.raises(SpectrumUnresolved, match="not distinct"):
            eigendecompose(Observable(UNRESOLVED_SPECTRUM))
        assert issubclass(SpectrumUnresolved, DomainError)


class TestWeakValue:
    def test_eigenstate_gives_eigenvalue(self):
        psi = PureState(np.array([1, 0], dtype=complex))
        wv = weak_value(Observable(SZ), psi, psi)
        assert wv.value == pytest.approx(1.0 + 0.0j)

    def test_sigma_x_complex_postselection(self):
        psi = PureState(np.array([1, 0], dtype=complex))
        phi = PureState(np.array([1, 1j]) / math.sqrt(2))
        wv = weak_value(Observable(SX), psi, phi)
        assert wv.value == pytest.approx(-1j, abs=1e-14)

    def test_anomalous_footnote_closed_form(self):
        eps = 0.01
        psi = PureState(np.array([1, 0], dtype=complex))
        phi = PureState(np.array([eps, math.sqrt(1 - eps**2)], dtype=complex))
        wv = weak_value(Observable(SX), psi, phi)
        assert wv.value.real == pytest.approx(math.sqrt(1 - eps**2) / eps, abs=1e-10)
        assert wv.value.real == pytest.approx(99.995, abs=1e-6)

    def test_orthogonal_postselection_raises(self):
        psi = PureState(np.array([1, 0], dtype=complex))
        phi = PureState(np.array([0, 1], dtype=complex))
        with pytest.raises(OrthogonalPostselection):
            weak_value(Observable(SX), psi, phi)

    def test_equal_states_reduce_to_expectation(self, rng):
        for dim in (2, 3):
            a = random_observable(rng, dim)
            psi = random_state(rng, dim)
            wv = weak_value(a, psi, psi)
            assert wv.value.imag == pytest.approx(0.0, abs=1e-12)
            assert wv.value.real == pytest.approx(expectation(a, psi), abs=1e-12)

    def test_global_phase_invariance(self, rng):
        a = random_observable(rng, 3)
        psi, phi = random_selection_pair(rng, 3)
        base = weak_value(a, psi, phi).value
        psi2 = PureState(psi.amplitudes * np.exp(0.7j))
        phi2 = PureState(phi.amplitudes * np.exp(-1.2j))
        assert weak_value(a, psi2, phi2).value == pytest.approx(base, abs=1e-12)


class TestMatrixWeakValue:
    def test_identity(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        assert matrix_weak_value(np.eye(2), psi, phi) == pytest.approx(1.0 + 0.0j)

    def test_pauli_product_order_gap(self):
        psi = PureState(np.array([1, 1]) / math.sqrt(2))
        phi = PureState(np.array([1, np.exp(1j * math.pi / 4)]) / math.sqrt(2))
        yx = matrix_weak_value(SY @ SX, psi, phi)
        xy = matrix_weak_value(SX @ SY, psi, phi)
        assert (yx - xy).real == pytest.approx(2 * math.tan(math.pi / 8), abs=1e-12)
        assert (yx - xy).real == pytest.approx(0.8284271247461903, abs=1e-12)

    def test_squared_pauli_is_identity(self, rng):
        psi, phi = random_selection_pair(rng, 2)
        assert matrix_weak_value(SX @ SX, psi, phi) == pytest.approx(1.0 + 0.0j)

    def test_matches_weak_value_for_hermitian(self, rng):
        for dim in (2, 3):
            a = random_observable(rng, dim)
            psi, phi = random_selection_pair(rng, dim)
            assert matrix_weak_value(a.matrix, psi, phi) == pytest.approx(
                weak_value(a, psi, phi).value, abs=1e-12
            )


class TestExpectation:
    def test_eigenstate(self):
        assert expectation(Observable(SZ), PureState(np.array([1, 0], dtype=complex))) == pytest.approx(1.0)

    def test_off_diagonal_vanishes(self):
        assert expectation(Observable(SX), PureState(np.array([1, 0], dtype=complex))) == pytest.approx(0.0, abs=1e-15)

    def test_rotated_state(self):
        theta = math.pi / 8
        psi = PureState(np.array([math.cos(theta), math.sin(theta)], dtype=complex))
        assert expectation(Observable(SX), psi) == pytest.approx(math.sin(math.pi / 4), abs=1e-12)

    def test_bounded_by_spectrum(self, rng):
        for dim in (2, 3, 4):
            a = random_observable(rng, dim)
            lo, hi = a.eigensystem.eigenvalues[0], a.eigensystem.eigenvalues[-1]
            for _ in range(20):
                val = expectation(a, random_state(rng, dim))
                assert lo - 1e-12 <= val <= hi + 1e-12


class TestAnomalousPair:
    def test_sigma_x_real_target(self):
        pair = anomalous_pair(Observable(SX), 0.01, "re")
        assert np.allclose(pair.psi.amplitudes, [1, 0])
        assert np.allclose(pair.perp.amplitudes, [0, 1])
        assert pair.weak_value.real == pytest.approx(99.99499987499375, abs=1e-9)
        assert pair.postselect_prob == pytest.approx(1e-4, rel=1e-9)

    def test_epsilon_one_degenerates_to_expectation(self):
        pair = anomalous_pair(Observable(SX), 1.0, "re")
        assert np.allclose(pair.phi.amplitudes, pair.psi.amplitudes, atol=1e-12)
        assert pair.weak_value == pytest.approx(
            expectation(Observable(SX), pair.psi) + 0j, abs=1e-12
        )

    def test_sigma_z_imaginary_target(self):
        eps = 0.02
        pair = anomalous_pair(Observable(SZ), eps, "im")
        assert np.allclose(np.abs(pair.psi.amplitudes), [1 / math.sqrt(2)] * 2)
        assert pair.weak_value.imag == pytest.approx(math.sqrt(1 - eps**2) / eps, abs=1e-10)
        assert pair.weak_value.imag == pytest.approx(49.99, abs=1e-2)

    def test_identity_rejected(self):
        with pytest.raises(ProportionalToIdentity):
            anomalous_pair(Observable(np.eye(2, dtype=complex)), 0.1, "re")

    @pytest.mark.parametrize("target", ["re", "im"])
    def test_epsilon_scaling_invariant(self, target):
        # |target part| * eps -> <perp|A|psi> with deviation shrinking ~ eps
        obs = Observable(SX)
        devs = []
        for eps in (0.1, 0.01, 0.001):
            pair = anomalous_pair(obs, eps, target)
            part = pair.weak_value.real if target == "re" else pair.weak_value.imag
            coupling = np.vdot(
                pair.perp.amplitudes, obs.matrix @ pair.psi.amplitudes
            ).real
            devs.append(abs(abs(part) * eps - coupling))
        assert devs[0] < 0.01
        assert devs[1] < devs[0] / 5
        assert devs[2] < devs[1] / 5

    def test_coupling_made_real_positive(self, rng):
        for dim in (2, 3, 4):
            obs = random_observable(rng, dim)
            pair = anomalous_pair(obs, 0.05, "re")
            coupling = np.vdot(pair.perp.amplitudes, obs.matrix @ pair.psi.amplitudes)
            assert abs(pair.perp.overlap(pair.psi)) < 1e-12
            assert coupling.imag == pytest.approx(0.0, abs=1e-12)
            assert coupling.real > 0


class TestStatesAndDensities:
    def test_norm_validation(self):
        with pytest.raises(ValueError):
            PureState(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            PureState(np.array([float("nan"), 0.0], dtype=complex))
        with pytest.raises(ValueError):
            PureState.normalized(np.zeros(2))

    @pytest.mark.parametrize(
        "values, scale",
        [
            ([1e308, 1e308], 1e308),
            ([1e308j, -1e308], 1e308),
            ([1.7e308 + 1.7e308j, 0.0, 1e200], 1.7e308),
            ([1e160, 3e160j], 3e160),
        ],
        ids=["real", "imaginary", "complex entry", "squares past the range"],
    )
    def test_normalizes_past_the_float_range(self, values, scale):
        # the squared sum overflows: the state is scaled by its largest part
        # first, and reads as the vector divided by that part
        huge = PureState.normalized(np.array(values, dtype=complex))
        assert np.array_equal(huge.amplitudes, PureState.normalized(np.array(values, dtype=complex) / scale).amplitudes)

    def test_density_matrix_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))
        with pytest.raises(NotHermitian):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex))
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_purity_and_expectation(self, rng):
        psi = random_state(rng, 3)
        rho = DensityMatrix(np.outer(psi.amplitudes, np.conj(psi.amplitudes)))
        assert rho.purity() == pytest.approx(1.0, abs=1e-12)
        assert rho.expectation_in(psi) == pytest.approx(1.0, abs=1e-12)

    def test_state_json_round_trip(self, rng):
        psi = random_state(rng, 4)
        again = PureState(np.array([complex(re, im) for re, im in psi.to_json()]))
        assert np.array_equal(again.amplitudes, psi.amplitudes)

    def test_non_contiguous_inputs(self, rng):
        basis, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        assert np.array_equal(PureState(basis[:, 1]).amplitudes, basis[:, 1])
        h = random_observable(rng, 3).matrix.copy()
        assert np.array_equal(Observable(h.T).matrix, h.T)
        with pytest.raises(ValueError):
            PureState(np.array([[1.0, 0.0], [np.inf, 0.0]], dtype=complex)[:, 0])
