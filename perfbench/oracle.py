"""Closed forms recomputed with numpy alone, for the benchmark's checks.

Nothing here imports ``weakmeas``. The meter is a unit-variance Gaussian;
the amplitude after a von Neumann coupling of strength ``lam`` is
``sum_i w_i sqrt(G(x - lam a_i))`` with ``w_i = <phi|v_i><v_i|psi>`` over the
eigenvectors ``v_i`` of the observable. Every quantity below is a pair sum
``sum_ij conj(w_i) w_j K(a_i, a_j)`` and is therefore unchanged when a
degenerate eigenvalue is split over several eigenvectors.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)


def gaussian(x):
    x = np.asarray(x, dtype=np.float64)
    return np.exp(-0.5 * x * x) / SQRT_2PI


def upper_tail(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def branches(matrix, psi, phi=None):
    """Eigenvalues a_i, weights w_i = <phi|P_i|psi> and p_i = |P_i psi|^2."""
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=np.complex128))
    c_psi = vecs.conj().T @ psi
    p = np.abs(c_psi) ** 2
    if phi is None:
        return vals, None, p
    w = np.conj(vecs.conj().T @ phi) * c_psi
    return vals, w, p


def weak_value(matrix, psi, phi) -> complex:
    return complex(np.vdot(phi, matrix @ psi) / np.vdot(phi, psi))


def _pair(w, vals, lam):
    d = vals[:, None] - vals[None, :]
    return np.conj(w)[:, None] * w[None, :] * np.exp(-(lam * lam) * d * d / 8.0)


def postselection_probability(vals, w, lam) -> float:
    return float(_pair(w, vals, lam).sum().real)


def conditional_mean_x(vals, w, lam) -> float:
    pair = _pair(w, vals, lam)
    mid = lam * (vals[:, None] + vals[None, :]) / 2.0
    return float((pair * mid).sum().real / pair.sum().real)


def conditional_mean_xprime(vals, w, lam) -> float:
    """Mean of x' = 2p; also the kick protocol's conditional mean."""
    pair = _pair(w, vals, lam)
    k = lam * (vals[:, None] - vals[None, :]) / 2.0
    return float((pair * 1j * k).sum().real / pair.sum().real)


def density_x(vals, w, lam, xs):
    amp = np.sqrt(gaussian(np.asarray(xs)[:, None] - lam * vals)) @ w
    return np.abs(amp) ** 2 / postselection_probability(vals, w, lam)


def density_xprime(vals, w, lam, xs):
    xs = np.asarray(xs, dtype=np.float64)
    amp = np.exp(-0.5j * lam * np.outer(xs, vals)) @ w
    return gaussian(xs) * np.abs(amp) ** 2 / postselection_probability(vals, w, lam)


def joint_density(vals, w, lam, xs):
    """Unnormalized |<phi|M_x|psi>|^2."""
    amp = np.sqrt(gaussian(np.asarray(xs)[:, None] - lam * vals)) @ w
    return np.abs(amp) ** 2


def pw_density(vals, w, lam, xs, overlap: complex):
    coeff = (w * np.conj(overlap)).real
    return gaussian(np.asarray(xs)[:, None] - lam * vals) @ coeff


def nonselective_state(matrix, psi, lam):
    vals, vecs = np.linalg.eigh(np.asarray(matrix, dtype=np.complex128))
    c = vecs.conj().T @ psi
    damp = np.exp(-(lam * lam) * (vals[:, None] - vals[None, :]) ** 2 / 8.0)
    rho_eig = damp * np.outer(c, np.conj(c))
    return vecs @ rho_eig @ vecs.conj().T


def truncated_mean(vals, p, lam, threshold):
    """E[x | x >= threshold] and P(x >= threshold) of the outcome mixture."""
    mus = lam * vals
    tails = np.array([upper_tail(threshold - mu) for mu in mus])
    numer = float((p * (gaussian(threshold - mus) + mus * tails)).sum())
    denom = float((p * tails).sum())
    return numer / denom, denom


def sequential_weights(a_matrix, b_matrix, psi, phi):
    """W_ij = <phi|v_j><v_j|u_i><u_i|psi> for A = sum a_i u_i u_i^dag, B likewise."""
    a_vals, u = np.linalg.eigh(np.asarray(a_matrix, dtype=np.complex128))
    b_vals, v = np.linalg.eigh(np.asarray(b_matrix, dtype=np.complex128))
    w = (np.conj(v.conj().T @ phi))[None, :] * (v.conj().T @ u).T * (u.conj().T @ psi)[:, None]
    return a_vals, b_vals, w


def sequential_moments(a_vals, b_vals, w, lam1, lam2):
    """(P, E[x1], E[x2], Cov(x1, x2)) of the post-selected two-meter readout."""
    def factors(vals, lam):
        d = vals[:, None] - vals[None, :]
        overlap = np.exp(-(lam * lam) * d * d / 8.0)
        return overlap, overlap * lam * (vals[:, None] + vals[None, :]) / 2.0

    o1, m1 = factors(a_vals, lam1)
    o2, m2 = factors(b_vals, lam2)
    cw = np.conj(w)

    def pair_sum(f1, f2):
        return np.einsum("ij,kl,ik,jl->", cw, w, f1, f2).real

    norm = pair_sum(o1, o2)
    e1 = pair_sum(m1, o2) / norm
    e2 = pair_sum(o1, m2) / norm
    e12 = pair_sum(m1, m2) / norm
    return float(norm), float(e1), float(e2), float(e12 - e1 * e2)


def sequential_density(a_vals, b_vals, w, lam1, lam2, xs1, xs2):
    f1 = np.sqrt(gaussian(np.asarray(xs1)[:, None] - lam1 * a_vals))
    f2 = np.sqrt(gaussian(np.asarray(xs2)[:, None] - lam2 * b_vals))
    dens = np.abs(f1 @ w @ f2.T) ** 2
    o1 = np.exp(-(lam1 * lam1) * (a_vals[:, None] - a_vals[None, :]) ** 2 / 8.0)
    o2 = np.exp(-(lam2 * lam2) * (b_vals[:, None] - b_vals[None, :]) ** 2 / 8.0)
    norm = np.einsum("ij,kl,ik,jl->", np.conj(w), w, o1, o2).real
    return dens / norm


def collective_ratio_and_mean(vals, w, lam, n):
    """P_N / |<phi|psi>|^(2N) and E[x'] for N systems on one meter.

    The x' amplitude is (sum_i w_i exp(-i lam a_i x' / (2N)))^N sqrt(G(x'));
    dividing the inner sum by the overlap keeps the N-th power near one.
    """
    xs = np.linspace(-16.0, 16.0, 32001)
    inner = np.exp(-0.5j * lam / n * np.outer(xs, vals)) @ (w / w.sum())
    dens = gaussian(xs) * np.exp(n * np.log(np.abs(inner) ** 2))
    total = np.trapezoid(dens, xs)
    return float(total), float(np.trapezoid(xs * dens, xs) / total)
