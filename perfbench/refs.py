"""Independent reference values for the benchmark's correctness checks.

Every formula here is written from the mathematics with plain numpy and
shares no code with cpmean.  Each one works at unit scale and is carried to
the drawn scales by homogeneity, so its accuracy does not depend on the
scales the program is fed.  Eigenvalues below RANK_RTOL times the largest
are zeroed: without that cutoff, eigensolver noise raised to a fractional
power shows up as spurious errors of about 1e-4.
"""

from __future__ import annotations

import numpy as np

RANK_RTOL = 1e-10
LOG_NODES = 16


def herm(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.conj().T)


def _eig(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues, eigenvectors and the mask of eigenvalues above the rank cutoff."""
    w, u = np.linalg.eigh(herm(m))
    return w, u, w > RANK_RTOL * max(w[-1], 0.0)


def spectral(m: np.ndarray, fn) -> np.ndarray:
    """fn of a Hermitian PSD matrix on its support; the rest of the spectrum maps to 0."""
    w, u, keep = _eig(m)
    out = np.zeros_like(w)
    out[keep] = fn(w[keep])
    return herm((u * out) @ u.conj().T)


class PowerBasis:
    """Spectral data of the pair (A, B) at unit scale, A invertible.

    ``power(alpha)`` is ``A^{1/2} (A^{-1/2} B A^{-1/2})^alpha A^{1/2}``, the
    power mean with weight alpha on B.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray):
        a_inv_half = spectral(a, lambda w: w ** -0.5)
        mu, v, keep = _eig(a_inv_half @ b @ a_inv_half)
        self.mu = np.where(keep, mu, 0.0)
        self.left = spectral(a, np.sqrt) @ v

    def power(self, alpha: float) -> np.ndarray:
        return herm((self.left * self.mu ** alpha) @ self.left.conj().T)


def power_mean(basis: PowerBasis, alpha: float, sa: float = 1.0, sb: float = 1.0):
    """Power mean of (sa A, sb B): sa^(1-alpha) sb^alpha (A #_alpha B)."""
    return sa ** (1.0 - alpha) * sb ** alpha * basis.power(alpha)


def log_mean(basis: PowerBasis, sa: float = 1.0, sb: float = 1.0) -> np.ndarray:
    """Gauss-Legendre sum over the weight of the power-mean references."""
    x, w = np.polynomial.legendre.leggauss(LOG_NODES)
    return sum(0.5 * o * power_mean(basis, 0.5 * (t + 1.0), sa, sb) for t, o in zip(x, w))


def harmonic_mean(a: np.ndarray, b: np.ndarray, sa: float = 1.0, sb: float = 1.0):
    """Harmonic mean of (sa A, sb B), A invertible.

    ``2 B^{1/2} (1 + B^{1/2} A^{-1} B^{1/2})^{-1} B^{1/2}`` with the scales
    folded into the eigenvalues mu of ``B^{1/2} A^{-1} B^{1/2}``: the middle
    factor becomes ``sa sb / (sa + sb mu)``.
    """
    b_half = spectral(b, np.sqrt)
    mu, v, keep = _eig(b_half @ spectral(a, lambda w: 1.0 / w) @ b_half)
    left = b_half @ v
    return herm(2.0 * (left * (sa * sb / (sa + sb * np.where(keep, mu, 0.0)))) @ left.conj().T)


def ac_part(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Ando's closed form of the F-absolutely continuous part of G.

    ``G^{1/2} P G^{1/2}`` with P the projection onto
    ``ker((1 - P_F) G^{1/2})``; jointly homogeneous of degree one.
    """
    g_half = spectral(g, np.sqrt)
    _, uf, keep_f = _eig(f)
    k = g_half - uf[:, keep_f] @ (uf[:, keep_f].conj().T @ g_half)
    w, u = np.linalg.eigh(herm(k.conj().T @ k))
    kern = u[:, w <= RANK_RTOL * np.linalg.eigvalsh(herm(g))[-1]]
    ac = herm(g_half @ kern @ kern.conj().T @ g_half)
    # Generic pairs either meet in ran(F) or give a zero part up to round-off.
    if np.linalg.norm(ac) <= RANK_RTOL * np.linalg.norm(g):
        return np.zeros_like(ac)
    return ac


def alpha_min(f: np.ndarray, ac: np.ndarray) -> float:
    """Least alpha with ac <= alpha F, for ran(ac) inside ran(F); scale invariant."""
    if not np.abs(ac).max() > 0.0:
        return 0.0
    f_inv_half = spectral(f, lambda w: w ** -0.5)
    return float(max(np.linalg.eigvalsh(herm(f_inv_half @ ac @ f_inv_half))[-1], 0.0))


def pimsner_popa_index(choi: np.ndarray, d: int) -> float:
    """<v, C^+ v> for v the unnormalized maximally entangled vector (C invertible)."""
    v = np.eye(d).reshape(-1).astype(np.complex128)
    return float(np.real(v.conj() @ spectral(choi, lambda w: 1.0 / w) @ v))


def psd_within(m: np.ndarray, tol: float) -> bool:
    """The program's documented PSD criterion: min eigenvalue >= -tol * max(1, norm)."""
    w = np.linalg.eigvalsh(herm(m))
    return bool(w[0] >= -tol * max(1.0, abs(w[0]), abs(w[-1])))


def rel_err(out: np.ndarray, ref: np.ndarray, scale: float | None = None) -> float:
    """Frobenius error of out relative to scale (default: the reference's norm)."""
    if scale is None:
        scale = float(np.linalg.norm(ref))
    return float(np.linalg.norm(np.asarray(out) - ref)) / scale
