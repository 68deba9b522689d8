"""Dense Hermitian/PSD linear algebra kernel with an explicit tolerance policy.

Everything in this package runs through the small set of primitives below:
spectral decompositions, matrix functions of PSD matrices, Moore-Penrose
pseudo-inverses, support projections, and projection intersections.  Matrices
are small (dim <= ~64) dense complex arrays; all values are immutable after
construction and spectral data is computed once and cached, so instances are
safe to share across threads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvalidInput, ShapeError

# Tolerance policy.  Double-precision eigensolvers deliver ~1e-14 relative
# residuals at these sizes; the defaults keep two safety decades.
TOL_PSD = 1e-9      # PSD admission: min eigenvalue >= -TOL_PSD * max(1, norm)
TOL_HERM = 1e-10    # Hermiticity admission for external data
TOL_RECON = 1e-8    # reconstruction residual, relative to max(1, norm)
RANK_RTOL = 1e-10   # rank cutoff, relative to the largest eigenvalue


class HermitianMatrix:
    """Complex Hermitian matrix, symmetrized once at construction.

    Entries are stored row-major as a read-only complex128 array.  The
    eigendecomposition is computed lazily and cached; concurrent readers may
    race to fill the cache but the filled value is identical either way.
    """

    __slots__ = ("_m", "_eig")

    def __init__(self, entries):
        m = np.array(entries, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeError(f"expected a square matrix, got shape {m.shape}")
        if not np.isfinite(m).all():
            raise InvalidInput("matrix entries must be finite")
        mh = m.conj().T
        if not (m == mh).all():
            # Halved as real arrays: a complex product by 0.5 would turn some
            # -0.0 into 0.0.  An exactly Hermitian input is kept bit for bit.
            m = m + mh
            m.view(np.float64)[...] *= 0.5
        m.flags.writeable = False
        self._m = m
        self._eig = None

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._m

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Cached eigendecomposition: ascending eigenvalues and unitary columns."""
        if self._eig is None:
            w, u = np.linalg.eigh(self._m)
            w.flags.writeable = False
            u.flags.writeable = False
            self._eig = (w, u)
        return self._eig

    def norm(self) -> float:
        """Spectral norm."""
        w, _ = self.eig()
        return float(max(abs(w[0]), abs(w[-1])))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PsdMatrix(HermitianMatrix):
    """Hermitian matrix admitted as positive semidefinite.

    Admission requires min eigenvalue >= -tol * max(1, spectral norm); small
    negative eigenvalues are tolerated here and clamped to zero by the matrix
    functions below.
    """

    __slots__ = ()

    def __init__(self, entries, tol: float = TOL_PSD):
        super().__init__(entries)
        w, _ = self.eig()
        if w[0] < -tol * max(1.0, self.norm()):
            raise InvalidInput(
                f"matrix is not PSD within tolerance (min eigenvalue {w[0]:.3e})"
            )

    @classmethod
    def clamped(cls, entries, tol: float = TOL_PSD, scale: float | None = None) -> "PsdMatrix":
        """Project onto the PSD cone by zeroing small negative eigenvalues.

        Eigenvalues below -tol * scale raise InvalidInput instead of being
        silently absorbed; scale defaults to max(1, norm), and a caller whose
        round-off is relative to its operands passes their norm.
        """
        h = HermitianMatrix(entries)
        w, u = h.eig()
        if w[0] >= 0.0:
            return cls(h.entries)
        if w[0] < -tol * (max(1.0, h.norm()) if scale is None else scale):
            raise InvalidInput(
                f"negative eigenvalue {w[0]:.3e} exceeds clamping tolerance"
            )
        return cls((u * np.clip(w, 0.0, None)) @ u.conj().T)

    @classmethod
    def _trusted(cls, entries) -> "PsdMatrix":
        """Admit a result PSD by construction (``U f(w) U*``, f >= 0) without the
        admission eigendecomposition; eig stays lazy.  Never for external data."""
        out = cls.__new__(cls)
        HermitianMatrix.__init__(out, entries)
        return out


class Projection(PsdMatrix):
    """Orthogonal projection: idempotent PSD matrix with spectrum in {0, 1}."""

    __slots__ = ()

    def __init__(self, entries, tol: float = TOL_PSD):
        super().__init__(entries, tol=tol)
        m = self.entries
        scale = max(1.0, self.norm())
        if np.abs(m @ m - m).max() > TOL_RECON * scale:
            raise InvalidInput("matrix is not idempotent within tolerance")
        w, _ = self.eig()
        if np.abs(w - np.round(w)).max() > TOL_PSD * scale:
            raise InvalidInput("projection spectrum is not within {0, 1}")

    def rank(self) -> int:
        return int(round(float(np.trace(self.entries).real)))


def as_hermitian(x) -> HermitianMatrix:
    """Coerce an array-like or HermitianMatrix to HermitianMatrix."""
    return x if isinstance(x, HermitianMatrix) else HermitianMatrix(x)


def as_psd(x, tol: float = TOL_PSD) -> PsdMatrix:
    """Coerce an array-like or PsdMatrix to PsdMatrix."""
    return x if isinstance(x, PsdMatrix) else PsdMatrix(x, tol=tol)


def eigh(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and a unitary matrix of eigenvector columns
    such that ``H = U diag(w) U*``.  Deterministic for identical input bits on
    a fixed platform; no tie-breaking is guaranteed for degenerate spectra.
    """
    return as_hermitian(h).eig()


def psd_signs(h, tol: float = TOL_PSD) -> tuple[bool, bool]:
    """``(is_psd(h, tol), is_psd(-h, tol))`` from one eigendecomposition of h.

    The spectrum of -h is the negated spectrum of h and the bound
    ``tol * max(1, spectral norm)`` is the same for both.
    """
    hm = as_hermitian(h)
    w, _ = hm.eig()
    bound = -tol * max(1.0, hm.norm())
    return bool(w[0] >= bound), bool(-w[-1] >= bound)


def is_psd(h, tol: float = TOL_PSD) -> bool:
    """True iff the minimum eigenvalue is >= -tol * max(1, spectral norm)."""
    return psd_signs(h, tol)[0]


def _fn_of_spectrum(a: PsdMatrix, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    w, u = a.eig()
    return (u * fn(w)) @ u.conj().T


def psd_sqrt(a) -> PsdMatrix:
    """PSD square root; negative eigenvalues within tolerance are clamped to 0."""
    a = as_psd(a)
    return PsdMatrix._trusted(_fn_of_spectrum(a, lambda w: np.sqrt(np.clip(w, 0.0, None))))


def pinv_psd(a, rank_rtol: float = RANK_RTOL) -> PsdMatrix:
    """Moore-Penrose inverse restricted to eigenvalues > rank_rtol * max eigenvalue."""
    a = as_psd(a)

    def inv(w):
        cutoff = rank_rtol * max(w[-1], 0.0)
        out = np.zeros_like(w)
        mask = w > cutoff
        out[mask] = 1.0 / w[mask]
        return out

    return PsdMatrix._trusted(_fn_of_spectrum(a, inv))


def support_projection(a, rank_rtol: float = RANK_RTOL) -> Projection:
    """Projection onto the span of eigenvectors with eigenvalue > rank_rtol * max."""
    a = as_psd(a)
    w, u = a.eig()
    cutoff = rank_rtol * max(w[-1], 0.0)
    keep = w > cutoff
    if not keep.any():
        return Projection(np.zeros((a.dim, a.dim), dtype=np.complex128))
    us = u[:, keep]
    return Projection(us @ us.conj().T)


def frac_power_psd(a, p: float, rank_rtol: float = RANK_RTOL) -> PsdMatrix:
    """Fractional power with eigenvalues mapped by ``w -> w**p`` and 0 fixed.

    For p < 0 (and for p == 0, where the scalar map is discontinuous at 0) the
    power is taken on the support only: eigenvalues below the rank cutoff map
    to 0.
    """
    a = as_psd(a)

    def pw(w):
        if p >= 0.0 and p != 0.0:
            return np.clip(w, 0.0, None) ** p
        cutoff = rank_rtol * max(w[-1], 0.0)
        out = np.zeros_like(w)
        mask = w > cutoff
        out[mask] = w[mask] ** p
        return out

    return PsdMatrix._trusted(_fn_of_spectrum(a, pw))


def proj_intersection(p, q) -> Projection:
    """Projection onto ran(P) ∩ ran(Q).

    Computed as the projection onto the common null space of (I - P) and
    (I - Q), i.e. the zero eigenspace of their sum.
    """
    p = as_psd(p)
    q = as_psd(q)
    if p.dim != q.dim:
        raise ShapeError(f"dimension mismatch: {p.dim} vs {q.dim}")
    eye = np.eye(p.dim)
    gap = HermitianMatrix((eye - p.entries) + (eye - q.entries))
    w, u = gap.eig()
    keep = w <= RANK_RTOL * max(1.0, w[-1])
    if not keep.any():
        return Projection(np.zeros((p.dim, p.dim), dtype=np.complex128))
    us = u[:, keep]
    return Projection(us @ us.conj().T)
