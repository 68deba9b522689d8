"""Dense Hermitian/PSD linear algebra kernel with an explicit tolerance policy.

Everything in this package runs through the small set of primitives below:
the cached spectral decomposition of a ``HermitianMatrix``, its eigenvalues
alone (``eigvals()``, not cached) and its rank cutoff ``support()``, ``as_psd``,
the admission of outside data, ``is_psd``, the PSD square root and
Moore-Penrose pseudo-inverse, and the ``SpectralPair`` on which every mean,
connection and Lebesgue split is evaluated.  Every rank, range and kernel
decision reads ``RANK_RTOL`` here alone: ``support()``, the index's range test
``pinv_form`` and the kernel of Ando's closed form ``_ando_part``.
Matrices are small dense complex arrays (Choi matrices up to about 144 x 144);
all values are immutable after construction and each eig is computed once
and cached, so instances are safe to share across threads.  ``_RUN`` keeps the
last pair (1.0-1.7 MB at Choi 144) and the document slots for every thread.
"""

from __future__ import annotations

import math
import threading
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidInput, ShapeError

# Tolerance policy.  Double-precision eigensolvers deliver ~1e-14 relative
# residuals at these sizes; the defaults keep two safety decades.
TOL_PSD = 1e-9      # PSD admission: min eigenvalue >= -TOL_PSD * max |h_ij|
TOL_HERM = 1e-10    # Hermiticity of outside arrays in _admit, relative to max abs entry
RANK_RTOL = 1e-10   # rank cutoff, relative to the largest eigenvalue
_EPS = float(np.finfo(np.float64).eps)


def _max_abs(*arrays) -> float:
    """The largest entry modulus of the arrays, the scale of every verdict's bound."""
    return max(float(np.abs(x).max()) for x in arrays)


def _square(entries) -> np.ndarray:
    """A finite square complex128 copy of entries."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInput("matrix entries must be finite")
    return m


class HermitianMatrix:
    """Complex Hermitian matrix, symmetrized once at construction.

    Entries are stored row-major as a read-only complex128 array.  The
    eigendecomposition is computed lazily and cached; concurrent readers may
    race to fill the cache but the filled value is identical either way.
    """

    __slots__ = ("_m", "_eig")

    def __init__(self, entries):
        m = _square(entries)
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

    def eigvals(self) -> np.ndarray:
        """Ascending eigenvalues: those of the cached ``eig()`` if there is one,
        else one uncached ``eigvalsh``."""
        return np.linalg.eigvalsh(self._m) if self._eig is None else self._eig[0]

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs above the rank cutoff ``RANK_RTOL * max(w[-1], 0)``: views
        of the cached ``eig()``, whose ascending order makes them its tail."""
        w, u = self.eig()
        k = int(np.searchsorted(w, RANK_RTOL * max(float(w[-1]), 0.0), side="right"))
        return w[k:], u[:, k:]

    def pinv_form(self, v: np.ndarray) -> float:
        """``<v, C^+ v>`` on ``support()``; inf if v is off its range by > RANK_RTOL ||v||."""
        w, u = self.support()
        y = u.conj().T @ v  # v in the eigenbasis of C on its support
        if np.linalg.norm(v - u @ y) > RANK_RTOL * np.linalg.norm(v):
            return math.inf
        return float(np.sum(np.abs(y) ** 2 / w))

    def norm(self) -> float:
        """Spectral norm."""
        w, _ = self.eig()
        return float(max(abs(w[0]), abs(w[-1])))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PsdMatrix(HermitianMatrix):
    """Hermitian matrix admitted as positive semidefinite.

    The constructor is the internal admission, ``is_psd`` at TOL_PSD of the
    symmetrized entries; outside data enters through ``as_psd``.  Small
    negative eigenvalues are tolerated here and clamped to zero below.
    """

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries)
        v = is_psd(self)
        if not v:
            raise InvalidInput(
                f"matrix is not PSD within tolerance (min eigenvalue {-v.residual:.3e})")

    @classmethod
    def clamped(cls, entries, bound: float) -> "PsdMatrix":
        """Entries PSD up to bound, which the caller sets from the round-off of
        the computation that produced them.  The smallest eigenvalue w_0 picks
        the branch: above bound, the entries are admitted as computed, a second
        eigh; within ±bound, the Gram form ``U max(w, 0) U*`` (Higham 1988),
        whose eig stays lazy, one eigh in all; below -bound, InvalidInput.
        """
        h = HermitianMatrix(entries)
        w, u = h.eig()
        if w[0] > bound:
            return cls(h.entries)
        if w[0] < -bound:
            raise InvalidInput(
                f"negative eigenvalue {w[0]:.3e} exceeds clamping tolerance"
            )
        return cls._gram(u, np.clip(w, 0.0, None))

    @classmethod
    def _trusted(cls, entries) -> "PsdMatrix":
        """Admit a result PSD by construction without the admission
        eigendecomposition; eig stays lazy.  PSD by construction means ``U f(w)
        U*`` with f >= 0, or a sum, nonnegative scaling, Kronecker product or
        composition (Choi of a composed map) of admitted matrices.  Non-finite
        entries still raise InvalidInput.  Never for external data."""
        out = cls.__new__(cls)
        HermitianMatrix.__init__(out, entries)
        return out

    @classmethod
    def _gram(cls, x: np.ndarray, h=None) -> "PsdMatrix":
        """``X diag(h) X*`` for h >= 0, or ``X X*`` without h, admitted as PSD
        by construction."""
        return cls._trusted((x if h is None else x * h) @ x.conj().T)


def _admit(x, cls):
    """x if it is a cls, else x as a cls: a HermitianMatrix from its entries,
    an array-like once it is Hermitian within ``TOL_HERM`` of its largest entry
    modulus, else InvalidInput."""
    if isinstance(x, cls):
        return x
    if isinstance(x, HermitianMatrix):
        return cls(x.entries)
    m = _square(x)
    defect = _max_abs(m - m.conj().T)
    if defect > TOL_HERM * _max_abs(m):
        raise InvalidInput(f"matrix is not Hermitian (defect {defect:.3e})")
    return cls(m)


def as_psd(x) -> PsdMatrix:
    """Coerce an array-like or HermitianMatrix to PsdMatrix: the admission of
    outside data, by ``_admit``'s Hermiticity rule and then ``PsdMatrix``."""
    return _admit(x, PsdMatrix)


class Verdict(NamedTuple):
    """A check's residual against its bound; truthy iff ``residual <= bound``."""

    residual: float
    bound: float

    def __bool__(self) -> bool:
        return bool(self.residual <= self.bound)


def is_psd(h, tol: float = TOL_PSD) -> Verdict:
    """``max(0, -min eigenvalue)`` from the cached eig against ``tol * max
    |h_ij|``: h is PSD within tol iff the verdict holds, at every scale.  An
    array-like h meets ``_admit``'s Hermiticity rule first."""
    hm = _admit(h, HermitianMatrix)
    return Verdict(max(0.0, -float(hm.eig()[0][0])), tol * _max_abs(hm.entries))


def psd_sqrt(a) -> PsdMatrix:
    """PSD square root; negative eigenvalues within tolerance are clamped to 0."""
    w, u = as_psd(a).eig()
    return PsdMatrix._gram(u, np.sqrt(np.clip(w, 0.0, None)))


def pinv_psd(a) -> PsdMatrix:
    """Moore-Penrose inverse: the eigenvalues ``support()`` keeps are inverted."""
    w, u = as_psd(a).support()
    return PsdMatrix._gram(u, 1.0 / w)


def _ando_part(cf: HermitianMatrix, cg: PsdMatrix) -> PsdMatrix:
    """Ando's closed form ``cg^{1/2} P cg^{1/2}`` of the part of cg absolutely
    continuous to cf (Ando 1976): P projects onto the eigenspace of M*M at or
    below ``RANK_RTOL ||cg||``, one eigh, for ``M = U_0* cg^{1/2}`` and U_0 the
    columns of cf's cached eig below ``support()``.  A full-rank cf returns cg."""
    u0 = cf.eig()[1][:, :cf.dim - cf.support()[0].size]
    if not u0.size:
        return cg
    half = psd_sqrt(cg).entries
    m = u0.conj().T @ half
    w, v = HermitianMatrix(m.conj().T @ m).eig()
    return PsdMatrix._gram(half @ v[:, w <= RANK_RTOL * cg.norm()])


class SpectralPair:
    """The commuting Radon-Nikodym pair of PSD A and B, folded to unit scale.

    The operands are folded by their largest entry modulus ``s_A = max |A_ij|``
    (1 for a zero operand), which takes no eigendecomposition and cannot
    overflow.  With ``Ĉ = A/s_A + B/s_B = U diag(w) U*`` on its support, ``A'
    = W^{-1/2} U* (A/s_A) U W^{-1/2} = V diag(t) V*`` and ``B' = I - A'``
    commute, ``A = s_A Z diag(t) Z*`` and ``B = s_B Z diag(1 - t) Z*`` with ``Z
    = U W^{1/2} V`` (Kubo-Ando 1980, Ando 1976).  Each t_i is snapped onto {0,
    1} within its own rounding error, and onto 1 where B = 0 (A = 0 gives 0),
    so rank-deficient directions carry no eigensolver noise and a zero operand
    gives exact zero connections.  Two eigendecompositions, of Ĉ and of the r
    x r A'; an empty support gives 0-column arrays.  It keeps (s_A, s_B, t, Z)
    alone, as ``Z Z* = Ĉ`` and ``Z*Z = V* diag(w) V``; t and Z are read-only,
    as the last pair built is shared by every caller of ``_shared_pair``.
    """

    __slots__ = ("sa", "sb", "t", "z")

    def __init__(self, a: HermitianMatrix, b: HermitianMatrix):
        sa, sb = (_max_abs(x.entries) for x in (a, b))
        self.sa, self.sb = sa or 1.0, sb or 1.0
        ah = a.entries / self.sa
        w, u = HermitianMatrix(ah + b.entries / self.sb).support()
        x = u / np.sqrt(w)
        ap = x.conj().T @ ah @ x
        t, v = np.linalg.eigh(0.5 * (ap + ap.conj().T))
        # Rounding in the product (n eps ||Â||) and in the eigenvectors of Ĉ
        # (n eps ||Ĉ||, times t_i) reaches t_i as n eps (||Â|| + t_i ||Ĉ||)
        # sum_j |V_ji|^2 / w_j.
        snap = (u.shape[0] * _EPS * (np.linalg.norm(ah) + t * np.linalg.norm(w))
                * ((np.abs(v) ** 2).T @ (1.0 / w)))
        t[t < snap] = 0.0
        t[(t > 1.0 - snap) | (sb == 0.0)] = 1.0
        self.t, self.z = t, (u * np.sqrt(w)) @ v
        for x in (self.t, self.z):
            x.flags.writeable = False

    def ratio(self) -> float:
        """``s_B/s_A``; DomainError where it or 1/it overflows: one side would round away."""
        r = self.sb / self.sa
        if math.isinf(max(r, self.sa / self.sb)):
            raise DomainError(f"scale ratio s_B/s_A = {self.sb:.3g}/{self.sa:.3g} "
                              "is beyond double range")
        return r


class _Run:
    """What calls keep for later calls: ``pair``, the last spectral pair as (a,
    b, SpectralPair), and channeldoc's ``docs`` slots, which ``lock`` guards."""

    __slots__ = ("pair", "docs", "lock")

    def __init__(self):
        self.pair, self.docs, self.lock = None, {}, threading.Lock()


_RUN = _Run()  # the process's run; readers look it up at each call


def _shared_pair(a: HermitianMatrix, b: HermitianMatrix) -> SpectralPair:
    """``SpectralPair(a, b)``, kept in the run for the next call on the same two
    objects: keyed by identity, as entries are read-only and the run holds both.
    The slot is read once, so a thread replacing it cannot swap this pair."""
    kept = _RUN.pair
    if kept is None or kept[0] is not a or kept[1] is not b:
        kept = _RUN.pair = (a, b, SpectralPair(a, b))
    return kept[2]
