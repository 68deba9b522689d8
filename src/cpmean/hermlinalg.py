"""Dense Hermitian/PSD linear algebra kernel with an explicit tolerance policy.

Everything in this package runs through the small set of primitives below: the
cached spectral decomposition of a ``HermitianMatrix``, its eigenvalues alone
(``eigvals()``, not cached) and its rank cutoff ``support()``, ``as_psd``, the
admission of outside data, ``is_psd``, the PSD square root, and the ``SpectralPair``
(two eigh, or one thin SVD from cached eigs with the complement R as its last part)
on which every mean, connection and Lebesgue split is evaluated.  Every rank, range
and kernel decision reads ``RANK_RTOL`` here alone: ``support()``, the index's range
test ``pinv_form`` and the kernel of Ando's closed form ``_ando_part``.  Outside
data, and a ``CpMap``'s Choi matrix, enters only through the public constructors,
converted once and held to the one Hermiticity rule ``TOL_HERM``; only ``as_psd``
and ``is_psd`` call them.  What the library makes enters with no such rule: a
product, Hermitian to rounding, by ``_trusted``, which symmetrizes it, and a sum,
scaling, block or transpose of admitted matrices, Hermitian bit for bit, by
``_exact``, which skips the test.  Matrices are small dense complex arrays (Choi
matrices up to about 144 x 144), immutable after construction; each eig and largest
entry modulus is computed once and kept, so instances are safe to share across
threads.  ``_RUN`` keeps the last pair (at Choi 144, 0.66 MB of operands and 0.33 MB
of ``t``, ``1 - t`` and ``Z``, or, factored, 0.33 MB of X and 4.6 KB per column of Z
and P; never R) and the document slots.
"""

from __future__ import annotations

import math
import threading
from itertools import chain
from numbers import Number
from typing import NamedTuple

import numpy as np

from .errors import DomainError, InvalidInput, ShapeError

# Tolerance policy.  Double-precision eigensolvers deliver ~1e-14 relative
# residuals at these sizes; the defaults keep two safety decades.
TOL_PSD = 1e-9      # PSD admission: min eigenvalue >= -TOL_PSD * max |h_ij|
TOL_HERM = 1e-10    # Hermiticity of outside arrays in HermitianMatrix, relative to max abs entry
RANK_RTOL = 1e-10   # rank cutoff, relative to the largest eigenvalue
_EPS = float(np.finfo(np.float64).eps)


def _max_abs(*arrays) -> float:
    """The largest entry modulus of arrays, or matrices' kept one: every bound's scale."""
    return max(x._scale() if isinstance(x, HermitianMatrix) else float(np.abs(x).max())
               for x in arrays)


def _bound(tol: float, *arrays) -> float:
    """``tol * _max_abs(*arrays)``, but never below ``d * 2^-1074``, d the
    largest dimension of the arrays or matrices: a residual carries a rounding unit."""
    dim = max(x.dim if isinstance(x, HermitianMatrix) else max(np.shape(x)) for x in arrays)
    return max(tol * _max_abs(*arrays), dim * 2.0 ** -1074)


def _as_array(x, dtype=np.complex128, error=None) -> np.ndarray:
    """A new array of x by the one rule for outside numbers: ints (beyond 64
    bits too), floats and complex numbers, an ndarray's judged by its dtype.
    ShapeError for ragged data, InvalidInput for a string, None, boolean, other
    object, number out of range or complex number in a real dtype, or error for both."""
    try:  # in a real dtype, numpy would drop an imaginary part
        a = np.array(x, dtype=dtype if dtype == np.complex128 else None)
        if a.dtype.kind == "c" and dtype != np.complex128:
            raise (error or InvalidInput)("array entries must be real numbers, not complex")
        a = a.astype(dtype, copy=False)
    except (ValueError, TypeError, OverflowError) as exc:
        try:  # ragged: a sequence where numpy expects a number
            ragged = any(isinstance(e, (list, tuple, np.ndarray))
                         for e in np.array(x, dtype=object).flat)
        except ValueError:
            ragged = True
        if ragged:
            raise (error or ShapeError)(f"array data is ragged: {exc}") from exc
        raise (error or InvalidInput)(f"array entries must be numbers: {exc}") from exc
    kinds = {x.dtype.type} if isinstance(x, np.ndarray) and x.dtype != object else set()
    if not kinds:  # the leaves, a.ndim levels down, where numpy would absorb a boolean
        leaves = [x]
        for _ in range(a.ndim):
            leaves = chain.from_iterable(leaves)
        kinds = set(map(type, leaves)) - {np.ndarray}  # a 0-d array as numpy takes it
    if bool in kinds or not all(issubclass(k, Number) for k in kinds):
        names = ", ".join(sorted(k.__name__ for k in kinds))
        raise (error or InvalidInput)(f"array entries must be numbers (no booleans): {names}")
    return a


def _is_whole(value, least: int = 1) -> bool:
    """Whether value is an integer >= least, the rule for outside counts and
    dimensions: an int or numpy integer, never a float or a boolean."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= least)


class HermitianMatrix:
    """Complex Hermitian matrix; its constructor admits outside data by one rule.

    An array-like, converted once by ``_as_array``, must be square (else ShapeError),
    finite and Hermitian within ``TOL_HERM`` of its Hermitian part's largest entry
    modulus (else InvalidInput), and is symmetrized as by ``_trusted``; a
    HermitianMatrix given as entries is adopted: its array and what it has kept.
    Entries are stored row-major as a read-only complex128 array.  The eig and
    ``_scale()`` (an outside array's at admission) are computed once and kept;
    concurrent readers may race to fill them but the filled value is identical either way.
    """

    __slots__ = ("_m", "_eig", "_amax")

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._m, self._eig, self._amax = entries._m, entries._eig, entries._amax
            return
        m = np.ascontiguousarray(_as_array(entries))
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeError(f"expected a square matrix, got shape {m.shape}")
        self._own(m, outside=True)
        with np.errstate(over="ignore"):  # a defect past DBL_MAX is inf: refused
            defect = _max_abs(m - m.conj().T)
        if defect > TOL_HERM * self._scale():
            raise InvalidInput(f"matrix is not Hermitian (defect {defect:.3e})")

    def _own(self, m: np.ndarray, outside: bool, exact: bool = False) -> "HermitianMatrix":
        # Row 0 first, where a product is usually not Hermitian; a Hermitian (or exact) m
        # is kept bit for bit, any other halved as real: a complex 0.5 * turns -0.0 into 0.0.
        # One pass, with no warning: sum |m_ij|^2 < DBL_MAX keeps each part and modulus
        # finite and below DBL_MAX/2, so m + m* cannot overflow; a part past it sums halves.
        small = np.vdot(m, m).real < math.inf
        if not (small or np.isfinite(m).all()):  # in what the library made, an overflow
            raise (InvalidInput("matrix entries must be finite") if outside
                   else DomainError("a computed entry is beyond double range"))
        if not (exact or (m[0] == m[:, 0].conj()).all() and (m == m.conj().T).all()):
            if small or max(np.abs(m.real).max(), np.abs(m.imag).max()) < 2.0 ** 1023:
                m = m + m.conj().T
                m.view(np.float64)[...] *= 0.5
            else:
                m = _fold(m, 2.0) + _fold(m.conj().T, 2.0)
        if not (small or np.abs(m).max() < math.inf):  # so _scale() and each bound are finite
            raise DomainError("an entry modulus is beyond double range")
        m.flags.writeable = False
        self._m, self._eig, self._amax = m, None, None
        return self

    @classmethod
    def _trusted(cls, entries):
        """A cls of a product the library made, not copied if C-contiguous complex128,
        with no outside-number check, no Hermiticity rule and no PSD admission: ``U
        f(w) U*``, f >= 0, a Gram form or a composition of admitted matrices, Hermitian
        to rounding and symmetrized where not exactly.  A non-finite entry, which only
        an overflow there can make, or an entry modulus past DBL_MAX raises DomainError.
        Outside data enters only through the public constructors, which ``as_psd`` and
        ``is_psd`` call; exactly Hermitian arithmetic enters by ``_exact``."""
        return cls.__new__(cls)._own(np.ascontiguousarray(entries, dtype=np.complex128),
                                     outside=False)

    @classmethod
    def _exact(cls, entries):
        """``_trusted`` with no Hermitian test, for an array Hermitian bit for bit by
        construction: a sum, difference, real scaling, block matrix, permuted tensor
        product or transpose of admitted matrices, or ``eye/d``.  The test would pass
        and keep the array, so the bits are the same; the finiteness decision stays."""
        return cls.__new__(cls)._own(np.ascontiguousarray(entries, dtype=np.complex128),
                                     outside=False, exact=True)

    @property
    def dim(self) -> int:
        return self._m.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only view of the underlying array."""
        return self._m

    def _scale(self) -> float:
        """``max |h_ij|``, computed once into ``_amax``: the entries never change."""
        if self._amax is None:
            self._amax = float(np.abs(self._m).max())
        return self._amax

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
        of the cached ``eig()``, whose ascending order makes them its tail.
        DomainError where w[-1] overflowed: an inf cutoff would keep no pair."""
        w, u = self.eig()
        if not math.isfinite(w[-1]):
            raise DomainError("largest eigenvalue beyond double range")
        k = int(np.searchsorted(w, RANK_RTOL * max(float(w[-1]), 0.0), side="right"))
        return w[k:], u[:, k:]

    def pinv_form(self, v: np.ndarray) -> float:
        """``<v, C^+ v>`` on ``support()``; inf if v is off its range by > RANK_RTOL
        ||v||, DomainError where the form on the range overflows."""
        w, u = self.support()
        y = u.conj().T @ v  # v in the eigenbasis of C on its support
        if np.linalg.norm(v - u @ y) > RANK_RTOL * np.linalg.norm(v):
            return math.inf
        with np.errstate(over="ignore"):
            form = float(np.sum(np.abs(y) ** 2 / w))
        if math.isinf(form):  # finite, but inf would read as off the range
            raise DomainError("<v, C^+ v> is beyond double range")
        return form

    def norm(self) -> float:
        """Spectral norm."""
        w, _ = self.eig()
        return float(max(abs(w[0]), abs(w[-1])))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class PsdMatrix(HermitianMatrix):
    """Hermitian matrix admitted as positive semidefinite.

    The constructor, which only ``as_psd`` calls, admits what ``HermitianMatrix``
    admits if ``is_psd`` holds at TOL_PSD, small negative eigenvalues included.
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
        the computation that produced them: a connection not rank-deficient by
        construction (``opmeans._connect``), its one caller.  The
        smallest eigenvalue w_0 picks the branch: above bound, the entries are
        admitted as computed, a second eigh; within ±bound, the Gram form ``U
        max(w, 0) U*`` (Higham 1988), whose eig stays lazy, one eigh in all;
        below -bound, InvalidInput.
        """
        h = HermitianMatrix._trusted(entries)
        w, u = h.eig()
        if w[0] > bound:  # admitted with its own eigh: w_0 > bound >= 0 is its verdict
            (out := cls._exact(h.entries)).eig()
            return out
        if w[0] < -bound:
            raise InvalidInput(
                f"negative eigenvalue {w[0]:.3e} exceeds clamping tolerance"
            )
        return cls._gram(u, np.clip(w, 0.0, None))

    @classmethod
    def _gram(cls, x: np.ndarray, h=None) -> "PsdMatrix":
        """``X diag(h) X*`` for h >= 0, or ``X X*`` without h, admitted as PSD
        by construction."""
        return cls._trusted((x if h is None else x * h) @ x.conj().T)


def as_psd(x) -> PsdMatrix:
    """x if it is a PsdMatrix, else ``PsdMatrix(x)``: the admission of outside data
    and of ``CpMap``'s Choi matrix, whose test reads a HermitianMatrix's cached eig."""
    return x if isinstance(x, PsdMatrix) else PsdMatrix(x)


class Verdict(NamedTuple):
    """A check's residual against its bound; truthy iff ``residual <= bound``."""

    residual: float
    bound: float

    def __bool__(self) -> bool:
        return bool(self.residual <= self.bound)


def is_psd(h, tol: float = TOL_PSD) -> Verdict:
    """``max(0, -min eigenvalue)`` from the cached eig against ``_bound(tol,
    h)``: h is PSD within tol iff the verdict holds, at every scale.  An
    array-like h is admitted by ``HermitianMatrix`` first."""
    hm = h if isinstance(h, HermitianMatrix) else HermitianMatrix(h)
    return Verdict(max(0.0, -float(hm.eig()[0][0])), _bound(tol, hm))


def psd_sqrt(a) -> PsdMatrix:
    """PSD square root; negative eigenvalues within tolerance are clamped to 0.
    DomainError where the largest eigenvalue overflowed, as in ``support()``."""
    w, u = as_psd(a).eig()
    if not math.isfinite(w[-1]):
        raise DomainError("largest eigenvalue beyond double range")
    return PsdMatrix._gram(u, np.sqrt(np.clip(w, 0.0, None)))


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
    w, v = HermitianMatrix._trusted(m.conj().T @ m).eig()
    return PsdMatrix._gram(half @ v[:, w <= RANK_RTOL * cg.norm()])


def _fold(x: np.ndarray, s: float) -> np.ndarray:
    """x / s, dividing the float64 view: numpy divides a complex array by a
    real scalar as a product with 1/s."""
    return (np.ascontiguousarray(x).view(np.float64) / s).view(np.complex128)


class SpectralPair:
    """The commuting Radon-Nikodym pair of PSD A and B, folded to unit scale.

    Each operand is folded by its largest entry modulus ``s_A = max |A_ij|`` (1 for a
    zero operand), which takes no eigendecomposition and cannot overflow: each real and
    imaginary part is divided by s_A, correctly rounded, with no reciprocal 1/s_A, which
    is inf for a subnormal s_A.  ``Ĉ = A/s_A + B/s_B`` is a sum of PSD parts, each with
    one t: ``A = s_A Σ_k t_k (part k)``, ``B = s_B Σ_k (1 - t_k) (part k)`` (Kubo-Ando
    1980, Ando 1976).  The parts are ``z z*`` for each column z of Z and, last on a pair
    ``_factored`` by one thin SVD, R, formed only when weighed.  Else, with ``Ĉ = U
    diag(w) U*`` on its support, ``A' = W^{-1/2} U* (A/s_A) U W^{-1/2} = V diag(t) V*``
    and ``B' = I - A'`` commute, ``Z = U W^{1/2} V`` and ``Z*Z = V* diag(w) V``: two
    eigh, of Ĉ and of the r x r A'.  Each t_i is snapped onto {0, 1} within its own
    rounding error, and onto 1 where B = 0 (A = 0 gives 0), so rank-deficient directions
    carry no eigensolver noise and a zero operand gives exact zero connections.  An
    empty support gives 0-column arrays.  The arrays are read-only, as ``_shared_pair``
    shares the last pair built; 1 - t, ``tc``, is exact where t is near 1.
    """

    __slots__ = ("sa", "sb", "t", "tc", "z", "_xp")

    def __init__(self, a: HermitianMatrix, b: HermitianMatrix):
        sa, sb = a._scale(), b._scale()
        self.sa, self.sb = sa or 1.0, sb or 1.0
        self.t, self.tc, self.z, self._xp = self._factored(a, b) or self._eigh(a, b, sb)
        for x in (self.t, self.tc, self.z, *(self._xp or ())):
            x.flags.writeable = False

    def _factored(self, a: HermitianMatrix, b: HermitianMatrix):
        """(t, 1 - t, Z, (X, P)) from the cached eigs where one operand F is invertible,
        the other G has support r < n, and both s lie in [2^-299, 2^484], where zheevd
        does not rescale (RMIN, RMAX = 2^∓485), nor zsteqr a block above ε² s (SSFMIN =
        2^-405): eigh commutes with scaling by 2^k there, so the pair keeps joint
        homogeneity bit for bit, and each |w| <= n s is finite.  Else None.  ``X = U_F
        (w_F/s_F)^{1/2}``, ``Ŷ = U_G (w_G/s_G)^{1/2}`` on G's support and one thin SVD
        ``M = X^{-1} Ŷ = P Σ Q*``, P n x r, give ``Ĉ = X P diag(1 + σ²) P* X* + R``, ``Z
        = X P diag(1 + σ²)^{1/2}`` and ``R = Y Y*``, ``Y = X - (X P) P*``.  B thin gives
        ``t = 1/(1 + σ²)``, ``1 - t = σ²/(1 + σ²)``, R's part as σ = 0 (G has nothing
        there); A thin the two swapped; each form computed as such, accurate at its end.
        No t of an invertible side is snapped onto 0.  The SVD is backward stable, so by
        Weyl each σ_i is known to n ε σ_max: one at or below that is 0."""
        if not all(x._eig is not None and 2.0 ** -299 <= s <= 2.0 ** 484
                   for x, s in ((a, self.sa), (b, self.sb))):
            return None
        sup = [(*x.support(), s) for x, s in ((a, self.sa), (b, self.sb))]
        a_full, b_full = (w.size == a.dim for w, _, _ in sup)
        if a_full == b_full:
            return None
        (wf, uf, sf), (wg, ug, sg) = sup[::1 if a_full else -1]
        xf = np.sqrt(wf / sf)
        m = (uf.conj().T @ ug) * np.sqrt(wg / sg) / xf[:, None]
        p, sig, _ = np.linalg.svd(m, full_matrices=False)
        sig[sig <= uf.shape[0] * _EPS * sig.max(initial=0.0)] = 0.0
        sig2, x = np.append(sig * sig, 0.0), uf * xf
        q, s = 1.0 / (1.0 + sig2), sig2 / (1.0 + sig2)
        t, tc = (q, s) if a_full else (s, q)
        return t, tc, (x @ p) * np.sqrt(1.0 + sig2[:-1]), (x, p)

    def _eigh(self, a: HermitianMatrix, b: HermitianMatrix, sb: float):
        """(t, 1 - t, Z, None) from the eigh of Ĉ and of A'."""
        ah = _fold(a.entries, self.sa)
        w, u = HermitianMatrix._exact(ah + _fold(b.entries, self.sb)).support()
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
        return t, 1.0 - t, (u * np.sqrt(w)) @ v, None

    def product(self, h) -> np.ndarray:
        """``Z diag(h) Z*`` unsymmetrized, on a pair with no R part: the clamp's input."""
        return (self.z * h) @ self.z.conj().T

    def y(self) -> np.ndarray:
        """``Y = X - (X P) P*``, R = Y Y*, of a factored pair: no SVD, no eigh."""
        x, p = self._xp
        return x - (x @ p) @ p.conj().T

    def gram(self, h) -> PsdMatrix:
        """``Σ_k h_k (part k)``, one weight h_k >= 0 per part; R formed only where weighed."""
        r = self.z.shape[1]
        if h.size == r or not h[r]:
            return PsdMatrix._gram(self.z, h[:r])
        y = self.y()
        return PsdMatrix._gram(np.hstack([self.z, y]), np.r_[h[:r], np.full(y.shape[1], h[r])])

    def mass(self, h) -> float:
        """``Σ_k h_k tr(part k)``: ``|z|²`` per column z of Z, ``||Y||_F²`` for a weighed R."""
        r = self.z.shape[1]
        m = float(h[:r] @ (np.abs(self.z) ** 2).sum(axis=0))
        if h.size > r and h[r]:
            m += float(h[r]) * float((np.abs(self.y()) ** 2).sum())
        return m

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
