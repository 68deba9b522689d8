"""Dense Hermitian/PSD linear algebra kernel with an explicit tolerance policy.

Everything in this package runs through the primitives below: the cached eig of a
``HermitianMatrix``, its ``eigvals()`` and rank cutoff ``support()``, ``as_psd``, the
admission of outside data, ``is_psd``, the PSD square root, the ``SpectralPair`` (two
eigh, or one thin SVD from cached eigs) of every mean, connection and Lebesgue split,
and the one support of the limit oracle's stages.  Every rank, range and kernel
decision reads ``RANK_RTOL`` here alone, and so does the one scale rule: a matrix's
scale is 2^e, e the ``frexp`` exponent of its largest entry modulus, folded by
``ldexp``, exactly; each eig and eigvalsh is of the folded entries, at unit scale
beside e, and a result formed at unit scale is scaled by a power of two once.  Outside
data enters only through the public constructors, held to the one Hermiticity rule
``TOL_HERM``; what the library makes enters by ``_trusted``, a product, which
symmetrizes it, or by ``_exact``, Hermitian bit for bit.  Matrices are immutable; each
eig and largest entry modulus is computed once and kept, so instances are safe to
share across threads.  ``_RUN`` keeps the last pair and the document slots.
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


def _ldexp(x, e: int, what: str | None = None, top: int | None = None):
    """``x 2^e`` by parts, exact in the normal range, past DBL_MAX inf with no warning or,
    for a value ``what`` the library returns, DomainError; ``|x| < 2^top`` spares a scan."""
    if not isinstance(x, np.ndarray):  # a scalar, at a fraction of numpy's cost
        try:
            return math.ldexp(x, e)
        except OverflowError:
            y = math.copysign(math.inf, x)
    elif not e:
        return x
    else:
        v = np.ascontiguousarray(x).view(np.float64)
        if e < 0 or (top or math.frexp(float(np.abs(v).max(initial=0.0)))[1]) + e <= 1024:
            # no overflow; a product by a normal 2^e rounds as ldexp does, and is faster
            return (v * 2.0 ** e if -1022 <= e <= 1023 else np.ldexp(v, e)).view(x.dtype)
        with np.errstate(over="ignore"):
            y = np.ldexp(v, e).view(x.dtype)
    if what and not np.isfinite(y).all():  # top is a bound: only an inf is an overflow
        raise DomainError(f"{what} is beyond double range")
    return y


def _common(*mats) -> tuple[int, list[np.ndarray]]:
    """(e, the entries of mats times 2^-e), e >= 0 the least that keeps each entry below
    2^1023, so a sum or difference of two is at most DBL_MAX; below that nothing moves."""
    e = max(0, *(x._exp() - 1023 for x in mats))
    return e, [_ldexp(x.entries, -e) for x in mats]


def _unit(x: np.ndarray) -> tuple[int, np.ndarray]:
    """(e, x 2^-e) for a finite complex x, each real and imaginary part below 2^e."""
    e = math.frexp(float(np.abs(np.ascontiguousarray(x).view(np.float64)).max(initial=0.0)))[1]
    return e, _ldexp(x, -e)


def _trace_norm(x: np.ndarray) -> float:
    """The sum of x's singular values, by one SVD: x x*'s eigenvalues square its conditioning."""
    return float(np.linalg.svd(x, compute_uv=False).sum())


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
    HermitianMatrix given as entries is adopted with what it has kept.  Entries are a
    read-only row-major complex128 array.  The eig and ``_scale()`` are computed once
    and kept; concurrent readers may race to fill them with identical values.
    """

    __slots__ = ("_m", "_eig", "_amax")

    def __init__(self, entries):
        if isinstance(entries, HermitianMatrix):
            self._m, self._eig, self._amax = entries._m, entries._eig, entries._amax
            return
        m = _as_array(entries)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeError(f"expected a square matrix, got shape {m.shape}")
        self._own(m, outside=True)
        with np.errstate(over="ignore"):  # a defect past DBL_MAX is inf: refused
            defect = _max_abs(m - m.conj().T)
        if defect > TOL_HERM * self._scale():
            raise InvalidInput(f"matrix is not Hermitian (defect {defect:.3e})")

    def _own(self, m: np.ndarray, outside: bool, exact: bool = False,
             e: int = 0) -> "HermitianMatrix":
        # Row 0 first, where a product is usually not Hermitian; a Hermitian (or exact) m
        # is kept bit for bit, any other halved as real (a complex 0.5 * turns -0.0 into
        # 0.0).  sum |m_ij|^2 < DBL_MAX keeps m + m* finite; a part past it sums halves.
        m = np.ascontiguousarray(m, dtype=np.complex128)
        squares = np.vdot(m, m).real
        small = squares < math.inf
        if not (small or np.isfinite(m).all()):  # in what the library made, an overflow
            raise (InvalidInput("matrix entries must be finite") if outside
                   else DomainError("a computed entry is beyond double range"))
        if not (exact or (m[0] == m[:, 0].conj()).all() and (m == m.conj().T).all()):
            if small or max(np.abs(m.real).max(), np.abs(m.imag).max()) < 2.0 ** 1023:
                m = m + m.conj().T
                m.view(np.float64)[...] *= 0.5
            else:
                m = _ldexp(m, -1) + _ldexp(m.conj().T, -1)
        if e:  # formed at 2^-e of its scale, symmetrized, scaled once
            top = math.frexp(squares)[1] // 2 + 1 if small else None  # each |m_ij| < 2^top
            m = _ldexp(m, e, top=top)
            small = small and top + e <= 1023  # each modulus then below 2^1023
        amax = None if small else float(np.abs(m).max())
        if not (small or amax < math.inf):  # so _scale() and each bound are finite
            raise DomainError("an entry modulus is beyond double range")
        m.flags.writeable = False
        self._m, self._eig, self._amax = m, None, amax
        return self

    @classmethod
    def _trusted(cls, entries, e: int = 0):
        """A cls of a product the library made (``U f(w) U*``, f >= 0, a Gram form or a
        composition), symmetrized, times 2^e, with no Hermiticity rule or PSD admission;
        an entry or entry modulus past DBL_MAX, an overflow, raises DomainError."""
        return cls.__new__(cls)._own(entries, outside=False, e=e)

    @classmethod
    def _exact(cls, entries, e: int = 0):
        """``_trusted`` with no Hermitian test, for an array Hermitian bit for bit by
        construction: a sum, difference, real scaling, block matrix, permuted tensor
        product or transpose of admitted matrices, or ``eye/d``."""
        return cls.__new__(cls)._own(entries, outside=False, exact=True, e=e)

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

    def _exp(self) -> int:
        """e of the scale 2^e, with ``_scale()`` in [2^(e-1), 2^e) (0 for a zero matrix)."""
        return math.frexp(self._scale())[1]

    def _spectrum(self, cut: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
        """(w, U, e), computed once: the eigh of the entries folded by 2^-e, e =
        ``_exp()``, so each |w_i| <= n and LAPACK never rescales (outside 2^+-485);
        with cut, its tail above the rank cutoff ``RANK_RTOL * max(w[-1], 0)``."""
        if self._eig is None:
            e = self._exp()
            w, u = np.linalg.eigh(_ldexp(self._m, -e, top=e))
            w.flags.writeable = u.flags.writeable = False
            self._eig = (w, u, e)
        if not cut:
            return self._eig
        w, u, e = self._eig
        k = int(np.searchsorted(w, RANK_RTOL * max(float(w[-1]), 0.0), side="right"))
        return w[k:], u[:, k:], e

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and unitary columns, DomainError past DBL_MAX."""
        w, u, e = self._spectrum()
        return _ldexp(w, e, "an eigenvalue", self.dim.bit_length()), u

    def eigvals(self) -> np.ndarray:
        """Ascending eigenvalues at unit scale, scaled back once; DomainError past DBL_MAX."""
        e = self._exp()  # the kept eig's too, else an eigvalsh's
        w = self._eig[0] if self._eig else np.linalg.eigvalsh(_ldexp(self._m, -e, top=e))
        return _ldexp(w, e, "an eigenvalue", self.dim.bit_length())

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs above the rank cutoff, DomainError past DBL_MAX."""
        w, u, e = self._spectrum(cut=True)
        return _ldexp(w, e, "an eigenvalue", self.dim.bit_length()), u

    def _half(self, cut: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
        """(U, h, e), the square root ``2^e U diag(h) U*`` from the unit-scale eig, on the
        support with cut: ``h = (2^(e_w % 2) max(w, 0))^{1/2}``, e = e_w // 2."""
        w, u, e = self._spectrum(cut)
        return u, np.sqrt(_ldexp(np.clip(w, 0.0, None), e % 2)), e // 2

    def pinv_form(self, v: np.ndarray) -> float:
        """``<v, C^+ v>`` on the support at unit scale; inf if v is off its range by >
        RANK_RTOL ||v||, DomainError where the form overflows."""
        w, u, e = self._spectrum(cut=True)
        y = u.conj().T @ v  # v in the eigenbasis of C on its support
        if np.linalg.norm(v - u @ y) > RANK_RTOL * np.linalg.norm(v):
            return math.inf
        return float(_ldexp(np.sum(np.abs(y) ** 2 / w), -e, "<v, C^+ v>"))

    def norm(self) -> float:
        """Spectral norm; DomainError where it is beyond double range."""
        w, _, e = self._spectrum()
        return float(_ldexp(max(abs(w[0]), abs(w[-1])), e, "the spectral norm"))

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
        """A matrix the library made, PSD up to bound: the Gram form ``SpectralPair.gram``
        gives its one caller ``opmeans._clamp``, bound its round-off.  The least eigenvalue
        w_0 picks the branch: above bound, the entries are admitted as computed, a second
        eigh; within ±bound, the Gram form ``U max(w, 0) U*`` (Higham 1988), its eig
        lazy; below -bound, InvalidInput."""
        w, u, e = entries._spectrum()
        unit = _ldexp(bound, -e)
        if w[0] > unit:  # admitted with its own eigh: w_0 > bound >= 0 is its verdict
            (out := cls._exact(entries.entries))._amax = entries._amax
            out._spectrum()
            return out
        if w[0] < -unit:
            raise InvalidInput(f"negative eigenvalue {_ldexp(w[0], e):.3e} exceeds "
                               "clamping tolerance")
        return cls._gram(u, np.clip(w, 0.0, None), e)

    @classmethod
    def _gram(cls, x: np.ndarray, h=None, e: int = 0) -> "PsdMatrix":
        """``2^e X diag(h) X*`` for h >= 0, or ``2^e X X*`` without h: PSD by construction."""
        return cls._trusted((x if h is None else x * h) @ x.conj().T, e)


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
    """``max(0, -min eigenvalue)`` from the cached eig against ``_bound(tol, h)``, at
    every scale; an array-like h is admitted by ``HermitianMatrix`` first."""
    hm = h if isinstance(h, HermitianMatrix) else HermitianMatrix(h)
    w, _, e = hm._spectrum()
    return Verdict(max(0.0, -float(_ldexp(w[0], e))), _bound(tol, hm))


def psd_sqrt(a) -> PsdMatrix:
    """PSD square root, the Gram form of a's ``_half()``: negative eigenvalues within
    tolerance are clamped to 0."""
    return PsdMatrix._gram(*as_psd(a)._half())


def _ando_part(cf: HermitianMatrix, cg: PsdMatrix) -> PsdMatrix:
    """Ando's closed form ``Y P Y*`` of cg's part absolutely continuous to cf (Ando 1976), for
    any ``cg = Y Y*``, here ``Y = U_+ w_+^{1/2}`` at cg's unit scale: P projects onto M*M's
    eigenspace <= RANK_RTOL ||cg||, M = U_0* Y, U_0 cf's kernel; cg if cf is full rank or cg = 0."""
    u0 = cf._spectrum()[1][:, :cf.dim - cf._spectrum(cut=True)[0].size]
    if not u0.size or not cg._scale():
        return cg
    w, u, e = cg._spectrum(cut=True)
    y = u * np.sqrt(w)
    m = u0.conj().T @ y
    wm, v = HermitianMatrix._trusted(m.conj().T @ m).eig()
    return PsdMatrix._gram(y @ v[:, wm <= RANK_RTOL * w[-1]], None, e)


def _parallel_stages(a: HermitianMatrix, b: HermitianMatrix, k0: int, tol: float):
    """stage(k) = ``2^k a : b = 2^k a U (U* c_k U)^{-1} U* b``, ``c_k = 2^k a + b``, k >= k0,
    an r x r solve at unit scale: ran c_k = ran a + ran b is c0's support U (one eigh),
    and ``λ_max(c_k) <= 2^(k-k0) λ_max(c0)``, ``λ_min⁺(c_k) >= λ_min⁺(c0)`` keep c_k's own
    cut while ``w0_min > RANK_RTOL 2^(k-k0) w0_max``; past that, None.  InvalidInput below
    ``-tol max(2^k ||a||, ||b||)``, parallel_sum's check; DomainError past DBL_MAX."""
    (wa, _, ea), (wb, _, eb) = a._spectrum(), b._spectrum()
    ah, bh = _ldexp(a.entries, -ea, top=ea), _ldexp(b.entries, -eb, top=eb)
    s = max(k0 + ea, eb)  # c0 at 2^-s, each entry below 2, then c0 = 2^e U diag(w) U*
    w, u, e = HermitianMatrix._exact(_ldexp(ah, k0 + ea - s) + _ldexp(bh, eb - s))._spectrum(True)
    au, ub, e = ah @ u, u.conj().T @ bh, e + s
    ar, br = _ldexp(u.conj().T @ au, k0 + ea - e), _ldexp(ub @ u, eb - e)  # c_k's at 2^-e
    na, nb = (_ldexp(max(abs(x[0]), abs(x[-1])), f - e) for x, f in ((wa, k0 + ea), (wb, eb)))

    def stage(k: int) -> np.ndarray | None:
        t, f = 2.0 ** (k - k0), k + ea + eb - e  # the stage is 2^f x
        if w.size and not w[0] > RANK_RTOL * t * w[-1]:
            return None
        x = HermitianMatrix._trusted(au @ np.linalg.solve(t * ar + br, ub))
        low, bound = _ldexp(float(np.linalg.eigvalsh(x.entries)[0]), f - e), tol * max(t * na, nb)
        if low < -bound:  # both at c0's scale
            raise InvalidInput(f"negative eigenvalue {_ldexp(low, e):.3e} exceeds "
                               f"tolerance {_ldexp(bound, e):.3e}")
        return _ldexp(x.entries, f, "a parallel sum")
    return stage


class SpectralPair:
    """The commuting Radon-Nikodym pair of PSD A and B, folded to unit scale.

    Each operand is folded exactly by its scale 2^e, so ``Ĉ = 2^-e_A A + 2^-e_B B`` is a
    sum of PSD parts, each with one t: ``A = 2^e_A Σ_k t_k (part k)``, ``B = 2^e_B Σ_k
    (1 - t_k) (part k)`` (Kubo-Ando 1980, Ando 1976).  The parts are ``z z*`` for each
    column z of Z and, last on a pair ``_factored`` by one thin SVD, R, formed by
    ``gram``, the parts' one reader, from the kept (X, P).  Else, with ``Ĉ
    = U diag(w) U*`` on its support, ``A' = W^{-1/2} U* Â U W^{-1/2} = V diag(t) V*``
    and ``Z = U W^{1/2} V``: two eigh, of Ĉ and of A'.  Each t_i is snapped onto {0, 1}
    within its own rounding error, and onto 1 where B = 0, so a zero operand gives exact
    zero connections.  The arrays are read-only, shared; 1 - t is exact near t = 1.
    """

    __slots__ = ("ea", "eb", "t", "tc", "z", "_xp")

    def __init__(self, a: HermitianMatrix, b: HermitianMatrix):
        self.ea, self.eb = a._exp(), b._exp()
        self.t, self.tc, self.z, self._xp = self._factored(a, b) or self._eigh(a, b)
        for x in (self.t, self.tc, self.z, *(self._xp or ())):
            x.flags.writeable = False

    @staticmethod
    def _factored(a: HermitianMatrix, b: HermitianMatrix):
        """(t, 1 - t, Z, (X, P)) from the cached unit-scale eigs where F is invertible and
        G has support r < n, else None: ``X = U_F w_F^{1/2}``, ``Ŷ = U_G w_G^{1/2}`` and
        the thin SVD ``X^{-1} Ŷ = P Σ Q*`` give ``Z = X P diag(1 + σ²)^{1/2}`` and ``R =
        Y Y*``, ``Y = X - (X P) P*``.  B thin gives ``t = 1/(1 + σ²)``, ``1 - t = σ²/(1 +
        σ²)``, R's part as σ = 0; A thin the two swapped.  By Weyl a σ_i <= n ε σ_max is 0."""
        if a._eig is None or b._eig is None:
            return None
        sup = [x._spectrum(cut=True) for x in (a, b)]
        a_full, b_full = (w.size == a.dim for w, _, _ in sup)
        if a_full == b_full:
            return None
        (wf, uf, _), (wg, ug, _) = sup[::1 if a_full else -1]
        xf = np.sqrt(wf)
        m = (uf.conj().T @ ug) * np.sqrt(wg) / xf[:, None]
        p, sig, _ = np.linalg.svd(m, full_matrices=False)
        sig[sig <= uf.shape[0] * _EPS * sig.max(initial=0.0)] = 0.0
        sig2, x = np.append(sig * sig, 0.0), uf * xf
        q, s = 1.0 / (1.0 + sig2), sig2 / (1.0 + sig2)
        t, tc = (q, s) if a_full else (s, q)
        return t, tc, (x @ p) * np.sqrt(1.0 + sig2[:-1]), (x, p)

    def _eigh(self, a: HermitianMatrix, b: HermitianMatrix):
        """(t, 1 - t, Z, None) from the eigh of Ĉ and of A'."""
        ah = _ldexp(a.entries, -self.ea, top=self.ea)
        w, u = HermitianMatrix._exact(ah + _ldexp(b.entries, -self.eb, top=self.eb)).support()
        x = u / np.sqrt(w)
        ap = x.conj().T @ ah @ x
        t, v = np.linalg.eigh(0.5 * (ap + ap.conj().T))
        # Rounding in the product (n eps ||Â||) and in Ĉ's eigenvectors (n eps ||Ĉ||,
        # times t_i) reaches t_i as n eps (||Â|| + t_i ||Ĉ||) sum_j |V_ji|^2 / w_j.
        snap = (u.shape[0] * _EPS * (np.linalg.norm(ah) + t * np.linalg.norm(w))
                * ((np.abs(v) ** 2).T @ (1.0 / w)))
        t[t < snap] = 0.0
        t[(t > 1.0 - snap) | (b._scale() == 0.0)] = 1.0
        return t, 1.0 - t, (u * np.sqrt(w)) @ v, None

    def midpoint(self) -> tuple[np.ndarray, np.ndarray, int]:
        """(u, v, m): ``A = 2^m Σ_k u_k (part k)``, ``B = 2^m Σ_k v_k (part k)``, u v <= 2."""
        m = (self.ea + self.eb) // 2  # the midpoint exponent
        if max(self.ea, self.eb) - m > 1023:  # else 2^(e - m) t, t <= 1, rounds as ldexp
            raise DomainError(f"scales 2^{self.ea} and 2^{self.eb} lie beyond double range apart")
        return self.t * 2.0 ** (self.ea - m), self.tc * 2.0 ** (self.eb - m), m

    def gram(self, h, e: int = 0) -> PsdMatrix:
        """``2^e Σ_k h_k (part k)``, h_k >= 0; R = Y Y*, ``Y = X - (X P) P*``, only if weighed."""
        r = self.z.shape[1]
        if h.size == r or not h[r]:
            return PsdMatrix._gram(self.z, h[:r], e)
        x, p = self._xp
        y = x - (x @ p) @ p.conj().T
        return PsdMatrix._gram(np.hstack([self.z, y]), np.r_[h[:r], np.full(y.shape[1], h[r])], e)


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
