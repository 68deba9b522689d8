"""CP maps between matrix algebras, stored as Choi matrices.

Indexing convention, fixed once for the whole package (0-based, row-major):
a CP map ``F: M_m -> M_n`` has Choi matrix ``C`` of size mn with

    C[i*n + k, j*n + l] = F(e_ij)[k, l],

i.e. block (i, j) of C is the image of the matrix unit e_ij.  Under this
convention the Choi matrix of ``x -> A x A*`` is ``vec(A) vec(A)*`` with
``vec(A)[i*n + k] = A[k, i]`` (column stacking).

The Choi correspondence is an order isomorphism: F <= G in the CP order iff
C_F <= C_G as PSD matrices, which is what makes every operator-mean statement
below a statement about Choi matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidInput, NotCompletelyPositive, ShapeError
from .hermlinalg import (
    TOL_PSD,
    HermitianMatrix,
    PsdMatrix,
    Verdict,
    _as_array,
    _bound,
    _common,
    _is_whole,
    _ldexp,
    as_psd,
    psd_sqrt,
)
from . import opmeans
from .opmeans import MeanKind

TOL_FLAGS = 1e-8  # absolute: max |U*U - I| in unitary_conj, the examples' unital defects


@dataclass(frozen=True)
class CpMap:
    """Completely positive map M_m -> M_n, held as its Choi matrix alone, admitted by
    ``as_psd`` (a PsdMatrix as itself); one it refuses raises NotCompletelyPositive."""

    dim_in: int
    dim_out: int
    choi: PsdMatrix

    def __post_init__(self):
        _check_dims(self.dim_in, self.dim_out)
        try:
            object.__setattr__(self, "choi", as_psd(self.choi))
        except InvalidInput as exc:
            raise NotCompletelyPositive(str(exc)) from exc
        if self.choi.dim != self.dim_in * self.dim_out:
            raise ShapeError(
                f"Choi matrix has size {self.choi.dim}, expected "
                f"{self.dim_in * self.dim_out}"
            )

    def choi_blocks(self) -> np.ndarray:
        """Choi entries reshaped to (i, k, j, l) with C4[i,k,j,l] = F(e_ij)[k,l]."""
        m, n = self.dim_in, self.dim_out
        return self.choi.entries.reshape(m, n, m, n)

    def apply(self, x) -> np.ndarray:
        """Evaluate the map on an m x m matrix."""
        x = _as_array(x)
        if x.shape != (self.dim_in, self.dim_in):
            raise ShapeError(
                f"input must be {self.dim_in} x {self.dim_in}, got {x.shape}"
            )
        return np.einsum("ij,ikjl->kl", x, self.choi_blocks())

    def unital_defect(self) -> float:
        """``max |F(1) - 1|``, F(1) the sum of the diagonal blocks F(e_ii)."""
        f1 = np.einsum("ikil->kl", self.choi_blocks())
        return float(np.abs(f1 - np.eye(self.dim_out)).max())

    def trace_defect(self) -> float:
        """``max |Tr F(e_ij) - delta_ij|``: the partial trace over the output leg."""
        tr_blocks = np.einsum("ikjk->ij", self.choi_blocks())
        return float(np.abs(tr_blocks - np.eye(self.dim_in)).max())

    def __add__(self, other: "CpMap") -> "CpMap":
        if not isinstance(other, CpMap):
            return NotImplemented
        _check_same_dims(self, other)
        with np.errstate(over="ignore"):  # past DBL_MAX, _exact raises DomainError
            c = self.choi.entries + other.choi.entries
        return CpMap(self.dim_in, self.dim_out, PsdMatrix._exact(c))

    def __rmul__(self, scalar: float) -> "CpMap":
        c = _as_array(scalar, np.float64, DomainError)
        # c max |C_ij| bounds every real and imaginary part of the product
        if np.ndim(c) or not (c >= 0.0 and math.isfinite(float(c) * self.choi._scale())):
            raise DomainError("CP maps admit only nonnegative real scaling to a finite "
                              f"Choi matrix, got {scalar!r}")
        return CpMap(self.dim_in, self.dim_out, PsdMatrix._exact(float(c) * self.choi.entries))

    def __repr__(self):
        return f"CpMap({self.dim_in} -> {self.dim_out})"


def _check_dims(*dims) -> None:
    """ShapeError unless every dimension is an integer >= 1 by ``_is_whole``."""
    if not all(map(_is_whole, dims)):
        raise ShapeError(f"dimensions must be positive integers, got {dims}")


def _check_same_dims(f: CpMap, g: CpMap):
    if (f.dim_in, f.dim_out) != (g.dim_in, g.dim_out):
        raise ShapeError(
            f"map dimensions differ: {f.dim_in}->{f.dim_out} vs {g.dim_in}->{g.dim_out}"
        )


def from_choi(dim_in: int, dim_out: int, choi) -> CpMap:
    """Build a CpMap from outside Choi data, which ``CpMap`` admits by ``as_psd``;
    data that is not Hermitian or not PSD raises NotCompletelyPositive."""
    return CpMap(dim_in, dim_out, choi)


def choi_from_action(dim_in: int, dim_out: int,
                     action: Callable[[np.ndarray], np.ndarray]) -> CpMap:
    """Choi matrix of a map from its action on matrix units, admitted by
    ``from_choi``: a map that does not preserve Hermiticity is rejected."""
    m, n = dim_in, dim_out
    c = np.zeros((m * n, m * n), dtype=np.complex128)
    for i in range(m):
        for j in range(m):
            unit = np.zeros((m, m), dtype=np.complex128)
            unit[i, j] = 1.0
            block = _as_array(action(unit))
            if block.shape != (n, n):
                raise ShapeError(f"action must return {n} x {n} matrices")
            c[i * n:(i + 1) * n, j * n:(j + 1) * n] = block
    return from_choi(m, n, c)


def from_kraus(ops: Sequence[np.ndarray], dim_in: int | None = None,
               dim_out: int | None = None) -> CpMap:
    """Build a CpMap from Kraus operators (each dim_out x dim_in), converted as
    one (k, dim_out, dim_in) stack; its Choi matrix, a Gram form, is PSD by
    construction, so no admission runs.  The operators are not kept."""
    if not all(d is None or _is_whole(d) for d in (dim_in, dim_out)):
        raise ShapeError(f"Kraus operators must be dim_out x dim_in, positive integers, "
                         f"got {dim_out!r} x {dim_in!r}")
    try:
        ks = _as_array(ops)
    except ShapeError as exc:
        raise ShapeError(f"inconsistent Kraus operator shapes (each must be a 2-D "
                         f"dim_out x dim_in array): {exc}") from exc
    if ks.shape[:1] == (0,):
        if dim_in is None or dim_out is None:
            raise ShapeError("empty Kraus list requires explicit dimensions")
        ks = np.zeros((0, dim_out, dim_in), dtype=np.complex128)
    if ks.ndim != 3:
        raise ShapeError("Kraus operators must be 2-D arrays")
    if not np.isfinite(ks).all():
        raise InvalidInput("Kraus operator entries must be finite")
    n, m = ks.shape[1:]
    dim_in = m if dim_in is None else dim_in
    dim_out = n if dim_out is None else dim_out
    if (n, m) != (dim_out, dim_in):
        raise ShapeError("Kraus operators must be dim_out x dim_in")
    # the rows vec(K) = K^T.reshape(-1), transposed: C = sum_K vec(K) vec(K)* = v v*
    v = np.ascontiguousarray(ks.transpose(0, 2, 1)).reshape(len(ks), dim_in * dim_out).T
    with np.errstate(over="ignore"):  # past DBL_MAX, _trusted raises DomainError
        return CpMap(dim_in, dim_out, PsdMatrix._gram(v))


def kraus_decompose(f: CpMap) -> list[np.ndarray]:
    """Kraus operators from the spectral decomposition of the Choi matrix: the
    columns of ``U W^{1/2}`` on its support are their vec(K), as in ``from_kraus``."""
    return list(f.choi._root().T.reshape(-1, f.dim_in, f.dim_out).transpose(0, 2, 1))


def order_cp(f: CpMap, g: CpMap, tol: float = TOL_PSD) -> tuple[Verdict, Verdict]:
    """``(F <= G, G <= F)`` in the CP order from the eigenvalues of C_G - C_F alone, at
    their common power of two: ``max(0, -lambda_min)`` and ``max(0, lambda_max)`` against
    ``tol`` times the largest entry modulus of C_F and C_G, unmoved by joint scaling."""
    _check_same_dims(f, g)
    e, (cf, cg) = _common(f.choi, g.choi)
    w = _ldexp(HermitianMatrix._exact(cg - cf).eigvals()[[0, -1]], e)
    bound = _bound(tol, f.choi, g.choi)
    return Verdict(max(0.0, -float(w[0])), bound), Verdict(max(0.0, float(w[-1])), bound)


def mean_cp(kind: MeanKind, f: CpMap, g: CpMap) -> CpMap:
    """Mean of CP maps: the Choi matrix of the result is the mean of the Chois."""
    _check_same_dims(f, g)
    m = opmeans.mean(kind, f.choi, g.choi)
    return CpMap(f.dim_in, f.dim_out, m)


def geo_certificate(f: CpMap, g: CpMap, theta: CpMap, tol: float = TOL_PSD) -> Verdict:
    """Block-matrix certificate of [[C_F, C_T], [C_T, C_G]] >= 0.

    ``max(0, -lambda_min)`` of the block, from its eigenvalues alone, against
    ``tol * max |block_ij|``, so the verdict does not change under joint
    scaling.  Holds for theta = geometric mean (and anything below it), fails
    for any strictly larger candidate; this is the maximality characterization.
    """
    _check_same_dims(f, g)
    _check_same_dims(f, theta)
    e, (cf, cg, ct) = _common(f.choi, g.choi, theta.choi)
    w = HermitianMatrix._exact(np.block([[cf, ct], [ct.conj().T, cg]])).eigvals()
    return Verdict(max(0.0, -float(_ldexp(w[0], e))), _bound(tol, f.choi, g.choi, theta.choi))


def tensor(f: CpMap, g: CpMap) -> CpMap:
    """Tensor product map, with Choi legs permuted to the fixed convention."""
    m1, n1, m2, n2 = f.dim_in, f.dim_out, g.dim_in, g.dim_out
    with np.errstate(over="ignore"):  # past DBL_MAX, _exact raises DomainError
        t = np.kron(f.choi.entries, g.choi.entries)
    t = t.reshape(m1, n1, m2, n2, m1, n1, m2, n2).transpose(0, 2, 1, 3, 4, 6, 5, 7)
    mn = m1 * m2 * n1 * n2
    return CpMap(m1 * m2, n1 * n2, PsdMatrix._exact(t.reshape(mn, mn)))


def compose(after: CpMap, first: CpMap) -> CpMap:
    """Composition ``after ∘ first``, applying `after` to each Choi block of `first`."""
    if first.dim_out != after.dim_in:
        raise ShapeError(
            f"cannot compose {after.dim_in}->{after.dim_out} after "
            f"{first.dim_in}->{first.dim_out}"
        )
    c4 = first.choi_blocks()
    x4 = after.choi_blocks()
    out = np.einsum("ikjl,kplq->ipjq", c4, x4)
    mn = first.dim_in * after.dim_out
    return CpMap(first.dim_in, after.dim_out, PsdMatrix._trusted(out.reshape(mn, mn)))


def index_cp(f: CpMap) -> float:
    """Pimsner-Popa index: the least lam > 0 with lam*F - id completely positive.

    Equals <v, C^+ v> for v the unnormalized maximally entangled vector when v
    lies in ran(C); otherwise the infimum runs over an empty set and the index
    is +inf.
    """
    if f.dim_in != f.dim_out:
        raise ShapeError("index is defined for square maps only")
    return f.choi.pinv_form(np.eye(f.dim_in).reshape(-1))  # v = vec(1)


# ---------------------------------------------------------------------------
# Channel zoo
# ---------------------------------------------------------------------------

def identity(d: int) -> CpMap:
    """Identity channel on M_d, Kraus map of 1; Choi is the maximally entangled vv*."""
    _check_dims(d)
    return from_kraus(np.eye(d)[None])


def depolarizing(d: int) -> CpMap:
    """Completely depolarizing channel x -> Tr(x)/d; Choi is I/d."""
    _check_dims(d)
    return CpMap(d, d, PsdMatrix._exact(np.eye(d * d) / d))


def unitary_conj(u) -> CpMap:
    """Unitary conjugation x -> U x U*."""
    u = _as_array(u, error=DomainError)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DomainError("conjugation requires a square matrix")
    d = u.shape[0]
    # a non-finite u is rejected before u* u, whose NaN would pass the test
    if not np.isfinite(u).all() or np.abs(u.conj().T @ u - np.eye(d)).max() > TOL_FLAGS:
        raise DomainError("matrix is not a finite unitary within tolerance")
    return from_kraus(u[None])


def schur(a) -> CpMap:
    """Schur (entrywise) multiplier x -> A ∘ x; CP iff A is PSD.

    A symbol that ``as_psd`` does not admit raises DomainError; the Choi
    matrix holds A on rows and columns i*n + i, so it is PSD with A."""
    try:
        a = as_psd(a)
    except InvalidInput as exc:
        raise DomainError(f"Schur multiplier is CP only for PSD symbols: {exc}") from exc
    n = a.dim
    diag = np.arange(n) * (n + 1)
    c = np.zeros((n * n, n * n), dtype=np.complex128)
    c[np.ix_(diag, diag)] = a.entries
    return CpMap(n, n, PsdMatrix._exact(c))


def cond_exp_diag(d: int) -> CpMap:
    """Conditional expectation of M_d onto its diagonal: Kraus operators |i><i|."""
    _check_dims(d)
    return from_kraus(np.array([np.diag(e) for e in np.eye(d)]))


def cond_exp_rotated(theta: float) -> CpMap:
    """Conditional expectation of M_2 onto the rotated diagonal subalgebra.

    The subalgebra is u diag(...) u* for the rotation u by angle theta, the
    Kraus operators are u|i><i|u*.
    """
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=np.complex128,
    )
    return from_kraus(np.array([np.outer(col, col.conj()) for col in u.T]))


def cond_exp_tensor(factor: int, weights: Sequence[float]) -> CpMap:
    """Slice conditional expectation of M_n ⊗ M_n onto one tensor factor.

    ``factor=1`` keeps the first leg and averages the second against the state
    with the given diagonal weights: ``x1 ⊗ x2 -> x1 ⊗ Tr(diag(w) x2) 1``,
    the Kraus map of ``1 ⊗ sqrt(w_j)|k><j|``; ``factor=2`` is the mirror
    image.  Weights must be finite and positive; a genuine state has them summing to 1.
    """
    if factor not in (1, 2):
        raise DomainError("factor must be 1 or 2")
    w = _as_array(weights, float, DomainError)
    if w.ndim != 1 or len(w) < 1 or not np.all(np.isfinite(w) & (w > 0.0)):
        raise DomainError("weights must be a nonempty vector of finite positive numbers")
    eye = np.eye(len(w))
    slices = np.array([np.sqrt(wj) * np.outer(ek, ej) for ej, wj in zip(eye, w) for ek in eye])
    return from_kraus(np.kron(eye, slices) if factor == 1 else np.kron(slices, eye))


def functional(rho) -> CpMap:
    """CP functional x -> Tr(rho x) as a map M_n -> M_1; Choi is rho^T."""
    rho = as_psd(rho)
    return CpMap(rho.dim, 1, PsdMatrix._exact(rho.entries.T))


class StateMeanQuantities(NamedTuple):
    gm_trace: float
    sqrt_trace: float
    fidelity: float


def state_mean_quantities(rho, sigma) -> StateMeanQuantities:
    """Three trace quantities interpolating a pair of density matrices.

    Returns (Tr(rho # sigma), Tr(rho^{1/2} sigma^{1/2}), Tr sqrt(rho^{1/2}
    sigma rho^{1/2})); the chain gm <= sqrt <= fidelity always holds, with
    equality iff the states commute.
    """
    rho, sigma = opmeans._check_pair(rho, sigma)
    gm = float(np.trace(opmeans.geometric_mean(rho, sigma).entries).real)
    rh = psd_sqrt(rho).entries
    sh = psd_sqrt(sigma).entries
    sqrt_trace = float(np.trace(rh @ sh).real)
    # rho^{1/2} sigma rho^{1/2} is the Gram form of rho^{1/2} sigma^{1/2}
    w = PsdMatrix._gram(rh @ sh).eigvals()
    fidelity = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return StateMeanQuantities(gm, sqrt_trace, fidelity)
