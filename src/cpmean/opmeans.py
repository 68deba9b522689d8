"""Operator means and Kubo-Ando connections on the PSD cone.

Every connection but the arithmetic mean (a plain sum) is evaluated on
``hermlinalg.SpectralPair``, the operands folded to unit scale as sums of commuting
parts: ``A = 2^e_A Σ_k t_k (part k)``, ``B = 2^e_B Σ_k (1 - t_k) (part k)``.  A
connection acts on commuting operands as its jointly homogeneous function of two
scalars u σ v (Kubo-Ando 1980), so ``A σ B = 2^m Σ_k (u_k σ v_k) (part k)`` at the
pair's ``midpoint()``: exact for singular inputs, and scaled once by 2^m.  The last
pair built is shared: the first connection of two operand objects costs the pair's
two eigh, or one thin SVD where it is factored from cached eigs, each next one none
where its result is rank-deficient by construction, and otherwise the clamp's.
``parallel_sum``, the pseudo-inverse formula ``A (A+B)^+ B``, one eigh and an
eigenvalue check, serves the limit oracle past its support test and the tests, not
package API (that is ``mean(PARALLEL)``): (A+B)^+ loses the smaller operand beyond
scales 1e4 apart.  Scale convention for the power mean: ``MeanKind.power(a)`` weighs
``a`` on B, so commuting scalars r (A) and s (B) give ``r**(1-a) * s**a``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, InvalidInput, ShapeError
from .hermlinalg import HermitianMatrix, PsdMatrix, _common, _shared_pair, as_psd

# Round-off bound of a mean: the clamp's relative to the result's largest entry
# modulus, parallel_sum's PSD check to ||A + B|| (the oracle's stages to max(||A||,
# ||B||)); the CLI's mean checks take it relative to their operands.
TOL_MEAN = 1e-7


def _check_pair(a, b) -> tuple[PsdMatrix, PsdMatrix]:
    a = as_psd(a)
    b = as_psd(b)
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a, b


def _connect(a, b, sigma) -> PsdMatrix:
    """``A σ B = 2^m Σ_k d_k (part k)``, ``d = u σ v`` at the pair's ``midpoint()``.

    sigma connects two scalars u, v >= 0, not both zero; a negative d raises
    InvalidInput.  A result rank-deficient by construction (a zero in d, or Z
    with fewer columns than rows, as on a factored pair) is that Gram form with
    no eigh; any other, with Z's columns as all its parts, goes through the clamp.
    """
    p = _shared_pair(*_check_pair(a, b))
    u, v, m = p.midpoint()
    d = sigma(u, v)
    if (d < 0.0).any():
        raise InvalidInput(f"connection kernel is negative ({d.min():.3e})")
    out = p.gram(d, m)
    if not d.all() or p.z.shape[1] < p.z.shape[0]:
        return out
    return PsdMatrix.clamped(out, TOL_MEAN * out._scale())


def _parallel(u, v):
    return u * v / (u + v)  # u v <= 2 at the midpoint exponent; v / (u + v) can underflow


def _log(u, v):
    """``(u - v)/(log u - log v)``, 0 where u or v is, u where they are equal.

    As ``m (1 - q)/(-log q)``, m = max(u, v), q = min/max: 1 - q is exact for
    q >= 1/2 and log q is taken of q itself, so nothing cancels; where q is
    subnormal or 0, and keeps few bits or none, log q is ``log min - log max``.
    """
    m, n = np.maximum(u, v), np.minimum(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = n / m
        out = m * (1.0 - q) / np.where(q >= 2.0 ** -1022, -np.log(q), np.log(m) - np.log(n))
    return np.where(q == 1.0, m, np.where(n > 0.0, out, 0.0))


def parallel_sum(a, b) -> HermitianMatrix:
    """Parallel sum ``A : B = A (A+B)^+ B``, the operator analog of parallel resistors.

    The pseudo-inverse formula, independent of the spectral pair that
    ``mean(PARALLEL, A, B)`` uses: the stages of ``ac_part_oracle``, its one caller,
    past their support test, and their reference in the tests.  Its range is ran(A)
    ∩ ran(B), and ``A : B <= A, B``; it is exact to round-off only while the scales
    of A and B are within about 1e4 of each other.  One eigh, of A + B, and one
    eigvalsh: the symmetrized formula is returned as computed, not clipped to
    the PSD cone, once its smallest eigenvalue is within -TOL_MEAN ||A + B||.
    """
    a, b = _check_pair(a, b)
    with np.errstate(over="ignore"):  # past DBL_MAX, _exact raises DomainError
        c = PsdMatrix._exact(a.entries + b.entries)
    w, u = c.support()  # (A+B)^+ inverts the eigenvalues its support keeps
    out = HermitianMatrix._trusted((a.entries @ (u / w)) @ (u.conj().T @ b.entries))
    # Round-off in the product is relative to the operands, not to the result,
    # which can be far smaller than A + B.
    low, bound = float(out.eigvals()[0]), TOL_MEAN * c.norm()
    if low < -bound:
        raise InvalidInput(f"negative eigenvalue {low:.3e} exceeds tolerance {bound:.3e}")
    return out


def geometric_mean(a, b) -> PsdMatrix:
    """Operator geometric mean A # B.

    Equals ``A^{1/2} (A^{-1/2} B A^{-1/2})^{1/2} A^{1/2}`` for invertible
    inputs; for singular inputs it is the maximal X with
    ``[[A, X], [X, B]] >= 0``, whose range is ran(A) ∩ ran(B).
    """
    return _connect(a, b, lambda u, v: np.sqrt(u) * np.sqrt(v))


@dataclass(frozen=True)
class ConnectionRep:
    """Operator monotone function on [0, inf) from its integral representation.

    Atoms (l_k > 0, w_k > 0) discretize the representing measure of
    ``g(t) = a + b t + sum_k w_k t (1 + l_k) / (t + l_k)``, a, b >= 0.  With
    ``power`` = p in (0, 1) and no other term, g is exactly t^p, which no
    finite atom sum is (their g(inf) is finite).  The represented f is g, or
    with ``transposed`` ``t g(1/t)``, with ``adjoint`` ``1/g(1/t)``, with both
    the dual ``t / g(t)``: the transforms flip flags, so they are exact and
    compose exactly.
    """

    a: float
    b: float
    atoms: tuple[tuple[float, float], ...]
    transposed: bool = False
    adjoint: bool = False
    power: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.a < np.inf and 0.0 <= self.b < np.inf):
            raise DomainError("constant and linear coefficients must be finite and "
                              f"nonnegative, got {self.a} and {self.b}")
        try:
            atoms = [(lam, wt) for lam, wt in self.atoms]
        except (TypeError, ValueError):
            raise DomainError(f"atoms must be (l, w) pairs, got {self.atoms}") from None
        for lam, wt in atoms:
            if not (lam > 0.0 and np.isfinite(lam)):
                raise DomainError(f"atom location must be positive, got {lam}")
            if not (wt > 0.0 and np.isfinite(wt)):
                raise DomainError(f"atom weight must be positive, got {wt}")
        if self.power is not None:
            if not 0.0 < self.power < 1.0:
                raise DomainError(f"power exponent must lie in (0, 1), got {self.power}")
            if self.a != 0.0 or self.b != 0.0 or self.atoms:
                raise DomainError("a power connection has no other term")
        # g vanishes on (0, inf) exactly when every coefficient does.
        elif self.adjoint and self.a == 0.0 and self.b == 0.0 and not self.atoms:
            raise DomainError("adjoint and dual transforms need f not identically zero")

    def _pair(self, u, v):
        """The connection ``u σ v`` of scalars u, v >= 0, not both zero.

        The adjoint ``u v / (v σ_g u)`` is summed as reciprocals, so its zeros
        at u = 0 (a > 0) or v = 0 (b > 0) are exact, not 0/0.  A power
        connection is its own adjoint, ``u^(1-p) v^p``.  DomainError where a term
        of the atoms' form overflows, as ``a u`` does for a > 1 and u near 2^1023.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if self.transposed:
            u, v = v, u
        if self.power is not None:
            return u ** (1.0 - self.power) * v ** self.power
        lam, wt = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        c = wt * (1.0 + lam)
        uu, vv = u[..., None], v[..., None]
        # u v <= 2 at a pair's midpoint; a denominator past DBL_MAX is inf, its term 0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            if not self.adjoint:
                d = self.a * u + self.b * v + (c * (uu * vv) / (lam * uu + vv)).sum(axis=-1)
            else:  # a reciprocal only where its coefficient is > 0: 0/0 is not 0
                d = 1.0 / ((c / (lam * vv + uu)).sum(axis=-1) + (self.a / u if self.a else 0.0)
                           + (self.b / v if self.b else 0.0))
        if not np.isfinite(d).all():  # a coefficient times a scalar past DBL_MAX
            raise DomainError("connection kernel is beyond double range")
        return d

    def scalar(self, t):
        """Evaluate f(t) for scalar or array t >= 0."""
        return self._pair(1.0, t)


@dataclass(frozen=True)
class MeanKind:
    """Tagged selector for a mean: arith, geo, harm, parallel, power, log, custom.

    ``alpha`` is given with power alone and ``rep`` with custom alone.
    """

    tag: str
    alpha: float | None = None
    rep: ConnectionRep | None = None

    _TAGS = ("arith", "geo", "harm", "parallel", "power", "log", "custom")

    def __post_init__(self):
        if self.tag not in self._TAGS:
            raise DomainError(f"unknown mean kind {self.tag!r}")
        if self.tag == "power":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise DomainError("power mean requires alpha in [0, 1]")
        elif self.alpha is not None:
            raise DomainError(f"{self.tag} mean takes no alpha")
        if self.tag == "custom":
            if self.rep is None:
                raise DomainError("custom mean requires a ConnectionRep")
        elif self.rep is not None:
            raise DomainError(f"{self.tag} mean takes no ConnectionRep")

    @classmethod
    def power(cls, alpha: float) -> "MeanKind":
        return cls("power", alpha=alpha)

    @classmethod
    def custom(cls, rep: ConnectionRep) -> "MeanKind":
        return cls("custom", rep=rep)

    @classmethod
    def parse(cls, text: str) -> "MeanKind":
        """Parse a CLI-style kind: geo|arith|harm|parallel|log|power:<alpha>;
        any other text is a tag, checked as ``MeanKind(text)`` checks it."""
        if text.startswith("power:"):
            try:
                alpha = float(text.split(":", 1)[1])
            except ValueError as exc:
                raise DomainError(f"bad power mean weight in {text!r}") from exc
            return cls.power(alpha)
        return cls(text)


ARITH = MeanKind("arith")
GEO = MeanKind("geo")
HARM = MeanKind("harm")
PARALLEL = MeanKind("parallel")
LOG = MeanKind("log")

# The two-scalar function u σ v of each fixed kind that ``_connect`` evaluates.
_SIGMA = {"harm": lambda u, v: 2.0 * _parallel(u, v), "parallel": _parallel, "log": _log}


def mean(kind: MeanKind, a, b) -> PsdMatrix:
    """The mean or connection ``A σ B`` of the given kind.

    arith is ``(A + B)/2``, harm ``2 (A : B)``, parallel ``A : B``, log the
    connection of ``(x - 1)/log x`` (the integral of the power mean over its
    weight in (0, 1)).  ``power(alpha)`` carries weight alpha on B and returns
    the admitted A or B itself at alpha 0 or 1.  A custom kind evaluates its
    ConnectionRep; without flags that is
    ``aA + bB + sum_k w_k (1+l_k)/l_k [(l_k A) : B]``.
    """
    if kind.tag == "arith":
        e, (a, b) = _common(*_check_pair(a, b))  # (A + B)/2 = 2^(e-1) (Â + B̂)
        return PsdMatrix._exact(a + b, e - 1)
    if kind.tag == "geo":
        return geometric_mean(a, b)
    if kind.tag == "power":
        if kind.alpha in (0.0, 1.0):
            return _check_pair(a, b)[int(kind.alpha)]
        sigma = power_rep(kind.alpha)._pair
    elif kind.tag == "custom":
        sigma = kind.rep._pair
    else:
        sigma = _SIGMA[kind.tag]
    return _connect(a, b, sigma)


def power_rep(alpha: float) -> ConnectionRep:
    """The power connection ``t^alpha``, 0 < alpha < 1, in closed form.

    Its two-scalar form ``u^(1-alpha) v^alpha`` is that of
    ``MeanKind.power(alpha)``.  The family is closed under the transforms,
    which stay exact flag flips: the transpose and the dual represent
    ``t^(1-alpha)``, the adjoint ``t^alpha`` itself, and all vanish where
    those functions do.
    """
    return ConnectionRep(0.0, 0.0, (), power=alpha)


def transpose_rep(rep: ConnectionRep) -> ConnectionRep:
    """Transpose transform, representing ``t f(1/t)``; realizes argument swap."""
    return replace(rep, transposed=not rep.transposed)


def adjoint_rep(rep: ConnectionRep) -> ConnectionRep:
    """Adjoint transform ``f(1/t)^(-1)``: exact; DomainError if f vanishes identically."""
    return replace(rep, adjoint=not rep.adjoint)


def dual_rep(rep: ConnectionRep) -> ConnectionRep:
    """Dual transform ``t / f(t)``, the adjoint of the transpose; exact, like it."""
    return adjoint_rep(transpose_rep(rep))
