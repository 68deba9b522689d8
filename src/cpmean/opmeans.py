"""Operator means and Kubo-Ando connections on the PSD cone.

Every connection but the arithmetic mean (a plain sum) is evaluated on
``hermlinalg.SpectralPair``, the commuting pair of the operands folded to
unit scale, ``A = s_A Z diag(t) Z*`` and ``B = s_B Z diag(1 - t) Z*``.  A
connection acts on commuting operands as its jointly homogeneous function of
two scalars u σ v, so ``A σ B = s_A Z diag(t σ r(1 - t)) Z*``, ``r = s_B/s_A``
(Kubo-Ando 1980): exact for singular inputs and at every ratio of scales up
to about 1.8e308 either way (r and 1/r finite); beyond it, DomainError.
The last pair built is shared (``hermlinalg._shared_pair``): the first
connection of two operand objects costs the pair's two eigendecompositions
and the clamp's (``PsdMatrix.clamped``), each next one the clamp's alone:
one for a rank-deficient result, two for one above the clamp's bound.
``parallel_sum`` keeps the pseudo-inverse formula ``A (A+B)^+ B`` as the
independent reference of the parallel-sum limit.

Every mean is evaluated by ``mean(kind, A, B)``.  Scale convention for the
power mean: ``MeanKind.power(a)`` carries weight ``a`` on B, so commuting
scalars r (A) and s (B) give ``r**(1-a) * s**a``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, ShapeError
from .hermlinalg import PsdMatrix, _max_abs, _shared_pair, as_psd, pinv_psd

# Round-off bound of a mean.  Its clamp is relative to the result's largest
# entry modulus for the connections on the spectral pair and to ||A + B|| for
# parallel_sum; the CLI's mean checks take it relative to their operands.
TOL_MEAN = 1e-7


def _check_pair(a, b) -> tuple[PsdMatrix, PsdMatrix]:
    a = as_psd(a)
    b = as_psd(b)
    if a.dim != b.dim:
        raise ShapeError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return a, b


def _connect(a, b, sigma) -> PsdMatrix:
    """``A σ B = s_A Z diag(t σ r(1-t)) Z*`` from the folded pair, then the clamp.

    sigma connects two scalars u, v >= 0, not both zero.  The ratio r keeps
    both within range, where the product of the two scales would underflow;
    ``SpectralPair.ratio`` raises DomainError where r or 1/r overflows.
    """
    p = _shared_pair(*_check_pair(a, b))
    d = sigma(p.t, p.ratio() * (1.0 - p.t))
    out = p.sa * ((p.z * d) @ p.z.conj().T)
    return PsdMatrix.clamped(out, TOL_MEAN * _max_abs(out))


def _parallel(u, v):
    return u * (v / (u + v))


def _log(u, v):
    """``(u - v)/(log u - log v)``, 0 where u or v is, u where they are equal.

    As ``m (1 - q)/(-log q)``, m = max(u, v), q = min/max: 1 - q is exact for
    q >= 1/2 and log q is taken of q itself, so nothing cancels.
    """
    m = np.maximum(u, v)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.minimum(u, v) / m
        out = m * (1.0 - q) / -np.log(q)
    return np.where(q == 1.0, m, np.where(q > 0.0, out, 0.0))


def parallel_sum(a, b) -> PsdMatrix:
    """Parallel sum ``A : B = A (A+B)^+ B``, the operator analog of parallel resistors.

    The pseudo-inverse formula, independent of the spectral pair that
    ``mean(PARALLEL, A, B)`` uses: the reference of ``ac_part_oracle`` and the
    worked examples.  Its range is ran(A) ∩ ran(B), and ``A : B <= A, B``.
    """
    a, b = _check_pair(a, b)
    c = PsdMatrix._trusted(a.entries + b.entries)
    out = a.entries @ pinv_psd(c).entries @ b.entries
    # Round-off in the product is relative to the operands, not to the result,
    # which can be far smaller than A + B.
    return PsdMatrix.clamped(out, TOL_MEAN * c.norm())


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
        connection is its own adjoint, ``u^(1-p) v^p``.
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
        if not self.adjoint:
            return self.a * u + self.b * v + (c * uu * vv / (lam * uu + vv)).sum(axis=-1)
        k = (c / (lam * vv + uu)).sum(axis=-1)
        with np.errstate(divide="ignore"):
            if self.a > 0.0:
                k = k + self.a / u
            if self.b > 0.0:
                k = k + self.b / v
        return 1.0 / k

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
        a, b = _check_pair(a, b)
        return PsdMatrix._trusted(0.5 * (a.entries + b.entries))
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
