"""Lebesgue-type decomposition of CP maps with respect to a reference map.

Everything is read from the ``hermlinalg.SpectralPair`` of (C_F, C_G) that the operator
means use, ``C_F = s_F Σ_k t_k (part k)`` and ``C_G = s_G Σ_k (1 - t_k) (part k)``: the
absolutely continuous part of G is ``s_G Σ_{t_k > 0} (1 - t_k) (part k)``, the singular
part the same sum over t_k = 0, and ``alpha_min = (s_G/s_F) max (1-t)/t`` over t > 0.
``decompose``, the one route to the parts, returns both with ``alpha_min`` and the
verdict of their sum against C_G; ``is_singular`` and ``is_abs_continuous`` return their
Verdict at TOL_SPLIT.  Ando's closed form ``hermlinalg._ando_part`` checks the split
without the pair; ``ac_part_oracle``, the parallel-sum limit ``lim_n (nF : G)`` on the
pseudo-inverse ``opmeans.parallel_sum``, Richardson-extrapolated along n = 2^k up to
2^20, is a test oracle the package does not export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpmaps import CpMap, _check_same_dims
from .errors import DomainError, NonConvergence
from .hermlinalg import (
    HermitianMatrix, PsdMatrix, SpectralPair, Verdict, _bound, _max_abs, _shared_pair)
from .opmeans import parallel_sum

# Parallel-sum-limit gate on the oracle's error estimate, relative to ||C_G||.
TOL_LIM = 1e-6
# Bound on the scale-free singularity and absolute-continuity residuals, and
# on the split's ac against ``_ando_part`` relative to the largest entry of C_G.
TOL_SPLIT = 1e-8
# Bound on max |ac + sing - C_G|, relative to the largest entry of C_F and C_G.
TOL_ADD = 1e-9

# The oracle's schedule: n = 2^k up to 2^_ORACLE_STEPS, Richardson depth 4.
_ORACLE_STEPS = 20
_RICHARDSON_DEPTH = 4


@dataclass(frozen=True)
class LebesgueSplit:
    """Decomposition G = ac + sing with ac absolutely continuous and sing singular.

    alpha_min is the least alpha with C_ac <= alpha * C_F (0 when ac vanishes);
    recon is ``max |C_ac + C_sing - C_G|`` against ``_bound(TOL_ADD, C_F, C_G)``.
    """

    ac: CpMap
    sing: CpMap
    alpha_min: float
    recon: Verdict


def _pair(f: CpMap, g: CpMap) -> SpectralPair:
    _check_same_dims(f, g)
    return _shared_pair(f.choi, g.choi)


def ac_part_oracle(f: CpMap, g: CpMap) -> CpMap:
    """Parallel-sum-limit construction of the absolutely continuous part.

    ``n F : G`` is a rational function of n, analytic at n = infinity, whose
    1/n series converges for n > ||C_G|| / lambda_min^+(C_F).  The iterates at
    n = 2^k, from the first k with n at least twice that radius (at most 18)
    up to the fixed budget n = 2^20, feed a Richardson table of depth 4; the
    result is returned once two successive differences of its diagonal are
    within TOL_LIM ||C_G||.  Raises NonConvergence if that never happens, with
    the larger of the last two differences as its estimate, or if the
    extrapolant is not PSD within the same gate, with ``-lambda_min``; either
    estimate exceeds the gate.  Each iterate is ``parallel_sum``'s, one eigh
    and one eigvalsh, unclipped; the extrapolant alone is gated and clipped to
    the PSD cone, one eigh more.
    """
    _check_same_dims(f, g)
    gnorm = g.choi.norm()
    tol = TOL_LIM * gnorm
    lam = f.choi.support()[0]
    ratio = 2.0 * gnorm / lam[0] if lam.size else 0.0
    k0 = min(max(math.ceil(math.log2(ratio)) if ratio > 0.0 else 1, 1), _ORACLE_STEPS - 2)
    row, best, moves, ok = [], None, [math.inf], 0
    for k in range(k0, _ORACLE_STEPS + 1):
        x = parallel_sum(PsdMatrix._exact((2.0 ** k) * f.choi.entries), g.choi).entries
        new = [x]
        for j, r in enumerate(row[:_RICHARDSON_DEPTH - 1], start=1):
            new.append(new[-1] + (new[-1] - r) / (2.0 ** j - 1.0))
        row, prev, best = new, best, new[-1]
        if prev is not None:
            moves.append(float(np.abs(best - prev).max()))
            ok = ok + 1 if moves[-1] <= tol else 0
            if ok == 2:
                break
    else:
        est = max(moves[-2:])
        raise NonConvergence(f"parallel-sum limit moved {est:.3e} at n={2 ** _ORACLE_STEPS}, "
                             f"tolerance {tol:.3e}", est)
    w, u = HermitianMatrix._exact(best).eig()
    if w[0] < -tol:
        raise NonConvergence(f"extrapolated limit has eigenvalue {w[0]:.3e}, "
                             f"tolerance {tol:.3e}", -float(w[0]))
    return CpMap(f.dim_in, f.dim_out, PsdMatrix._gram(u, np.clip(w, 0.0, None)))


def decompose(f: CpMap, g: CpMap) -> LebesgueSplit:
    """Lebesgue decomposition of G relative to F.

    ac and sing are Gram forms of the one spectral pair, so both are PSD by
    construction; how closely their sum reproduces C_G is the split's recon
    verdict, returned whether or not it holds.  alpha_min is ``s_G/s_F`` times
    the largest ``(1 - t) / t`` over the support of A': it scales by s/c when
    F and G are scaled by c and s.  DomainError where s_G/s_F, s_F/s_G or
    alpha_min itself overflows.
    """
    p = _pair(f, g)
    # the support rule phi = 1[t > 0]: G's kernel s_G (1 - t) on phi is ac, off it sing
    phi, h = p.t > 0.0, p.sb * p.tc
    r, q = p.ratio(), float((p.tc[phi] / p.t[phi]).max(initial=0.0))
    if math.isinf(r * q):
        raise DomainError(f"alpha_min = {r:.3g} * {q:.3g} is beyond double range")
    ac = p.gram(np.where(phi, h, 0.0))
    sing = p.gram(np.where(phi, 0.0, h))
    resid = _max_abs(ac.entries + sing.entries - g.choi.entries)
    return LebesgueSplit(
        ac=CpMap(f.dim_in, f.dim_out, ac),
        sing=CpMap(f.dim_in, f.dim_out, sing),
        alpha_min=r * q,
        recon=Verdict(resid, _bound(TOL_ADD, f.choi, g.choi)),
    )


def is_singular(f: CpMap, g: CpMap) -> Verdict:
    """``max t (1 - t)`` over the spectrum of A' against TOL_SPLIT: the residual
    is 0 iff F and G are mutually singular.  A' is that of the folded pair, so
    scaling F or G leaves the residual as it is."""
    p = _pair(f, g)
    return Verdict(float((p.t * p.tc).max(initial=0.0)), TOL_SPLIT)


def is_abs_continuous(g: CpMap, f: CpMap) -> Verdict:
    """Share of tr C_G carried by the t = 0 directions of A' (the trace of the
    singular part over that of C_G) against TOL_SPLIT: the residual is 0 iff G
    is F-absolutely continuous, and invariant under scaling F and G.

    The equivalent range criterion supp(B') <= supp(A') in the RN picture is
    exercised by the test suite.
    """
    p = _pair(f, g)
    # in the pair's folded units, where neither trace overflows
    total = float((np.diagonal(g.choi.entries).real / p.sb).sum())
    if not total > 0.0:
        return Verdict(0.0, TOL_SPLIT)
    sing = p.mass(np.where(p.t > 0.0, 0.0, p.tc))
    return Verdict(sing / total, TOL_SPLIT)
