"""Lebesgue-type decomposition of CP maps with respect to a reference map.

Everything is read from the ``hermlinalg.SpectralPair`` of (C_F, C_G) that
the operator means use, ``C_F = s_F Z diag(t) Z*`` and ``C_G = s_G Z diag(1 -
t) Z*``: the absolutely continuous part of G is ``s_G Z diag(1[t>0] (1-t))
Z*``, the singular part ``s_G Z diag(1[t=0] (1-t)) Z*``, and ``alpha_min =
(s_G/s_F) max (1-t)/t`` over t > 0.  ``decompose``, the one route to the
parts, returns both with ``alpha_min`` and the verdict of their sum against
C_G; ``is_singular`` and ``is_abs_continuous`` return their Verdict at
TOL_SPLIT.  ``_ando_ac``, Ando's closed form of the ac part, checks the split
without the pair; ``ac_part_oracle``, the parallel-sum limit ``lim_n (nF :
G)`` on the pseudo-inverse ``opmeans.parallel_sum``, Richardson-extrapolated
along n = 2^k up to 2^20, is a test oracle the package does not export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpmaps import CpMap, _check_same_dims
from .errors import NonConvergence
from .hermlinalg import (
    HermitianMatrix, PsdMatrix, SpectralPair, Verdict, _ando_part, _max_abs, _shared_pair)
from .opmeans import parallel_sum

# Parallel-sum-limit gate on the oracle's error estimate, relative to ||C_G||.
TOL_LIM = 1e-6
# Bound on the scale-free singularity and absolute-continuity residuals, and
# on the split's ac against ``_ando_ac`` relative to the largest entry of C_G.
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
    recon is ``max |C_ac + C_sing - C_G|`` against ``TOL_ADD * _max_abs(C_F, C_G)``.
    """

    ac: CpMap
    sing: CpMap
    alpha_min: float
    recon: Verdict


def _pair(f: CpMap, g: CpMap) -> SpectralPair:
    _check_same_dims(f, g)
    return _shared_pair(f.choi, g.choi)


def _split(p: SpectralPair) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The support rule phi = 1[t > 0] and the kernels of G's two parts:
    ``s_G (1 - t)`` on phi (absolutely continuous) and off it (singular)."""
    phi, h = p.t > 0.0, p.sb * (1.0 - p.t)
    return phi, np.where(phi, h, 0.0), np.where(phi, 0.0, h)


def _ando_ac(f: CpMap, g: CpMap) -> CpMap:
    """Ando's closed form of the absolutely continuous part of G, independent
    of the spectral pair: ``hermlinalg._ando_part`` of C_F and C_G."""
    _check_same_dims(f, g)
    return CpMap(f.dim_in, f.dim_out, _ando_part(f.choi, g.choi))


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
    estimate exceeds the gate.
    """
    _check_same_dims(f, g)
    gnorm = g.choi.norm()
    tol = TOL_LIM * gnorm
    lam = f.choi.support()[0]
    ratio = 2.0 * gnorm / lam[0] if lam.size else 0.0
    k0 = min(max(math.ceil(math.log2(ratio)) if ratio > 0.0 else 1, 1), _ORACLE_STEPS - 2)
    row, best, moves, ok = [], None, [math.inf], 0
    for k in range(k0, _ORACLE_STEPS + 1):
        x = parallel_sum(PsdMatrix._trusted((2.0 ** k) * f.choi.entries), g.choi).entries
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
    w, u = HermitianMatrix(best).eig()
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
    F and G are scaled by c and s.  DomainError where s_G/s_F or s_F/s_G overflows.
    """
    p = _pair(f, g)
    phi, h_ac, h_sing = _split(p)
    ac, sing = PsdMatrix._gram(p.z, h_ac), PsdMatrix._gram(p.z, h_sing)
    resid = _max_abs(ac.entries + sing.entries - g.choi.entries)
    tp = p.t[phi]
    return LebesgueSplit(
        ac=CpMap(f.dim_in, f.dim_out, ac),
        sing=CpMap(f.dim_in, f.dim_out, sing),
        alpha_min=p.ratio() * float(((1.0 - tp) / tp).max(initial=0.0)),
        recon=Verdict(resid, TOL_ADD * _max_abs(f.choi.entries, g.choi.entries)),
    )


def is_singular(f: CpMap, g: CpMap) -> Verdict:
    """``max t (1 - t)`` over the spectrum of A' against TOL_SPLIT: the residual
    is 0 iff F and G are mutually singular.  A' is that of the folded pair, so
    scaling F or G leaves the residual as it is."""
    t = _pair(f, g).t
    return Verdict(float((t * (1.0 - t)).max(initial=0.0)), TOL_SPLIT)


def is_abs_continuous(g: CpMap, f: CpMap) -> Verdict:
    """Share of tr C_G carried by the t = 0 directions of A' (the trace of the
    singular part over that of C_G) against TOL_SPLIT: the residual is 0 iff G
    is F-absolutely continuous, and invariant under scaling F and G.

    The equivalent range criterion supp(B') <= supp(A') in the RN picture is
    exercised by the test suite.
    """
    p = _pair(f, g)
    total = float(np.trace(g.choi.entries).real)
    if not total > 0.0:
        return Verdict(0.0, TOL_SPLIT)
    sing = _split(p)[2] @ (np.abs(p.z) ** 2).sum(axis=0)
    return Verdict(float(sing) / total, TOL_SPLIT)
