"""Lebesgue-type decomposition of CP maps with respect to a reference map.

Everything is read from the ``hermlinalg.SpectralPair`` of (C_F, C_G) that the operator
means use, ``C_F = 2^e_F Σ_k t_k (part k)`` and ``C_G = 2^e_G Σ_k (1 - t_k) (part k)``:
the absolutely continuous part of G is ``2^e_G Σ_{t_k > 0} (1 - t_k) (part k)``, the
singular part the same sum over t_k = 0, and ``alpha_min = 2^(e_G - e_F) max (1-t)/t``
over t > 0.  Each part is the pair's ``gram`` of those weights: ``decompose`` returns
both with ``alpha_min`` and the verdict of their sum against C_G, ``is_abs_continuous``
the singular part's trace share, ``is_singular`` reads t alone, each Verdict at
TOL_SPLIT.  Ando's closed form ``hermlinalg._ando_part`` checks the split without the
pair; ``ac_part_oracle``, the parallel-sum limit ``lim_n (nF : G)`` on the one support
of nF + G (``hermlinalg._parallel_stages``), Richardson-extrapolated along n = 2^k up
to 2^20, is a test oracle the package does not export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpmaps import CpMap, _check_same_dims
from .errors import NonConvergence
from .hermlinalg import (HermitianMatrix, PsdMatrix, SpectralPair, Verdict, _bound, _ldexp,
                         _max_abs, _parallel_stages, _shared_pair)
from .opmeans import TOL_MEAN, parallel_sum

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
    1/n series converges for n > ||C_G|| / lambda_min^+(C_F), a radius read in
    log2 from the unit-scale eigs.  The iterates at n = 2^k, from the first k
    with n at least twice it (at most 18) up to the budget n = 2^20, feed a
    Richardson table of depth 4, returned once two successive differences of
    its diagonal are within TOL_LIM ||C_G||.  NonConvergence if twice the
    radius is past the budget (estimate ||C_G||), if the differences never
    settle (the larger of the last two), or if the extrapolant is not PSD
    within the gate (``-lambda_min``).  An iterate is a solve on the support of nF + G
    or past its test ``parallel_sum``'s; only the extrapolant is clipped, one eigh more.
    """
    _check_same_dims(f, g)
    gnorm = g.choi.norm()
    tol = TOL_LIM * gnorm
    lam, _, ef = f.choi._spectrum(cut=True)
    wg, _, eg = g.choi._spectrum()
    ratio = 2.0 * wg[-1] / lam[0] if lam.size else 0.0  # twice the radius, times 2^(ef - eg)
    k0 = math.ceil(math.log2(ratio) + eg - ef) if ratio > 0.0 else 1
    if k0 > _ORACLE_STEPS:
        raise NonConvergence(f"the series of nF : G needs n >= 2^{k0}, past the budget", gnorm)
    k0 = min(max(k0, 1), _ORACLE_STEPS - 2)
    stage = _parallel_stages(f.choi, g.choi, k0, TOL_MEAN)
    row, best, moves, ok = [], None, [math.inf], 0
    for k in range(k0, _ORACLE_STEPS + 1):
        if (x := stage(k)) is None:  # past the one support's test: on its own support
            x = parallel_sum(PsdMatrix._exact(f.choi.entries, k), g.choi).entries
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
    verdict, returned whether or not it holds.  alpha_min is ``2^(e_G - e_F)``
    times the largest ``(1 - t) / t`` over the support of A': DomainError past
    DBL_MAX, and a subnormal double (or 0) below 2^-1022.
    """
    p = _pair(f, g)
    # the support rule phi = 1[t > 0]: G's kernel 2^e_G (1 - t) on phi is ac, off it sing
    phi = p.t > 0.0
    alpha_min = _ldexp(float((p.tc[phi] / p.t[phi]).max(initial=0.0)), p.eb - p.ea, "alpha_min")
    ac = p.gram(np.where(phi, p.tc, 0.0), p.eb)
    sing = p.gram(np.where(phi, 0.0, p.tc), p.eb)
    resid = _max_abs(ac.entries + sing.entries - g.choi.entries)
    return LebesgueSplit(
        ac=CpMap(f.dim_in, f.dim_out, ac),
        sing=CpMap(f.dim_in, f.dim_out, sing),
        alpha_min=alpha_min,
        recon=Verdict(resid, _bound(TOL_ADD, f.choi, g.choi)),
    )


def is_singular(f: CpMap, g: CpMap) -> Verdict:
    """``max t (1 - t)`` over the spectrum of A' against TOL_SPLIT: 0 iff F and G are
    mutually singular.  t is read as if each operand were folded by its largest entry
    ``2^e μ``, as ``a t / (a t + b (1 - t))``, a and b the two 1/μ: no scale moves it."""
    p = _pair(f, g)
    a, b = (1.0 / (_ldexp(x.choi._scale(), -e) or 1.0) for x, e in ((f, p.ea), (g, p.eb)))
    res = a * b * p.t * p.tc / (a * p.t + b * p.tc) ** 2  # t (1 - t) of that t
    return Verdict(float(res.max(initial=0.0)), TOL_SPLIT)


def is_abs_continuous(g: CpMap, f: CpMap) -> Verdict:
    """Share of tr C_G carried by the t = 0 directions of A' (the trace of the
    singular part's ``gram``, at unit scale, over that of C_G) against TOL_SPLIT: 0 iff
    G is F-absolutely continuous, and invariant under scaling F and G.

    The equivalent range criterion supp(B') <= supp(A') in the RN picture is
    exercised by the test suite.
    """
    p = _pair(f, g)
    # in the pair's folded units, where neither trace overflows
    total = float(_ldexp(np.diagonal(g.choi.entries).real, -p.eb).sum())
    if not total > 0.0:
        return Verdict(0.0, TOL_SPLIT)
    sing = p.gram(np.where(p.t > 0.0, 0.0, p.tc)).entries
    return Verdict(float(np.trace(sing).real) / total, TOL_SPLIT)
