"""Registry of worked examples with closed-form answers, runnable by name.

Each entry is a function of ``(rep, **params)`` that recomputes one scenario
from scratch and checks the known closed-form result at a fixed tolerance on
``rep``, the report ``run_example`` names ``example <key>``.  Parameters
(dimension, angle, weights, seeds) have defaults and accept overrides; a count
or dimension must be an integer >= 1 and a seed an integer >= 0.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import cpmaps, lebesgue
from .cpmaps import (
    TOL_FLAGS,
    cond_exp_diag,
    cond_exp_rotated,
    cond_exp_tensor,
    depolarizing,
    from_choi,
    functional,
    identity,
    index_cp,
    mean_cp,
    schur,
    state_mean_quantities,
    tensor,
    unitary_conj,
)
from .errors import DomainError, UnknownExample
from .hermlinalg import _ando_part, _is_whole, _max_abs
from .opmeans import GEO, HARM, geometric_mean
from .report import Report


def _whole(key: str, value, least: int) -> int:
    """value as an int; one that fails ``_is_whole`` (a float, a boolean or a
    smaller value) is a DomainError."""
    if not _is_whole(value, least):
        raise DomainError(f"{key} must be an integer >= {least}, got {value!r}")
    return int(value)


def _rand_psd(rng: np.random.Generator, dim: int, rank: int | None = None, lo: float = 0.25,
              hi: float = 4.0, trace_one: bool = False) -> np.ndarray:
    """Random PSD of the given rank (default dim), nonzero eigenvalues on [lo, hi]."""
    rank = dim if rank is None else rank
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    q, _ = np.linalg.qr(g)
    w = rng.uniform(lo, hi, size=rank)
    m = (q * w) @ q.conj().T
    if trace_one:
        m = m / np.trace(m).real
    return 0.5 * (m + m.conj().T)


def example_quantum_channels(rep: Report, d: int | None = None) -> None:
    """Geometric and harmonic means of the identity and depolarizing channels."""
    dims = [2, 3, 4] if d is None else [_whole("d", d, 1)]
    for dd in dims:
        ident = identity(dd)
        depol = depolarizing(dd)
        rep.check(f"d={dd}: id and depol unital",
                  max(ident.unital_defect(), depol.unital_defect()), TOL_FLAGS)
        geo = mean_cp(GEO, ident, depol)
        rep.check(f"d={dd}: id#depol = (1/d) id",
                  _max_abs(geo.choi.entries - ident.choi.entries / dd), 1e-8)
        harm = mean_cp(HARM, ident, depol)
        rep.check(f"d={dd}: id!depol = 2/(d^2+1) id",
                  _max_abs(harm.choi.entries
                           - 2.0 / (dd * dd + 1) * ident.choi.entries), 1e-8)


def example_non_unital(rep: Report) -> None:
    """Unital inputs whose geometric mean vanishes (hence is not unital)."""
    phi = identity(2)
    psi = unitary_conj(np.diag([1.0, -1.0]))
    rep.check("both maps unital", max(phi.unital_defect(), psi.unital_defect()), TOL_FLAGS)
    geo = mean_cp(GEO, phi, psi)
    rep.check("id # conj(diag(1,-1)) = 0", _max_abs(geo.choi.entries), 1e-8)


def example_states(rep: Report, seed: int = 11) -> None:
    """Means of positive functionals reduce to means of their density matrices."""
    rng = np.random.default_rng(_whole("seed", seed, 0))
    pairs = [
        ("commuting", np.diag([0.5, 0.5]), np.diag([0.9, 0.1])),
        ("random qubit", _rand_psd(rng, 2, trace_one=True),
         _rand_psd(rng, 2, trace_one=True)),
    ]
    for label, rho, sigma in pairs:
        got = mean_cp(GEO, functional(rho), functional(sigma)).choi.entries
        want = geometric_mean(rho, sigma).entries.T
        rep.check(f"{label}: Choi of functional mean = (rho#sigma)^T",
                  _max_abs(got - want), 1e-7)
    q = state_mean_quantities(np.diag([0.5, 0.5]), np.diag([0.9, 0.1]))
    want = math.sqrt(0.45) + math.sqrt(0.05)
    rep.check("commuting pair: all three trace quantities equal sqrt(.45)+sqrt(.05)",
              max(abs(q.gm_trace - want), abs(q.sqrt_trace - want),
                  abs(q.fidelity - want)), 1e-8)


def example_schur_multiplier(rep: Report, seed: int = 5, count: int = 20) -> None:
    """Schur multipliers: the mean of multipliers is the multiplier of the mean."""
    rng = np.random.default_rng(_whole("seed", seed, 0))
    count = _whole("count", count, 1)
    worst = 0.0
    for _ in range(count):
        a = _rand_psd(rng, 3)
        b = _rand_psd(rng, 3)
        lhs = mean_cp(GEO, schur(a), schur(b)).choi.entries
        rhs = schur(geometric_mean(a, b)).choi.entries
        worst = max(worst, _max_abs(lhs - rhs))
    rep.check(f"S_A # S_B = S_(A#B) over {count} random PSD pairs in M3",
              worst, 1e-7)


def example_adjoint_maps(rep: Report) -> None:
    """Conjugation maps whose mean vanishes although the symbols have a mean."""
    a = np.diag([2.0, 1.0])
    b = np.diag([1.0, 2.0])
    psi_a = cpmaps.from_kraus([a])
    psi_b = cpmaps.from_kraus([b])
    geo = mean_cp(GEO, psi_a, psi_b)
    rep.check("Psi_A # Psi_B = 0 for A=diag(2,1), B=diag(1,2)",
              _max_abs(geo.choi.entries), 1e-8)
    c = geometric_mean(a, b).entries
    rep.check("symbol mean A#B = sqrt(2) I", _max_abs(c - math.sqrt(2) * np.eye(2)),
              1e-12)
    psi_c = cpmaps.from_kraus([c])
    rep.check("conjugation by A#B is 2*id (so the two routes differ)",
              _max_abs(psi_c.choi.entries - 2.0 * identity(2).choi.entries), 1e-12)


def example_ce_tensor(rep: Report, rho: tuple[float, ...] = (0.75, 0.25),
                      sigma: tuple[float, ...] = (0.5, 0.5)) -> None:
    """Tensor-slice conditional expectations: mean and index closed forms."""
    rho = tuple(float(x) for x in np.atleast_1d(rho))
    sigma = tuple(float(x) for x in np.atleast_1d(sigma))
    if len(rho) != len(sigma):
        raise DomainError(f"rho and sigma must have the same length, got {rho} and {sigma}")
    for w in (rho, sigma):  # the closed forms below need both sums finite
        if all(0.0 < x < math.inf for x in w) and not (
                math.isfinite(sum(w)) and math.isfinite(sum(1.0 / x for x in w))):
            raise DomainError(f"weights {w} and their reciprocals must have finite sums")
    n = len(rho)
    e1 = cond_exp_tensor(1, sigma)
    e2 = cond_exp_tensor(2, rho)

    # closed form of the Choi matrices through the generic tensor constructor
    def trace_channel(weights):
        state = np.diag(weights).astype(np.complex128)
        return cpmaps.choi_from_action(
            n, n, lambda unit: np.trace(state @ unit) * np.eye(n))

    closed_e1 = tensor(identity(n), trace_channel(sigma))
    closed_e2 = tensor(trace_channel(rho), identity(n))
    for label, got, closed in (("E1 matches permuted C_id (x) bold-sigma", e1, closed_e1),
                               ("E2 matches permuted bold-rho (x) C_id", e2, closed_e2)):
        want = closed.choi.entries  # relative to its largest entry, at every weight scale
        rep.check(f"C of {label}", _max_abs(got.choi.entries - want) / _max_abs(want), 1e-12)

    inv_sum_rho = sum(1.0 / x for x in rho)
    inv_sum_sigma = sum(1.0 / x for x in sigma)
    lam_rho, lam_sigma = 1.0 / inv_sum_rho, 1.0 / inv_sum_sigma
    rep.check("Ind(E1) = sum(1/sigma_i)",
              abs(index_cp(e1) - inv_sum_sigma) / inv_sum_sigma, 1e-9)
    rep.check("Ind(E2) = sum(1/rho_i)",
              abs(index_cp(e2) - inv_sum_rho) / inv_sum_rho, 1e-9)

    geo = mean_cp(GEO, e1, e2)
    # square roots taken before the products, which can leave the double range
    lam = math.sqrt(lam_rho) * math.sqrt(lam_sigma)
    rep.check("E1 # E2 = sqrt(lam_rho lam_sigma) id (relative)",
              _max_abs(geo.choi.entries - lam * identity(n * n).choi.entries) / lam, 1e-7)
    want_index = math.sqrt(inv_sum_rho) * math.sqrt(inv_sum_sigma)
    rep.check("Ind(E1 # E2) = sqrt(sum(1/rho) sum(1/sigma)) (relative)",
              abs(index_cp(geo) - want_index) / want_index, 1e-7)


def example_rotation(rep: Report, theta: float | None = None) -> None:
    """Conditional expectations onto rotated diagonals: mean collapses to id/2."""
    e1 = cond_exp_diag(2)
    generic = [math.pi / 6, math.pi / 4, 1.0] if theta is None else [float(theta)]
    degenerate = [0.0, math.pi / 2] if theta is None else []
    for th in generic + degenerate:
        e2 = cond_exp_rotated(th)
        geo = mean_cp(GEO, e1, e2)
        if abs(math.sin(2 * th)) > 1e-3:
            want = 0.5 * identity(2).choi.entries
            rep.check(f"theta={th:.4f}: E1#E2 = id/2",
                      _max_abs(geo.choi.entries - want), 1e-7)
        else:
            rep.check(f"theta={th:.4f}: E1#E2 = E1",
                      _max_abs(geo.choi.entries - e1.choi.entries), 1e-8)


def example_kosaki_fidelity(rep: Report, seed: int = 23, count: int = 20) -> None:
    """Trace-quantity chain between the geometric mean and Uhlmann fidelity."""
    rng = np.random.default_rng(_whole("seed", seed, 0))
    count = _whole("count", count, 1)
    worst_slack = 0.0
    for _ in range(count):
        dim = int(rng.integers(2, 4))
        rho = _rand_psd(rng, dim, trace_one=True)
        sigma = _rand_psd(rng, dim, trace_one=True)
        q = state_mean_quantities(rho, sigma)
        worst_slack = max(worst_slack, q.gm_trace - q.sqrt_trace,
                          q.sqrt_trace - q.fidelity)
    rep.check(f"chain gm <= sqrt <= fidelity on {count} random pairs (slack)",
              worst_slack, 1e-9)
    worst_eq = 0.0
    for _ in range(5):
        d = np.sort(rng.uniform(0.05, 1.0, size=3))
        e = np.sort(rng.uniform(0.05, 1.0, size=3))
        q = state_mean_quantities(np.diag(d / d.sum()), np.diag(e / e.sum()))
        worst_eq = max(worst_eq, abs(q.gm_trace - q.fidelity))
    rep.check("equality of the chain on commuting pairs", worst_eq, 1e-8)


def example_ando_recovery(rep: Report, seed: int = 31, count: int = 10) -> None:
    """Scalar-domain maps recover the classical operator decomposition."""
    rng = np.random.default_rng(_whole("seed", seed, 0))
    count = _whole("count", count, 1)
    worst_ac = 0.0
    for _ in range(count):
        ranks = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        phi_a, phi_b = (from_choi(1, 4, _rand_psd(rng, 4, r, 0.4, 1.5)) for r in ranks)
        # ac part of the spectral pair against Ando's closed form, relative to B
        got = lebesgue.decompose(phi_a, phi_b).ac.choi.entries
        want = _ando_part(phi_a.choi, phi_b.choi).entries
        worst_ac = max(worst_ac, _max_abs(got - want) / _max_abs(phi_b.choi.entries))
    rep.check(f"ac part = Ando's closed form (relative) over {count} pairs",
              worst_ac, lebesgue.TOL_SPLIT)


REGISTRY: dict[str, Callable[..., None]] = {
    "quantum-channels": example_quantum_channels,
    "non-unital": example_non_unital,
    "states": example_states,
    "schur-multiplier": example_schur_multiplier,
    "adjoint-maps": example_adjoint_maps,
    "ce-tensor": example_ce_tensor,
    "rotation": example_rotation,
    "kosaki-fidelity": example_kosaki_fidelity,
    "ando-recovery": example_ando_recovery,
}


def run_example(name: str, **params) -> Report:
    """The report of one registry entry, run with optional parameter overrides."""
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise UnknownExample(f"unknown example {name!r}; known: {known}")
    rep = Report(f"example {name}")
    try:
        REGISTRY[name](rep, **params)
    except TypeError as exc:
        raise UnknownExample(f"example {name!r} rejects parameters "
                             f"{sorted(params)}: {exc}") from exc
    return rep
