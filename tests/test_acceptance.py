"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertion itself.
"""

import json
import math

import numpy as np
import pytest

from cpmean.channeldoc import channel_to_doc, read_doc
from cpmean.cli import main as cli_main
from cpmean.cpmaps import (
    compose,
    cond_exp_diag,
    cond_exp_rotated,
    cond_exp_tensor,
    depolarizing,
    from_choi,
    identity,
    index_cp,
    mean_cp,
    schur,
    state_mean_quantities,
    tensor,
    unitary_conj,
)
from cpmean.lebesgue import ac_part_oracle, decompose
from cpmean.opmeans import (
    ARITH,
    GEO,
    HARM,
    MeanKind,
    adjoint_rep,
    dual_rep,
    geometric_mean,
    mean,
    parallel_sum,
    transpose_rep,
)

from conftest import (
    clamp_psd,
    max_abs,
    min_eig,
    random_cp,
    random_density,
    random_psd,
    random_unitary,
    write_channel,
)
from jacobi import power_atoms
from test_lebesgue import (
    alpha_by_bisection, alpha_closed_form, below, direct_rn_compression, planted_pair,
    shorted_to_subspace)


def report(num: int, label: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, f"criterion {num} failed: {label}"


def test_criterion_01_identity_vs_depolarizing():
    worst = 0.0
    for d in (2, 3, 4):
        ident, depol = identity(d), depolarizing(d)
        geo = mean_cp(GEO, ident, depol).choi.entries
        harm = mean_cp(HARM, ident, depol).choi.entries
        worst = max(worst,
                    max_abs(geo - ident.choi.entries / d),
                    max_abs(harm - 2.0 / (d * d + 1) * ident.choi.entries))
    report(1, f"id#depol and id!depol closed forms, d in 2..4 (err {worst:.2e} <= 1e-8)",
           worst <= 1e-8)


def test_criterion_02_schur_multipliers():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        lhs = mean_cp(GEO, schur(a), schur(b)).choi.entries
        rhs = schur(geometric_mean(a, b).entries).choi.entries
        worst = max(worst, max_abs(lhs - rhs))
    report(2, f"S_A # S_B = S_(A#B), 20 random M3 pairs (err {worst:.2e} <= 1e-7)",
           worst <= 1e-7)


def test_criterion_03_vanishing_means():
    from cpmean.cpmaps import from_kraus
    adj = mean_cp(GEO, from_kraus([np.diag([2.0, 1.0])]),
                  from_kraus([np.diag([1.0, 2.0])])).choi.entries
    nonu = mean_cp(GEO, identity(2),
                   unitary_conj(np.diag([1.0, -1.0]))).choi.entries
    worst = max(max_abs(adj), max_abs(nonu))
    report(3, f"conjugation-map and non-unital means vanish (err {worst:.2e} <= 1e-8)",
           worst <= 1e-8)


def test_criterion_04_tensor_conditional_expectations():
    e1 = cond_exp_tensor(1, (0.5, 0.5))
    e2 = cond_exp_tensor(2, (0.75, 0.25))
    lam_rho, lam_sigma = 3.0 / 16.0, 0.25
    geo = mean_cp(GEO, e1, e2)
    scale = math.sqrt(lam_rho * lam_sigma)
    err_mean = max_abs(geo.choi.entries - scale * identity(4).choi.entries) / scale
    want_index = math.sqrt((16.0 / 3.0) * 4.0)
    err_index = abs(index_cp(geo) - want_index) / want_index
    worst = max(err_mean, err_index)
    report(4, f"tensor CE mean and index closed forms (rel err {worst:.2e} <= 1e-7)",
           worst <= 1e-7)


def test_criterion_05_rotated_conditional_expectations():
    e1 = cond_exp_diag(2)
    worst_generic = 0.0
    for theta in (math.pi / 6, math.pi / 4, 1.0):
        geo = mean_cp(GEO, e1, cond_exp_rotated(theta)).choi.entries
        worst_generic = max(worst_generic,
                            max_abs(geo - 0.5 * identity(2).choi.entries))
    worst_degenerate = 0.0
    for theta in (0.0, math.pi / 2):
        geo = mean_cp(GEO, e1, cond_exp_rotated(theta)).choi.entries
        worst_degenerate = max(worst_degenerate, max_abs(geo - e1.choi.entries))
    ok = worst_generic <= 1e-7 and worst_degenerate <= 1e-8
    report(5, f"rotation example (generic {worst_generic:.2e} <= 1e-7, "
              f"degenerate {worst_degenerate:.2e} <= 1e-8)", ok)


def test_criterion_06_am_gm_hm_suite():
    rng = np.random.default_rng(606)
    worst_slack = 0.0
    diagnostics_ok = True
    for trial in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        f = random_cp(rng, m, n)
        g = f if trial % 50 == 0 else random_cp(rng, m, n)
        scale = max(1.0, f.choi.norm(), g.choi.norm())
        harm = mean_cp(HARM, f, g).choi.entries
        geo = mean_cp(GEO, f, g).choi.entries
        arith = mean_cp(ARITH, f, g).choi.entries
        worst_slack = max(worst_slack,
                          -min_eig(geo - harm) / scale,
                          -min_eig(arith - geo) / scale)
        if max_abs(arith - geo) <= 1e-7 * scale:
            diagnostics_ok &= max_abs(f.choi.entries - g.choi.entries) <= 1e-6 * scale
    ok = worst_slack <= 1e-7 and diagnostics_ok
    report(6, f"AM-GM-HM chain on 200 CP pairs (slack {worst_slack:.2e} <= 1e-7, "
              f"equality diagnostic sound)", ok)


def test_criterion_07_structural_suite():
    rng = np.random.default_rng(707)
    worst = 0.0
    # monotonicity
    for _ in range(100):
        d = int(rng.integers(1, 4))
        f1 = random_cp(rng, d, d)
        g1 = random_cp(rng, d, d)
        f2 = f1 + random_cp(rng, d, d, lo=0.0, hi=1.0)
        g2 = g1 + random_cp(rng, d, d, lo=0.0, hi=1.0)
        scale = max(1.0, f2.choi.norm(), g2.choi.norm())
        diff = (mean_cp(GEO, f2, g2).choi.entries
                - mean_cp(GEO, f1, g1).choi.entries)
        worst = max(worst, -min_eig(diff) / scale)
    # concavity
    for _ in range(100):
        d = int(rng.integers(1, 4))
        f1, g1 = random_cp(rng, d, d), random_cp(rng, d, d)
        f2, g2 = random_cp(rng, d, d), random_cp(rng, d, d)
        joint = mean_cp(GEO, f1 + f2, g1 + g2).choi.entries
        split = (mean_cp(GEO, f1, g1).choi.entries
                 + mean_cp(GEO, f2, g2).choi.entries)
        scale = max(1.0, max_abs(joint))
        worst = max(worst, -min_eig(joint - split) / scale)
    # composition subdistributivity, both sides
    for _ in range(100):
        d = int(rng.integers(1, 4))
        f, g, xi = (random_cp(rng, d, d) for _ in range(3))
        geo = mean_cp(GEO, f, g)
        post = mean_cp(GEO, compose(xi, f), compose(xi, g)).choi.entries \
            - compose(xi, geo).choi.entries
        pre = mean_cp(GEO, compose(f, xi), compose(g, xi)).choi.entries \
            - compose(geo, xi).choi.entries
        scale = max(1.0, f.choi.norm(), g.choi.norm(), xi.choi.norm() ** 2)
        worst = max(worst, -min_eig(post) / scale, -min_eig(pre) / scale)
    # automorphism covariance
    for _ in range(100):
        d = int(rng.integers(2, 4))
        f, g = random_cp(rng, d, d), random_cp(rng, d, d)
        cu = unitary_conj(random_unitary(rng, d))
        cv = unitary_conj(random_unitary(rng, d))
        lhs = compose(cu, compose(mean_cp(GEO, f, g), cv)).choi.entries
        rhs = mean_cp(GEO, compose(cu, compose(f, cv)),
                      compose(cu, compose(g, cv))).choi.entries
        scale = max(1.0, f.choi.norm(), g.choi.norm())
        worst = max(worst, max_abs(lhs - rhs) / scale)
    report(7, f"monotonicity/concavity/composition/covariance, 100 each "
              f"(worst slack {worst:.2e} <= 1e-7)", worst <= 1e-7)


def test_criterion_08_connection_engine():
    rng = np.random.default_rng(808)
    tgrid = 2.0 ** np.arange(-4, 5, dtype=float)
    worst_rep = 0.0
    for alpha in np.arange(0.1, 0.95, 0.1):
        rep = power_atoms(float(alpha), 64)
        worst_rep = max(worst_rep, float(np.abs(rep.scalar(tgrid)
                                                - tgrid ** alpha).max()))
        for _ in range(2):
            a = random_psd(rng, 3)
            b = random_psd(rng, 3)
            got = mean(MeanKind.custom(rep), a, b).entries
            want = mean(MeanKind.power(float(alpha)), a, b).entries
            worst_rep = max(worst_rep, max_abs(got - want))
    # transform identities on the scalar grid
    from cpmean.opmeans import ConnectionRep
    arith = ConnectionRep(0.5, 0.5, ())
    harm_target = 2.0 * tgrid / (1.0 + tgrid)
    worst_tr = float(np.abs(adjoint_rep(arith).scalar(tgrid) - harm_target).max())
    geo_rep = power_atoms(0.5, 64)
    for transform in (transpose_rep, adjoint_rep, dual_rep):
        worst_tr = max(worst_tr, float(np.abs(
            transform(geo_rep).scalar(tgrid) - np.sqrt(tgrid)).max()))
    # tensor multiplicativity of the power means
    worst_tensor = 0.0
    for _ in range(10):
        alpha = float(rng.uniform(0.1, 0.9))
        kind = MeanKind.power(alpha)
        f1, g1 = random_cp(rng, 2, 2), random_cp(rng, 2, 2)
        f2, g2 = random_cp(rng, 2, 2), random_cp(rng, 2, 2)
        lhs = mean_cp(kind, tensor(f1, f2), tensor(g1, g2)).choi.entries
        rhs = tensor(mean_cp(kind, f1, g1), mean_cp(kind, f2, g2)).choi.entries
        worst_tensor = max(worst_tensor, max_abs(lhs - rhs))
    ok = worst_rep <= 1e-5 and worst_tr <= 1e-5 and worst_tensor <= 1e-6
    report(8, f"connection engine (rep {worst_rep:.2e} <= 1e-5, transforms "
              f"{worst_tr:.2e} <= 1e-5, tensor {worst_tensor:.2e} <= 1e-6)", ok)


def test_criterion_09_lebesgue_suite():
    rng = np.random.default_rng(909)
    worst_add = worst_oracle = worst_sing = worst_alpha = worst_closed = 0.0
    maximality_ok = True
    for _ in range(100):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        f, g = planted_pair(rng, m, n)
        scale = max(1.0, g.choi.norm())
        split = decompose(f, g)
        worst_add = max(worst_add, max_abs(
            split.ac.choi.entries + split.sing.choi.entries - g.choi.entries) / scale)
        oracle = ac_part_oracle(f, g)
        worst_oracle = max(worst_oracle, max_abs(
            oracle.choi.entries - split.ac.choi.entries) / scale)
        worst_sing = max(worst_sing,
                         parallel_sum(f.choi, split.sing.choi).norm())
        # maximality against 20 shorted competitors inside ran(C_F)
        w, u = f.choi.eig()
        cols = u[:, w > 1e-10 * max(float(w[-1]), 0.0)]
        if cols.shape[1] > 0:
            for _ in range(20):
                r = int(rng.integers(1, cols.shape[1] + 1))
                mix = cols @ random_unitary(rng, cols.shape[1])[:, :r]
                theta = clamp_psd(shorted_to_subspace(g.choi.entries, mix), tol=1e-7).entries
                maximality_ok &= below(theta, g.choi.entries, g)
                maximality_ok &= below(theta, split.ac.choi.entries, g)
        # alpha_min minimality within 1e-6 relative, by bisection in the CP
        # order, and within 1e-9 of the closed form
        if split.alpha_min > 0.0 and not math.isinf(split.alpha_min):
            hi = alpha_by_bisection(f, split.ac, 2.0 * split.alpha_min + 1.0, 50)
            worst_alpha = max(worst_alpha,
                              abs(hi - split.alpha_min) / split.alpha_min)
            worst_closed = max(worst_closed, abs(alpha_closed_form(f, split.ac)
                                                 - split.alpha_min) / split.alpha_min)
    ok = (worst_add <= 1e-9 and worst_oracle <= 1e-5 and worst_sing <= 1e-8
          and maximality_ok and worst_alpha <= 1e-6 and worst_closed <= 1e-9)
    report(9, f"Lebesgue suite on 100 planted pairs (add {worst_add:.2e} <= 1e-9, "
              f"oracle {worst_oracle:.2e} <= 1e-5, sing {worst_sing:.2e} <= 1e-8, "
              f"maximality {maximality_ok}, alpha {worst_alpha:.2e} <= 1e-6, "
              f"closed form {worst_closed:.2e} <= 1e-9)", ok)


def test_criterion_10_ando_kosaki_recovery():
    rng = np.random.default_rng(1010)
    worst_ac = worst_par = 0.0
    for _ in range(50):
        a = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
        b = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
        phi, psi = from_choi(1, 4, a), from_choi(1, 4, b)
        got = decompose(phi, psi).ac.choi.entries
        worst_ac = max(worst_ac, max_abs(got - direct_rn_compression(a, b)))
        ps = parallel_sum(phi.choi, psi.choi).entries
        w, u = np.linalg.eigh(a + b)
        keep = w > 1e-10 * max(float(w[-1]), 0.0)
        pinv = (u[:, keep] / w[keep]) @ u[:, keep].conj().T
        direct = a @ pinv @ b
        worst_par = max(worst_par, max_abs(ps - 0.5 * (direct + direct.conj().T)))
    ok = worst_ac <= 1e-6 and worst_par <= 1e-9
    report(10, f"operator-level recovery on 50 M4 pairs (ac {worst_ac:.2e} <= 1e-6, "
               f"parallel {worst_par:.2e} <= 1e-9)", ok)


def test_criterion_11_fidelity_chain():
    rng = np.random.default_rng(1111)
    worst_slack = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 4))
        q = state_mean_quantities(random_density(rng, dim),
                                  random_density(rng, dim))
        worst_slack = max(worst_slack, q.gm_trace - q.sqrt_trace,
                          q.sqrt_trace - q.fidelity)
    worst_eq = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 4))
        d = rng.uniform(0.05, 1.0, size=dim)
        e = rng.uniform(0.05, 1.0, size=dim)
        q = state_mean_quantities(np.diag(d / d.sum()), np.diag(e / e.sum()))
        worst_eq = max(worst_eq, q.fidelity - q.gm_trace)
    ok = worst_slack <= 1e-9 and worst_eq <= 1e-8
    report(11, f"fidelity chain (slack {worst_slack:.2e} <= 1e-9, commuting "
               f"equality {worst_eq:.2e} <= 1e-8)", ok)


def test_criterion_12_cli(tmp_path):
    code_all = cli_main(["example", "--all"])
    f = random_cp(np.random.default_rng(12), 2, 2)
    p = tmp_path / "chan.json"
    write_channel(f, p)
    round_trip_exact = np.array_equal(read_doc(p)[0].choi.entries, f.choi.entries)
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_in": 2,')
    code_bad = cli_main(["verify", str(bad)])
    doc = channel_to_doc(identity(2))
    doc["data"][0][0] = [-5.0, 0.0]
    npsd = tmp_path / "npsd.json"
    npsd.write_text(json.dumps(doc))
    code_npsd = cli_main(["verify", str(npsd)])
    ok = code_all == 0 and round_trip_exact and code_bad == 2 and code_npsd == 2
    report(12, f"CLI (example --all exit {code_all}, round-trip exact "
               f"{round_trip_exact}, malformed exits {code_bad}/{code_npsd})", ok)
