"""Seeded invariance properties of the means, connections, Lebesgue split and
verdicts.

Each operand is scaled by its own factor drawn from 10^[-12, 12], and ranks
run from 1 to full.  Every tolerance is relative to the operands or to the
exact result; none has an absolute floor.  Every verdict, and every check of
a report, keeps its truth value when both operands are scaled by 10^k.
"""

import json

import numpy as np
import pytest

from cpmean import cli
from cpmean.channeldoc import save_channel
from cpmean.cpmaps import (
    from_choi, from_kraus, geo_certificate, identity, index_cp, kraus_decompose, mean_cp,
    order_cp)
from cpmean.errors import DomainError, NotCompletelyPositive
from cpmean.hermlinalg import is_psd
from cpmean.lebesgue import decompose, is_abs_continuous, is_singular
from cpmean.opmeans import (
    ConnectionRep,
    MeanKind,
    adjoint_rep,
    dual_rep,
    mean,
    power_rep,
    transpose_rep,
)

from conftest import random_psd, random_unitary

# f(t) = 0.2 + 0.1 t + sum_k w_k t (1 + l_k)/(t + l_k): f(0) > 0 and f(inf) = inf
MIXED = ConnectionRep(0.2, 0.1, ((0.3, 1.5), (7.0, 0.25)))


def f_mixed(t):
    return 0.2 + 0.1 * t + sum(w * t * (1.0 + l) / (t + l) for l, w in MIXED.atoms)


# kind and its connection of two scalars x, y > 0, written as x f(y/x)
CASES = {
    "arith": (MeanKind("arith"), lambda x, y: 0.5 * (x + y)),
    "geo": (MeanKind("geo"), lambda x, y: np.sqrt(x * y)),
    "harm": (MeanKind("harm"), lambda x, y: 2.0 * x * y / (x + y)),
    "parallel": (MeanKind("parallel"), lambda x, y: x * y / (x + y)),
    "log": (MeanKind("log"), lambda x, y: (x - y) / (np.log(x) - np.log(y))),
    "power": (MeanKind.power(0.3), lambda x, y: x ** 0.7 * y ** 0.3),
    "custom": (MeanKind.custom(power_rep(0.7)), lambda x, y: x ** 0.3 * y ** 0.7),
    "mixed": (MeanKind.custom(MIXED), lambda x, y: x * f_mixed(y / x)),
    # the adjoint 1/f(1/t) and the dual t/f(t)
    "adjoint": (MeanKind.custom(adjoint_rep(MIXED)), lambda x, y: x / f_mixed(x / y)),
    "dual": (MeanKind.custom(dual_rep(MIXED)), lambda x, y: y / f_mixed(y / x)),
}
SYMMETRIC = ["arith", "geo", "harm", "parallel", "log"]


def scale_pairs(rng, n):
    """n pairs (c, s) of independent factors, each log-uniform on 10^[-12, 12]."""
    return 10.0 ** rng.uniform(-12.0, 12.0, size=(n, 2))


def rel(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def pairs(rng, d, n):
    """n scaled pairs (cA, sB) of Choi size d with rank(A) + rank(B) > d, so
    every mean is nonzero; the ranks run from 1 to full."""
    out = []
    for i in range(n):
        ra = 1 + i % d
        rb = int(rng.integers(d + 1 - ra, d + 1))
        c, s = scale_pairs(rng, 1)[0]
        out.append((c * random_psd(rng, d, rank=ra), s * random_psd(rng, d, rank=rb)))
    return out


@pytest.mark.parametrize("name", CASES)
def test_scale_law_on_commuting_diagonals(name):
    # diag(x) σ diag(y) = diag(x_i σ y_i), each entry within 1e-12 of its
    # own value, whatever the two scales
    kind, sigma = CASES[name]
    rng = np.random.default_rng(11)
    for c, s in scale_pairs(rng, 30):
        x, y = c * rng.uniform(0.25, 4.0, 6), s * rng.uniform(0.25, 4.0, 6)
        got = mean(kind, np.diag(x), np.diag(y)).entries
        d = np.sqrt(sigma(x, y))
        assert np.abs(got / np.outer(d, d) - np.eye(6)).max() <= 1e-12, (c, s)


@pytest.mark.parametrize("alpha", [0.5, 0.3, 0.8])
def test_scale_law_of_power_means_on_general_pairs(alpha):
    # (cA) #_a (sB) = c^(1-a) s^a (A #_a B), with ranks 1 to full
    kind = MeanKind.power(alpha)
    rng = np.random.default_rng(12)
    for i, (c, s) in enumerate(scale_pairs(rng, 16)):
        a, b = random_psd(rng, 9, rank=1 + i % 9), random_psd(rng, 9)
        want = c ** (1.0 - alpha) * s ** alpha * mean(kind, a, b).entries
        assert rel(mean(kind, c * a, s * b).entries, want) <= 1e-10, (i, c, s)


@pytest.mark.parametrize("name", CASES)
def test_unitary_covariance(name):
    kind = CASES[name][0]
    rng = np.random.default_rng(13)
    for a, b in pairs(rng, 6, 12):
        u = random_unitary(rng, 6)
        want = u @ mean(kind, a, b).entries @ u.conj().T
        got = mean(kind, u @ a @ u.conj().T, u @ b @ u.conj().T).entries
        assert rel(got, want) <= 1e-9


@pytest.mark.parametrize("name", SYMMETRIC)
def test_swap_symmetry(name):
    kind = CASES[name][0]
    rng = np.random.default_rng(14)
    for a, b in pairs(rng, 6, 12):
        want = mean(kind, a, b).entries
        assert rel(mean(kind, b, a).entries, want) <= 1e-9


def test_a_zero_operand_gives_exact_zero_means_and_split():
    # F full rank, from Gaussian Kraus operators (a Wishart Choi matrix), and
    # G = 0: A' = I exactly, so each symmetric mean is the same array both ways
    # round, 0 but for arith, and both parts of G are exactly 0
    rng = np.random.default_rng(77)
    for i in range(100):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        ops = np.sqrt(10.0 ** rng.uniform(-12.0, 12.0)) * (
            rng.normal(size=(m * n, n, m)) + 1j * rng.normal(size=(m * n, n, m)))
        f = from_kraus(list(ops), dim_in=m, dim_out=n)
        zero = from_choi(m, n, np.zeros((m * n, m * n)))
        for name in SYMMETRIC:
            got = mean_cp(CASES[name][0], f, zero).choi.entries
            assert np.array_equal(got, mean_cp(CASES[name][0], zero, f).choi.entries), (i, name)
            assert name == "arith" or not got.any(), (i, name)
        split = decompose(f, zero)
        assert not (split.ac.choi.entries.any() or split.sing.choi.entries.any()), i


@pytest.mark.parametrize("rep", [power_rep(0.3), MIXED, adjoint_rep(MIXED), dual_rep(MIXED)],
                         ids=["power", "mixed", "adjoint", "dual"])
def test_transpose_is_an_argument_swap(rep):
    rng = np.random.default_rng(15)
    for a, b in pairs(rng, 6, 12):
        want = mean(MeanKind.custom(rep), b, a).entries
        assert rel(mean(MeanKind.custom(transpose_rep(rep)), a, b).entries, want) <= 1e-9
    for a, b in pairs(rng, 6, 4):
        want = mean(MeanKind.power(0.7), a, b).entries
        got = mean(MeanKind.custom(transpose_rep(power_rep(0.7))), b, a).entries
        assert rel(got, want) <= 1e-9


def test_lebesgue_split_under_independent_scales():
    # ac(cF, sG) = s ac(F, G), alpha_min(cF, sG) = (s/c) alpha_min(F, G), and
    # neither residual moves
    rng = np.random.default_rng(16)
    for i, (c, s) in enumerate(scale_pairs(rng, 48)):
        rf, rg = 1 + i % 16, 1 + (5 * i) % 16
        f = from_choi(4, 4, random_psd(rng, 16, rank=rf))
        g = from_choi(4, 4, random_psd(rng, 16, rank=rg))
        base, split = decompose(f, g), decompose(c * f, s * g)
        gnorm = np.linalg.norm(g.choi.entries)
        assert np.linalg.norm(split.ac.choi.entries - s * base.ac.choi.entries) \
            <= 1e-12 * s * gnorm, (rf, rg)
        assert np.linalg.norm(split.sing.choi.entries - s * base.sing.choi.entries) \
            <= 1e-12 * s * gnorm, (rf, rg)
        assert split.alpha_min == pytest.approx(s / c * base.alpha_min, rel=1e-10, abs=0.0)
        assert abs(is_singular(c * f, s * g).residual - is_singular(f, g).residual) <= 1e-12
        assert abs(is_abs_continuous(s * g, c * f).residual
                   - is_abs_continuous(g, f).residual) <= 1e-12


# Joint scales 10^k, k = -12..12: a verdict bounded by its operands keeps its truth value.
JOINT = [10.0 ** k for k in range(-12, 13)]


def verdict_pairs(rng):
    """Choi-4 pairs at unit scale on which the verdicts below come out both
    ways: random ranks 1 to full, F <= G, G <= F, and mutually singular maps."""
    def cp(rank):
        return from_choi(2, 2, random_psd(rng, 4, rank=rank))

    out = [(cp(ra), cp(rb)) for ra, rb in [(1, 1), (1, 3), (2, 2), (3, 1), (2, 4), (4, 4)]]
    f = cp(2)
    out += [(f, f + cp(1)), (f, 0.5 * f)]
    q = random_unitary(rng, 4)
    halves = [(q[:, cols] * w) @ q[:, cols].conj().T
              for cols, w in ((slice(0, 2), [1.0, 3.0]), (slice(2, 4), [2.0, 0.5]))]
    out.append(tuple(from_choi(2, 2, 0.5 * (h + h.conj().T)) for h in halves))
    return out


def verdicts(f, g):
    """Every Verdict the library returns on (F, G), by name."""
    geo = mean_cp(MeanKind("geo"), f, g)
    split = decompose(f, g)
    le, ge = order_cp(f, g)
    return {
        "is_psd C_F": is_psd(f.choi),
        "is_psd C_G - C_F": is_psd(g.choi.entries - f.choi.entries),
        "order_cp F <= G": le,
        "order_cp G <= F": ge,
        "geo_certificate": geo_certificate(f, g, geo),
        "geo_certificate 2 geo": geo_certificate(f, g, 2.0 * geo),
        "recon": split.recon,
        "is_singular": is_singular(f, g),
        "is_abs_continuous": is_abs_continuous(g, f),
        "is_abs_continuous ac": is_abs_continuous(split.ac, f),
    }


def test_every_verdict_keeps_its_truth_value_under_joint_scaling():
    rng = np.random.default_rng(17)
    seen = {}
    for f, g in verdict_pairs(rng):
        unit = {name: bool(v) for name, v in verdicts(f, g).items()}
        for name, truth in unit.items():
            seen.setdefault(name, set()).add(truth)
        for c in JOINT:
            got = {name: bool(v) for name, v in verdicts(c * f, c * g).items()}
            assert got == unit, c
    # each verdict that can fail does so on some pair
    assert {name for name, truths in seen.items() if truths == {True, False}} == {
        "is_psd C_G - C_F", "order_cp F <= G", "order_cp G <= F",
        "geo_certificate 2 geo", "is_singular", "is_abs_continuous"}


def _report(argv, capsys):
    assert cli.main(["--format", "json", *argv]) in (0, 3)
    return json.loads(capsys.readouterr().out)


def test_report_checks_keep_their_truth_values_under_joint_scaling(tmp_path, capsys):
    rng = np.random.default_rng(18)
    pairs = verdict_pairs(rng)
    for i in (1, 4, 8):  # ranks 1 and 3, ranks 2 and 4, mutually singular
        f, g = pairs[i]
        first = None
        for c in JOINT:
            a, b = str(tmp_path / f"{i}.{c:g}.a.json"), str(tmp_path / f"{i}.{c:g}.b.json")
            save_channel(c * f, a)
            save_channel(c * g, b)
            checks = [(check["name"], check["passed"])
                      for argv in (["mean", "--kind", "geo", a, b], ["lebesgue", a, b])
                      for check in _report(argv, capsys)["checks"]]
            first = checks if first is None else first
            assert checks == first, c


@pytest.mark.parametrize("k", range(-12, 13))
def test_a_negative_eigenvalue_is_judged_against_the_largest_entry(k):
    # -100 s is a hundred times the largest positive entry, at every scale s
    s = 10.0 ** k
    with pytest.raises(NotCompletelyPositive, match="not PSD"):
        from_choi(2, 2, s * np.diag([-100.0, 1.0, 1.0, 1.0]))
    assert np.array_equal(from_choi(2, 2, s * np.diag([100.0, 1.0, 1.0, 1.0])).choi.entries,
                          s * np.diag([100.0, 1.0, 1.0, 1.0]))


def test_order_of_tiny_channels_is_not_equal(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    save_channel(1e-12 * identity(2), a)
    save_channel(2e-12 * identity(2), b)
    assert _report(["order", a, b], capsys)["outputs"]["order"] == "<=cp"
    assert _report(["order", b, a], capsys)["outputs"]["order"] == ">=cp"


# The scale sweep: 2^k over the double range, past where LAPACK would rescale
# (2^+-485) and where a ratio of two scales leaves the double range (2^+-512).
SWEEP = [-1000, -600, -300, 300, 600, 1000]
SWEEP_KINDS = [CASES[name][0] for name in
               ("arith", "geo", "harm", "parallel", "log", "power", "mixed", "dual")]


def dyadic_pair(rng, d, rank):
    """(F, G) of Choi size d with small Gaussian-integer entries, exact at every
    scale 2^k: F = X X* + d I full rank, G = Y Y* of the given rank."""
    def ints(cols):
        return rng.integers(-3, 4, size=(d, cols)) + 1j * rng.integers(-3, 4, size=(d, cols))

    x, y = ints(d), ints(rank)
    return x @ x.conj().T + d * np.eye(d), y @ y.conj().T


def sweep_reads(f0, g0, k):
    """Every result of the pair at 2^k: each mean kind, both parts and alpha_min
    of the split, and the index and Kraus operators of F, with the power of two
    that each scales by when F and G scale jointly by 2^k."""
    f, g = from_choi(2, 2, 2.0 ** k * f0), from_choi(2, 2, 2.0 ** k * g0)
    split = decompose(f, g)
    out = [(mean_cp(kind, f, g).choi.entries, k) for kind in SWEEP_KINDS]
    out += [(split.ac.choi.entries, k), (split.sing.choi.entries, k), (split.alpha_min, 0)]
    out += [(index_cp(f), -k), *((x, k // 2) for x in kraus_decompose(f))]
    return out


@pytest.mark.parametrize("k", SWEEP)
@pytest.mark.parametrize("rank", [2, 4], ids=["factored", "full rank"])
def test_joint_homogeneity_over_the_double_range_is_bit_exact(eigh_calls, k, rank):
    # each eig is that of its operand folded to unit scale and every result is
    # formed at unit scale and scaled once, so 2^k scales each bit for bit; a
    # thin G with cached eigs keeps the factored pair, (2, 0, 1) with the two
    # admissions, at every k
    f0, g0 = dyadic_pair(np.random.default_rng(46), 4, rank)
    want = sweep_reads(f0, g0, 0)
    got = []
    calls = eigh_calls(lambda: got.extend(sweep_reads(f0, g0, k)))
    assert rank == 4 or calls == (2, 0, 1)
    assert len(got) == len(want)
    for i, ((x, j), (y, _)) in enumerate(zip(got, want)):
        assert np.array_equal(x, 2.0 ** j * y), i


def scalar_means(x, y):
    """Each SWEEP_KIND of scalars x, y > 0, written with no ratio of the two,
    which is beyond double range where they lie 2^2000 apart."""
    atoms = [(l, w * (1.0 + l)) for l, w in MIXED.atoms]
    return [0.5 * x + 0.5 * y, np.sqrt(x) * np.sqrt(y), 2.0 * x * y / (x + y),
            x * y / (x + y), (x - y) / (np.log(x) - np.log(y)), x ** 0.7 * y ** 0.3,
            0.2 * x + 0.1 * y + sum(c * x * y / (y + l * x) for l, c in atoms),
            x * y / (0.2 * x + 0.1 * y + sum(c * x * y / (y + l * x) for l, c in atoms))]


@pytest.mark.parametrize("k", SWEEP)
def test_independent_scales_over_the_double_range(k):
    # F at 2^-k and G at 2^k, 2^2k apart: on a shared frame every kind is its
    # scalar mean eigenvalue by eigenvalue; on a generic pair geo is the unit
    # pair's, power and custom power means are it times 2^(k (2a - 1)), the
    # split's parts are 2^k those of the unit pair, and alpha_min is 2^2k its,
    # a DomainError past DBL_MAX and a subnormal double below 2^-1022
    rng = np.random.default_rng(47)
    u = random_unitary(rng, 4)
    a, b = rng.uniform(0.25, 4.0, 4), rng.uniform(0.25, 4.0, 4)
    x, y = 2.0 ** -k * a, 2.0 ** k * b
    f, g = (from_choi(2, 2, (u * w) @ u.conj().T) for w in (x, y))
    for kind, d in zip(SWEEP_KINDS, scalar_means(x, y)):
        want = (u * d) @ u.conj().T
        got = mean_cp(kind, f, g).choi.entries
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), kind

    f0, g0 = random_psd(rng, 4), random_psd(rng, 4, rank=2)
    f, g = from_choi(2, 2, 2.0 ** -k * f0), from_choi(2, 2, 2.0 ** k * g0)
    unit_f, unit_g = from_choi(2, 2, f0), from_choi(2, 2, g0)
    # u^(1 - a) v^a of the scales, with the exponents 1 - a and a as doubles
    for kind, c in ((MeanKind("geo"), 1.0),
                    (MeanKind.power(0.3), (2.0 ** -k) ** (1.0 - 0.3) * (2.0 ** k) ** 0.3),
                    (MeanKind.custom(power_rep(0.7)),
                     (2.0 ** -k) ** (1.0 - 0.7) * (2.0 ** k) ** 0.7)):
        want = c * mean_cp(kind, unit_f, unit_g).choi.entries
        got = mean_cp(kind, f, g).choi.entries
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), kind
    base = decompose(unit_f, unit_g)
    alpha = 2.0 ** (2 * k) * base.alpha_min if 2 * k < 1024 else np.inf
    if not np.isfinite(alpha):
        with pytest.raises(DomainError, match="alpha_min is beyond double range"):
            decompose(f, g)
        return
    split = decompose(f, g)
    for part in ("ac", "sing"):
        want = 2.0 ** k * getattr(base, part).choi.entries
        got = getattr(split, part).choi.entries
        assert np.abs(got - want).max() <= 1e-14 * 2.0 ** k * np.abs(g0).max(), part
    assert split.alpha_min == pytest.approx(alpha, rel=1e-14 if alpha > 2.0 ** -1022 else 1e-3,
                                            abs=2.0 ** -1074)
