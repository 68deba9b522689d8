import math
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cpmean import cpmaps, opmeans
from cpmean.errors import DomainError, InvalidInput, ShapeError
from cpmean.hermlinalg import PsdMatrix, _shared_pair, is_psd
from cpmean.opmeans import (
    ARITH,
    GEO,
    HARM,
    LOG,
    PARALLEL,
    TOL_MEAN,
    ConnectionRep,
    MeanKind,
    geometric_mean,
    mean,
    parallel_sum,
    power_rep,
)

from conftest import clamp_psd, max_abs, meet_proj, min_eig, random_psd, random_unitary, support_proj
from jacobi import power_atoms


def closed_form_geo(a, b):
    """Independent route: textbook formula for invertible inputs, raw numpy."""
    wa, ua = np.linalg.eigh(a)
    ah = (ua * np.sqrt(wa)) @ ua.conj().T
    aih = (ua / np.sqrt(wa)) @ ua.conj().T
    mid = aih @ b @ aih
    wm, um = np.linalg.eigh(0.5 * (mid + mid.conj().T))
    ms = (um * np.sqrt(np.clip(wm, 0.0, None))) @ um.conj().T
    g = ah @ ms @ ah
    return 0.5 * (g + g.conj().T)


def eps_limit_geo(a, b, k_lo=6, k_hi=12):
    """Regularized-limit oracle (A+eps)#(B+eps), compressed to the common range."""
    d = len(a)
    pi = meet_proj(support_proj(a), support_proj(b))
    scale = max(1.0, max_abs(a), max_abs(b))
    g = None
    for k in range(k_lo, k_hi + 1):
        eps = scale * 4.0 ** (-k)
        g = closed_form_geo(a + eps * np.eye(d), b + eps * np.eye(d))
    return pi @ g @ pi


class TestParallelSum:
    def test_self(self, rng):
        a = random_psd(rng, 4)
        assert max_abs(parallel_sum(a, a).entries - a / 2) < 1e-12

    def test_commuting_diagonals(self):
        got = parallel_sum(np.diag([1.0, 0.0]), np.diag([1.0, 1.0]))
        assert max_abs(got.entries - np.diag([0.5, 0.0])) < 1e-13
        got = parallel_sum(np.diag([2.0, 6.0]), np.diag([2.0, 3.0]))
        assert max_abs(got.entries - np.diag([1.0, 2.0])) < 1e-13

    def test_inverse_sum_oracle(self, rng):
        # independent formula (A^-1 + B^-1)^-1 valid for invertible inputs
        for _ in range(10):
            a = random_psd(rng, 5)
            b = random_psd(rng, 5)
            want = np.linalg.inv(np.linalg.inv(a) + np.linalg.inv(b))
            assert max_abs(parallel_sum(a, b).entries - want) < 1e-10

    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    @pytest.mark.parametrize("ranks", [(5, 5), (5, 3), (3, 4), (2, 2)],
                             ids=["full-full", "full-3", "3-4", "2-2"])
    def test_pinv_formula_at_joint_scales(self, rng, scale, ranks):
        # independent formula: numpy's own pseudo-inverse, cut at the package's
        # rank rule; 2 + 2 of 5 meet in 0, 3 + 4 in a plane
        for _ in range(5):
            a = scale * random_psd(rng, 5, rank=ranks[0])
            b = scale * random_psd(rng, 5, rank=ranks[1])
            want = a @ np.linalg.pinv(a + b, rcond=1e-10, hermitian=True) @ b
            got = parallel_sum(a, b).entries
            assert max_abs(got - want) <= 1e-12 * np.linalg.norm(a + b, 2)

    def test_dominated_by_both(self, rng):
        a = random_psd(rng, 5, rank=3)
        b = random_psd(rng, 5, rank=4)
        p = parallel_sum(a, b).entries
        assert min_eig(a - p) > -1e-9
        assert min_eig(b - p) > -1e-9

    def test_range_is_intersection(self, rng):
        u = random_unitary(rng, 5)
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        big_a = u[:, :3] @ a @ u[:, :3].conj().T
        big_b = u[:, 1:4] @ b @ u[:, 1:4].conj().T
        p = parallel_sum(big_a, big_b)
        meet = meet_proj(support_proj(big_a), support_proj(big_b))
        assert max_abs(support_proj(p.entries) - meet) < 1e-8

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            parallel_sum(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
    def test_clamp_is_relative_to_the_operands(self, monkeypatch, s):
        # With A = B = s I and the support of A + B faked as the eigenvalues
        # (2s, -s/x) on the unit vectors, (A+B)^+ is diag(1/(2s), -x/s) and A S B
        # has the eigenvalue -x s: returned as computed, not clipped, above
        # -TOL_MEAN ||A + B||, raised below.
        a = b = PsdMatrix(s * np.eye(2))
        for x, raises in ((TOL_MEAN, False), (4.0 * TOL_MEAN, True)):
            fake = (np.array([2.0 * s, -s / x]), np.eye(2))
            monkeypatch.setattr(PsdMatrix, "support", lambda c, fake=fake: fake)
            if raises:
                with pytest.raises(InvalidInput):
                    parallel_sum(a, b)
            else:
                # s (1/(-s/x)) s rounds to one unit off -x s at s = 1e6
                got = parallel_sum(a, b).entries
                assert got[0, 1] == got[1, 0] == 0.0
                assert np.diag(got).real == pytest.approx([0.5 * s, -TOL_MEAN * s],
                                                          rel=np.finfo(float).eps, abs=0.0)


class TestHarmonicArithmetic:
    def test_harmonic_self(self, rng):
        a = random_psd(rng, 3)
        assert max_abs(mean(HARM, a, a).entries - a) < 1e-12

    def test_weighted_projections(self, rng):
        # r P ! s Q = (2rs/(r+s)) (P ^ Q)
        u = random_unitary(rng, 4)
        p = u[:, :2] @ u[:, :2].conj().T
        q_basis = np.column_stack([u[:, 0], (u[:, 1] + u[:, 3]) / np.sqrt(2)])
        q = q_basis @ q_basis.conj().T
        r, s = 3.0, 5.0
        got = mean(HARM, r * p, s * q).entries
        meet = meet_proj(p, q)
        assert max_abs(got - 2 * r * s / (r + s) * meet) < 1e-10

    def test_scalar_harmonic(self):
        got = mean(HARM, np.diag([1.0, 2.0]), np.diag([3.0, 2.0]))
        assert max_abs(got.entries - np.diag([1.5, 2.0])) < 1e-13

    def test_arithmetic(self, rng):
        a = random_psd(rng, 3)
        assert max_abs(mean(ARITH, a, a).entries - a) < 1e-14
        got = mean(ARITH, np.diag([1.0, 3.0]), np.diag([3.0, 1.0]))
        assert max_abs(got.entries - 2 * np.eye(2)) < 1e-14
        b = random_psd(rng, 3)
        assert max_abs(mean(ARITH, np.zeros((3, 3)), b).entries - b / 2) < 1e-14


class TestGeometricMean:
    def test_self(self, rng):
        a = random_psd(rng, 4)
        assert max_abs(geometric_mean(a, a).entries - a) < 1e-12

    def test_commuting(self):
        got = geometric_mean(np.diag([2.0, 1.0]), np.diag([1.0, 2.0]))
        assert max_abs(got.entries - np.sqrt(2.0) * np.eye(2)) < 1e-14

    def test_weighted_projections(self, rng):
        u = random_unitary(rng, 4)
        p = u[:, :2] @ u[:, :2].conj().T
        q_basis = np.column_stack([u[:, 0], (u[:, 1] + u[:, 3]) / np.sqrt(2)])
        q = q_basis @ q_basis.conj().T
        r, s = 0.5, 8.0
        got = geometric_mean(r * p, s * q).entries
        meet = meet_proj(p, q)
        assert max_abs(got - np.sqrt(r * s) * meet) < 1e-10

    def test_orthogonal_rank_one(self):
        v = np.array([1.0, 0.0, 0.0, 1.0])
        w = np.array([1.0, 0.0, 0.0, -1.0])
        got = geometric_mean(np.outer(v, v), np.outer(w, w))
        assert max_abs(got.entries) < 1e-14

    def test_matches_closed_form_when_invertible(self, rng):
        for _ in range(10):
            a = random_psd(rng, 6)
            b = random_psd(rng, 6)
            assert max_abs(geometric_mean(a, b).entries - closed_form_geo(a, b)) < 1e-11

    def test_symmetric(self, rng):
        a = random_psd(rng, 5, rank=3)
        b = random_psd(rng, 5, rank=4)
        scale = max(1.0, max_abs(a), max_abs(b))
        assert max_abs(geometric_mean(a, b).entries
                       - geometric_mean(b, a).entries) < TOL_MEAN * scale

    def test_eps_limit_oracle_on_singular_pairs(self, rng):
        # the regularized limit converges like sqrt(eps); compare loosely
        for _ in range(5):
            a = random_psd(rng, 5, rank=int(rng.integers(1, 6)))
            b = random_psd(rng, 5, rank=int(rng.integers(1, 6)))
            got = geometric_mean(a, b).entries
            assert max_abs(got - eps_limit_geo(a, b)) < 5e-3

    def test_psd_result(self, rng):
        a = random_psd(rng, 5, rank=2)
        b = random_psd(rng, 5, rank=4)
        assert is_psd(geometric_mean(a, b))

    @pytest.mark.parametrize("a, b", [([1e-7, 1.0, 5e-10], [1.0, 0.0, 5e-10]),
                                      ([1.0, 1.0, 5e-10], [1e-7, 0.0, 5e-10])])
    def test_small_weight_beside_an_ill_conditioned_sum(self, a, b):
        """t = 1e-7 (or 1 - t = 1e-7) on a direction where C = A + B is 1 while
        C has a 1e-9 eigenvalue elsewhere: the direction keeps its weight."""
        got = geometric_mean(np.diag(a), np.diag(b)).entries
        assert max_abs(got - np.diag(np.sqrt(np.multiply(a, b)))) < 1e-10


class TestPowerMean:
    def test_endpoints(self, rng):
        a = random_psd(rng, 4, rank=2)
        b = random_psd(rng, 4, rank=3)
        assert max_abs(mean(MeanKind.power(0.0), a, b).entries - a) < 1e-13
        assert max_abs(mean(MeanKind.power(1.0), a, b).entries - b) < 1e-13

    def test_half_is_geometric(self, rng):
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        assert max_abs(mean(MeanKind.power(0.5), a, b).entries
                       - geometric_mean(a, b).entries) < 1e-12

    def test_scalar_oracle(self):
        got = mean(MeanKind.power(0.5), np.diag([1.0, 4.0]), np.diag([4.0, 1.0]))
        assert max_abs(got.entries - 2 * np.eye(2)) < 1e-13
        # commuting scalars follow r^(1-a) s^a
        got = mean(MeanKind.power(1.0 / 3.0), np.diag([8.0, 1.0]), np.diag([1.0, 1.0]))
        assert max_abs(got.entries - np.diag([4.0, 1.0])) < 1e-12

    def test_domain_error(self, rng):
        a = random_psd(rng, 2)
        with pytest.raises(DomainError):
            mean(MeanKind.power(1.5), a, a)
        with pytest.raises(DomainError):
            mean(MeanKind.power(-0.1), a, a)


class TestLogMean:
    def test_self(self, rng):
        a = random_psd(rng, 3)
        assert max_abs(mean(LOG, a, a).entries - a) < 1e-10

    def test_scalar_oracle(self):
        t = np.exp(2.0)
        got = mean(LOG, np.eye(2), np.diag([t, 1.0]))
        want = np.diag([(t - 1.0) / 2.0, 1.0])
        assert max_abs(got.entries - want) < 1e-6

    @pytest.mark.parametrize("t", [1e-300, 1e-20, 1e-12, 1e-3, 0.5 - 1e-9, 0.5 + 1e-9,
                                   1.0 - 1e-12])
    def test_kernel_is_the_scalar_log_mean(self, t):
        # the two-scalar log mean of the pair (t, 1 - t) the spectral pair
        # feeds it, against 50-digit decimals, where float logs of nearly
        # equal arguments would cancel
        u, v = t, 1.0 - t
        a, b = Decimal(u), Decimal(v)
        with localcontext() as ctx:
            ctx.prec = 50
            want = float((a - b) / (a.ln() - b.ln()))
        assert abs(opmeans._log(u, v) - want) <= 4e-16 * want

    def test_kernel_symmetry_and_endpoints(self):
        t = np.arange(1, 1024) / 1024.0   # dyadic, so 1 - t is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = opmeans._log(t, 1.0 - t)
            ends = opmeans._log(np.array([0.0, 1.0, 0.5, 0.0]), np.array([1.0, 0.0, 0.5, 0.0]))
        assert max_abs(h - opmeans._log(1.0 - t, t)) == 0.0
        assert ends.tolist() == [0.0, 0.0, 0.5, 0.0]

    @pytest.mark.parametrize("r", [1e-250, 1e-24, 1e-12, 1.0, 1e12, 1e24, 1e250])
    def test_two_scalar_form_at_every_ratio(self, r):
        # (u - v)/(log u - log v) = v (x - 1)/log x with x = u/v, for x far
        # from 1 where nothing cancels
        for x in (1e-30, 1e-3, 0.25, 7.0, 1e30):
            want = r * (x - 1.0) / np.log(x)
            assert abs(opmeans._log(x * r, r) / want - 1.0) <= 1e-15

    def test_commuting_pairs(self):
        # (a - 1)/log a is accurate in floats: a - 1 is exact near 1 and log a
        # is taken of an exact input
        a = np.array([1e-3, 0.25, 1.0 - 4e-9, 1.0 + 4e-9, 7.0])
        got = np.diag(mean(LOG, np.diag(a), np.eye(len(a))).entries).real
        want = (a - 1.0) / np.log(a)
        assert np.abs(got / want - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("dim, ranks", [(4, (3, 2)), (9, (6, 5)), (16, (12, 9))])
    def test_power_mean_integral_oracle(self, rng, dim, ranks):
        # the log mean is the integral of A #_s B over s in (0, 1): a 64-node
        # Gauss-Legendre sum of power means, each through its own pair
        a = random_psd(rng, dim, rank=ranks[0])
        b = random_psd(rng, dim, rank=ranks[1])
        x, w = np.polynomial.legendre.leggauss(64)
        want = sum(0.5 * wk * mean(MeanKind.power(0.5 * (xk + 1.0)), a, b).entries
                   for xk, wk in zip(x, w))
        scale = max(max_abs(a), max_abs(b))
        assert max_abs(mean(LOG, a, b).entries - want) <= 1e-12 * scale

    def test_ordering_with_neighbors(self, rng):
        for _ in range(5):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4)
            scale = max(1.0, max_abs(a), max_abs(b))
            h = mean(HARM, a, b).entries
            g = geometric_mean(a, b).entries
            l = mean(LOG, a, b).entries
            m = mean(ARITH, a, b).entries
            assert min_eig(g - h) > -1e-7 * scale
            assert min_eig(l - g) > -1e-7 * scale
            assert min_eig(m - l) > -1e-7 * scale


class TestExtremeScales:
    """The spectral pair folds each operand by its largest entry, so no norm
    of the raw operands is formed and the scales enter only as their ratio."""

    @pytest.mark.parametrize("s", [1e-300, 1e-160, 1e-12, 1e12, 1e160, 1e300])
    def test_joint_scale(self, s):
        a, b = np.diag([1.0, 2.0]), np.diag([4.0, 8.0])
        want = {"geo": [2.0, 4.0], "log": [3.0 / np.log(4.0), 6.0 / np.log(4.0)],
                "harm": [1.6, 3.2], "power:0.25": [2.0 ** 0.5, 2.0 ** 1.5]}
        for text, w in want.items():
            got = mean(MeanKind.parse(text), s * a, s * b).entries / s
            assert max_abs(got - np.diag(w)) <= 1e-14 * max(w), text

    @pytest.mark.parametrize("lift", [0.0, 1e-3], ids=["Gram", "clamp"])
    @pytest.mark.parametrize("s", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_clamp_verdict_does_not_depend_on_joint_scale(self, rng, s, lift):
        # sqrt(uv) - 0.45 (u + v) is no connection: its weights reach -0.45.
        # The kernel check reads d itself, one entry per part of the pair, so
        # it raises at every s on both sides of the choice: a rank-2 G leaves
        # the thin pair's complement R, its last part, with t = 1, where a
        # connection's d is 0 and its mean a Gram form; G lifted to full rank
        # leaves every t in (0, 1) and no complement, where d has no zero and
        # the mean takes the clamp,
        # with t near 1 where this kernel is near -0.45.  Relative to max(1,
        # ||result||) the clamp once passed it silently at s = 1e-12.
        a = random_psd(rng, 4)
        b = random_psd(rng, 4, rank=2) + lift * random_psd(rng, 4)
        p = _shared_pair(PsdMatrix(a), PsdMatrix(b))
        assert (p.t == 1.0).any() == (lift == 0.0) and (p.t > 0.0).all()
        with pytest.raises(InvalidInput, match="kernel is negative"):
            opmeans._connect(PsdMatrix(s * a), PsdMatrix(s * b),
                             lambda u, v: np.sqrt(u) * np.sqrt(v) - 0.45 * (u + v))

    @pytest.mark.parametrize("n", range(3, 10))
    @pytest.mark.parametrize("shared", [0, 1], ids=["ranges-meet-in-0", "one-shared-direction"])
    def test_parallel_kinds_at_independent_scales(self, rng, shared, n):
        # generic non-commuting A and B at Choi n, each scaled by its own
        # 10^[-12, 12]: ranges that meet only in 0 give A : B = 0 and a zero
        # harmonic mean, exactly; one planted shared direction v gives both
        # rank 1 at every ratio of the scales, as the pair folds each operand
        for _ in range(25):
            ra = int(rng.integers(1, n - shared))
            rb = int(rng.integers(1, n - shared - ra + 1))
            v = random_unitary(rng, n)[:, :shared]
            a, b = (random_psd(rng, n, rank=r) + v @ v.conj().T for r in (ra, rb))
            sa, sb = 10.0 ** rng.uniform(-12.0, 12.0, size=2)
            for kind in (PARALLEL, HARM):
                out = mean(kind, sa * a, sb * b)
                if shared:
                    assert out.support()[0].size == 1
                else:
                    assert not out.entries.any()

    def test_a_subnormal_scale_folds_without_overflow(self):
        # 1/5e-324 overflows: the fold divides by the scale, not by its reciprocal
        assert np.array_equal(geometric_mean([[5e-324]], [[5e-324]]).entries, [[5e-324]])

    @pytest.mark.parametrize("text", ["geo", "harm", "log", "parallel", "power:0.3"])
    def test_kernel_kinds_at_a_subnormal_joint_scale(self, rng, text):
        # 1e-310 is below 1/DBL_MAX; the result is compared at that scale, as
        # dividing it by 1e-310 would overflow the same way
        s, kind = 1e-310, MeanKind.parse(text)
        a, b = random_psd(rng, 4), random_psd(rng, 4)
        want = s * mean(kind, a, b).entries
        got = mean(kind, s * a, s * b).entries
        assert max_abs(got - want) <= 1e-12 * max_abs(want)

    def test_arith_mean_where_the_sum_overflows(self):
        # A + B = 2.28e308 is not a double, the mean is: it is the sum of the
        # halves, correctly rounded; where A + B is a double the mean is 0.5 (A
        # + B), which keeps (2^-1074 + 2^-1073)/2 at 2^-1073, not halves' 2^-1074
        f, g = (cpmaps.from_choi(1, 2, x * np.eye(2)) for x in (1.2e308, 1.08e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = cpmaps.mean_cp(ARITH, f, g).choi.entries
        assert np.array_equal(got, (0.5 * 1.2e308 + 0.5 * 1.08e308) * np.eye(2))
        assert mean(ARITH, [[5e-324]], [[1e-323]]).entries[0, 0] == 1e-323

    @pytest.mark.parametrize("build", [
        lambda f, g: parallel_sum(f.choi, g.choi),
        lambda f, g: cpmaps.mean_cp(MeanKind.custom(ConnectionRep(1.0, 1.0, ((1.0, 1.0),))), f, g),
    ], ids=["parallel_sum", "custom"])
    def test_a_sum_or_connection_past_the_double_range_raises_domain_error(self, rng, build):
        # full-rank Choi 4 operands with entries up to 1.7e308: A + B, and the
        # connection's s_A Z diag(d) Z* on its clamp route, pass the double range
        f, g = (cpmaps.from_choi(2, 2, 1.7e308 * (c / max_abs(c)))
                for c in (random_psd(rng, 4), random_psd(rng, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond double range"):
                build(f, g)

    def test_log_mean_of_unbalanced_scalars(self):
        got = mean(LOG, np.diag([1e-12]), np.diag([1.0])).entries[0, 0].real
        assert got == pytest.approx((1.0 - 1e-12) / np.log(1e12), rel=1e-14)

    # the scalar mean u σ v of each kind, and of one custom connection, 0.5u
    # + 0.25v + 3uv/(2u + v), each formed so that no step leaves the double range
    SCALAR = {
        "arith": lambda u, v: 0.5 * u + 0.5 * v,
        "geo": lambda u, v: math.sqrt(u) * math.sqrt(v),
        "harm": lambda u, v: 2.0 * u * (v / (u + v)),
        "parallel": lambda u, v: u * (v / (u + v)),
        "log": lambda u, v: (u - v) / (math.log(u) - math.log(v)),
        "power:0.3": lambda u, v: u ** 0.7 * v ** 0.3,
        "custom": lambda u, v: 0.5 * u + 0.25 * v + 3.0 * u * (v / (2.0 * u + v)),
    }

    @pytest.mark.parametrize("swap", [False, True], ids=["small-large", "large-small"])
    @pytest.mark.parametrize("large", [1e297, 1e300])
    @pytest.mark.parametrize("text", list(SCALAR))
    def test_scale_ratio_beyond_the_double_range_is_a_domain_error(self, text, large, swap):
        # s_B/s_A = 1e307 is a double, 1e310 is not: the mean matches the
        # scalar mean or raises DomainError, and never writes a warning
        u, v = (large, 1e-10) if swap else (1e-10, large)
        kind = (MeanKind.custom(ConnectionRep(0.5, 0.25, ((2.0, 1.0),))) if text == "custom"
                else MeanKind.parse(text))
        f, g = (cpmaps.from_choi(1, 2, x * np.eye(2)) for x in (u, v))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                got = cpmaps.mean_cp(kind, f, g).choi.entries
            except DomainError as exc:
                assert large == 1e300 and text != "arith"
                assert "scale ratio" in str(exc)
                return
        want = self.SCALAR[text](u, v)
        assert max_abs(got - want * np.eye(2)) <= 1e-12 * want


class TestMeanDispatch:
    def test_kinds(self, rng):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        assert max_abs(mean(ARITH, a, b).entries - 0.5 * (a + b)) <= 1e-15 * max_abs(a + b)
        assert max_abs(mean(GEO, a, b).entries - geometric_mean(a, b).entries) == 0
        # the parallel and harmonic kinds are uv/(u + v) and twice it on the
        # spectral pair; parallel_sum is the pseudo-inverse formula
        par = parallel_sum(a, b).entries
        assert max_abs(mean(PARALLEL, a, b).entries - par) <= 1e-12 * max_abs(par)
        assert max_abs(mean(HARM, a, b).entries - 2.0 * par) <= 1e-12 * max_abs(par)
        assert max_abs(mean(MeanKind.power(0.25), a, b).entries
                       - mean(MeanKind.custom(power_rep(0.25)), a, b).entries) == 0

    @pytest.mark.parametrize("text", list(TestExtremeScales.SCALAR))
    def test_each_kind_is_its_scalar_mean_on_a_commuting_pair(self, rng, text):
        kind = (MeanKind.custom(ConnectionRep(0.5, 0.25, ((2.0, 1.0),))) if text == "custom"
                else MeanKind.parse(text))
        u = random_unitary(rng, 3)
        x, y = rng.uniform(0.25, 4.0, size=(2, 3))
        want = (u * [TestExtremeScales.SCALAR[text](*p) for p in zip(x, y)]) @ u.conj().T
        got = mean(kind, (u * x) @ u.conj().T, (u * y) @ u.conj().T).entries
        assert max_abs(got - want) <= 1e-12 * max_abs(want)
        # I and diag(1, 1e-9, 0), either way round, take the factored pair:
        # its 1e-9 entry is as accurate as the scalar mean, as 1 - t is read
        # from the singular values, not formed as 1 minus a t near 1
        graded = np.diag([1.0, 1e-9, 0.0])
        for a, b in ((np.eye(3), graded), (graded, np.eye(3))):
            got = mean(kind, a, b).entries[1, 1].real
            want = TestExtremeScales.SCALAR[text](a[1, 1].real, b[1, 1].real)
            assert abs(got / want - 1.0) <= 1e-14, (a[1, 1], got, want)

    def test_custom_kind_requires_a_rep(self):
        with pytest.raises(DomainError, match="requires a ConnectionRep"):
            MeanKind("custom")

    @pytest.mark.parametrize("tag", [t for t in MeanKind._TAGS if t != "power"])
    def test_only_a_power_kind_takes_alpha(self, tag):
        with pytest.raises(DomainError, match="takes no alpha"):
            MeanKind(tag, alpha=0.3)

    @pytest.mark.parametrize("tag", [t for t in MeanKind._TAGS if t != "custom"])
    def test_only_a_custom_kind_takes_a_rep(self, tag):
        # power 0.3 with a rep of f(t) = 1 would read one of the two silently
        with pytest.raises(DomainError, match="takes no ConnectionRep"):
            MeanKind(tag, alpha=0.3 if tag == "power" else None, rep=ConnectionRep(1.0, 0.0, ()))

    def test_parse(self):
        assert MeanKind.parse("geo").tag == "geo"
        assert MeanKind.parse("power:0.3").alpha == 0.3
        with pytest.raises(DomainError):
            MeanKind.parse("bogus")
        with pytest.raises(DomainError):
            MeanKind.parse("power:nan-ish")
        with pytest.raises(DomainError):
            MeanKind.power(1.2)


class TestStructuralProperties:
    def test_monotonicity(self, rng):
        kinds = [ARITH, GEO, HARM, PARALLEL, LOG, MeanKind.power(0.3),
                 MeanKind.custom(power_atoms(0.6, 16))]
        for _ in range(10):
            dim = int(rng.integers(2, 7))
            a1 = random_psd(rng, dim)
            b1 = random_psd(rng, dim)
            a2 = a1 + random_psd(rng, dim, lo=0.0, hi=1.0)
            b2 = b1 + random_psd(rng, dim, lo=0.0, hi=1.0)
            scale = max(1.0, max_abs(a2), max_abs(b2))
            for kind in kinds:
                diff = mean(kind, a2, b2).entries - mean(kind, a1, b1).entries
                assert min_eig(diff) > -1e-9 * scale, kind.tag

    def test_transformer_inequality(self, rng):
        kinds = [GEO, HARM, PARALLEL, LOG, MeanKind.power(0.7)]
        for _ in range(5):
            a = random_psd(rng, 4)
            b = random_psd(rng, 4)
            c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            if rng.uniform() < 0.5:
                c[:, 0] = c[:, 1]  # exercise the singular case too
            for kind in kinds:
                lhs = c @ mean(kind, a, b).entries @ c.conj().T
                rhs = mean(kind, clamp_psd(c @ a @ c.conj().T),
                           clamp_psd(c @ b @ c.conj().T)).entries
                scale = max(1.0, max_abs(rhs))
                assert min_eig(rhs - lhs) > -1e-8 * scale, kind.tag

    def test_transformer_equality_invertible(self, rng):
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))  # a.s. invertible
        lhs = c @ geometric_mean(a, b).entries @ c.conj().T
        rhs = geometric_mean(clamp_psd(c @ a @ c.conj().T),
                             clamp_psd(c @ b @ c.conj().T)).entries
        assert max_abs(lhs - rhs) < TOL_MEAN * max(1.0, max_abs(rhs))

    def test_concavity(self, rng):
        kinds = [GEO, HARM, PARALLEL, LOG, MeanKind.power(0.4)]
        for _ in range(5):
            a1, b1 = random_psd(rng, 4), random_psd(rng, 4)
            a2, b2 = random_psd(rng, 4), random_psd(rng, 4)
            for kind in kinds:
                joint = mean(kind, a1 + a2, b1 + b2).entries
                split = mean(kind, a1, b1).entries + mean(kind, a2, b2).entries
                scale = max(1.0, max_abs(joint))
                assert min_eig(joint - split) > -1e-8 * scale, kind.tag

    def test_equality_diagnostics(self, rng):
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        scale = max(1.0, max_abs(a), max_abs(b))
        gap = max_abs(mean(ARITH, a, b).entries - geometric_mean(a, b).entries)
        if gap <= TOL_MEAN * scale:
            assert max_abs(a - b) <= 10 * TOL_MEAN * scale
        # the forced case
        gap = max_abs(mean(ARITH, a, a).entries - geometric_mean(a, a).entries)
        assert gap <= TOL_MEAN * scale

    def test_range_identity(self, rng):
        u = random_unitary(rng, 5)
        a = u[:, :3] @ random_psd(rng, 3) @ u[:, :3].conj().T
        b = u[:, 1:5] @ random_psd(rng, 4) @ u[:, 1:5].conj().T
        g = geometric_mean(a, b)
        want = meet_proj(support_proj(a), support_proj(b))
        assert max_abs(support_proj(g.entries) - want) < 1e-8

    def test_downward_continuity(self, rng):
        a = random_psd(rng, 4, rank=2)
        b = random_psd(rng, 4, rank=3)
        limit = geometric_mean(a, b).entries
        prev = None
        errors = []
        for k in range(2, 15, 3):
            n = 2.0 ** k
            cur = geometric_mean(a + np.eye(4) / n, b + np.eye(4) / n).entries
            if prev is not None:
                assert min_eig(prev - cur) > -1e-9  # decreasing in the PSD order
            errors.append(max_abs(cur - limit))
            prev = cur
        assert errors[-1] < 3.0 / np.sqrt(2.0 ** 14)
        assert errors[-1] <= errors[0] + 1e-12

    def test_mean_pair_identities(self, rng):
        # (A s B) + (B s A) <= A + B and (A s B) # (A s-perp B) = A # B,
        # with s the alpha-power mean whose dual is the (1-alpha)-power mean
        a = random_psd(rng, 4)
        b = random_psd(rng, 4)
        scale = max(1.0, max_abs(a), max_abs(b))
        for alpha in (0.2, 0.5, 0.8):
            fwd = mean(MeanKind.power(alpha), a, b).entries
            rev = mean(MeanKind.power(alpha), b, a).entries
            assert min_eig((a + b) - (fwd + rev)) > -1e-9 * scale
            dual = mean(MeanKind.power(1.0 - alpha), a, b).entries
            lhs = geometric_mean(PsdMatrix(fwd), PsdMatrix(dual)).entries
            assert max_abs(lhs - geometric_mean(a, b).entries) < TOL_MEAN * scale


class TestGramRoute:
    """A mean rank-deficient by construction is the Gram form ``s_A Z diag(d)
    Z*``; it matches the clamp of the same ``out = s_A (Z d) Z*``, the
    reference route, entry for entry and in rank."""

    # the two-scalar kernel of each kind, as ``mean`` evaluates it
    DUAL = opmeans.dual_rep(power_rep(0.3))
    SIGMA = {
        GEO: lambda u, v: np.sqrt(u) * np.sqrt(v),
        HARM: opmeans._SIGMA["harm"],
        PARALLEL: opmeans._SIGMA["parallel"],
        MeanKind.power(0.3): power_rep(0.3)._pair,
        LOG: opmeans._SIGMA["log"],
        MeanKind.custom(DUAL): DUAL._pair,
    }

    @staticmethod
    def _pairs(rng):
        """F full rank and G of nullity 1-3 at Choi 4-16; then F and G inside
        one subspace of codimension 2, so that Ĉ is rank-deficient too."""
        for draw in range(12):
            dim = (4, 6, 8, 9, 12, 16)[draw % 6]
            yield random_psd(rng, dim), random_psd(rng, dim, rank=dim - 1 - draw % 3)
        for dim in (6, 9, 16):
            q = random_unitary(rng, dim)[:, :dim - 2]
            for rank_f, rank_g in ((dim - 2, dim - 3), (dim - 3, dim - 4)):
                yield tuple(q @ random_psd(rng, dim - 2, rank=r) @ q.conj().T
                            for r in (rank_f, rank_g))

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_gram_form_matches_the_clamp(self, rng, s):
        for a, b in self._pairs(rng):
            a, b = PsdMatrix(s * a), PsdMatrix(s * b)
            p = _shared_pair(a, b)
            for kind, sigma in self.SIGMA.items():
                # Z's parts: on a factored pair, R's kernel 1 σ 0 is 0 for these kinds
                d = sigma(p.t, p.ratio() * (1.0 - p.t))[:p.z.shape[1]]
                assert not d.all() or p.z.shape[1] < a.dim, kind
                out = p.sa * ((p.z * d) @ p.z.conj().T)
                want = PsdMatrix.clamped(out, TOL_MEAN * max_abs(out))
                got = mean(kind, a, b)
                assert max_abs(got.entries - want.entries) <= 1e-14 * max_abs(out), kind
                assert got.support()[0].size == want.support()[0].size, kind
