import math
import warnings

import numpy as np
import pytest

from cpmean.cpmaps import from_choi, functional
from cpmean.errors import DomainError, NonConvergence, ShapeError
from cpmean.hermlinalg import HermitianMatrix, SpectralPair, Verdict, is_psd
from cpmean.lebesgue import (
    TOL_ADD,
    TOL_LIM,
    TOL_SPLIT,
    ac_part_oracle,
    decompose,
    is_abs_continuous,
    is_singular,
)
from cpmean import hermlinalg, lebesgue, opmeans
from cpmean.opmeans import parallel_sum
from cpmean.cpmaps import order_cp

from conftest import (
    clamp_psd, gaussian_cp, max_abs, min_eig, random_cp, random_psd, random_unitary, support_proj)


def planted_pair(rng, m, n, lo=0.2, hi=0.25):
    """CP map pair whose Choi supports are random subsets of one random frame.

    The exclusive and shared parts of each support carry independent
    non-commuting PSD weight blocks with eigenvalues in [lo, hi].  On the
    shared subspace the generalized eigenvalues of (C_F, C_F + C_G) then lie
    in [lo/(lo+hi), hi/(lo+hi)], bounded away from 0 and 1, which keeps the
    n = 2^20 parallel-sum limit within its drift budget.
    """
    d = m * n
    u = random_unitary(rng, d)
    idx = rng.permutation(d)
    cut_a = int(rng.integers(1, d + 1))
    cut_b = int(rng.integers(1, d + 1))
    set_a = set(idx[:cut_a].tolist())
    set_b = set(idx[d - cut_b:].tolist())

    def block(cols):
        if not cols:
            return np.zeros((d, d), dtype=np.complex128)
        frame = u[:, sorted(cols)]
        w = random_psd(rng, len(cols), lo=lo, hi=hi)
        blk = frame @ w @ frame.conj().T
        return 0.5 * (blk + blk.conj().T)

    shared = set_a & set_b
    choi_a = block(set_a - shared) + block(shared)
    choi_b = block(shared) + block(set_b - shared)
    return from_choi(m, n, choi_a), from_choi(m, n, choi_b)


def nearly_parallel_pair(rng, theta):
    """Rank-one maps vv* and ww* on M_2 -> M_2 with unit v, w at angle theta."""
    q, _ = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))
    v, w = q[:, 0], np.cos(theta) * q[:, 0] + np.sin(theta) * q[:, 1]
    return from_choi(2, 2, np.outer(v, v.conj())), from_choi(2, 2, np.outer(w, w.conj()))


def shorted_to_subspace(x, basis):
    """Independent oracle: generalized Schur complement of x onto span(basis)."""
    d = x.shape[0]
    q, _ = np.linalg.qr(np.column_stack([basis, np.eye(d)]))
    q = q[:, :d]  # first columns span the target subspace
    r = basis.shape[1]
    y = q.conj().T @ x @ q
    x11, x12, x21, x22 = y[:r, :r], y[:r, r:], y[r:, :r], y[r:, r:]
    comp = x11 - x12 @ np.linalg.pinv(x22, rcond=1e-10, hermitian=True) @ x21
    out = np.zeros_like(y)
    out[:r, :r] = comp
    back = q @ out @ q.conj().T
    return 0.5 * (back + back.conj().T)


def alpha_by_bisection(f, ac, hi, steps):
    """The least alpha in [0, hi] with ac <= alpha F in the CP order at tol
    1e-11, a verdict at the scale of the operands, by bisection."""
    lo = 0.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if order_cp(ac, mid * f, tol=1e-11)[0]:
            hi = mid
        else:
            lo = mid
    return hi


def alpha_closed_form(f, ac):
    """``lambda_max(C_F^{+1/2} C_ac C_F^{+1/2})``, C_F^{+1/2} on C_F's support."""
    w, u = np.linalg.eigh(f.choi.entries)
    keep = w > 1e-10 * w[-1]
    half = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
    return float(np.linalg.eigvalsh(half @ ac.choi.entries @ half)[-1])


def below(theta, x, g):
    """theta <= x as PSD matrices within 1e-7 max |C_G|: theta is built from G,
    so G's scale, not theta's, bounds its rounding."""
    return min_eig(x - theta) >= -1e-7 * max_abs(g.choi.entries)


def rn_matrices(f, g):
    """(A', B', support projection of C, C^{1/2}) of the ``SpectralPair`` of
    (C_F, C_G), as matrices in the original basis; C is the sum of the
    folded operands ``2^-e_F C_F + 2^-e_G C_G``.  The pair keeps t, 1 - t and Z,
    and where it is factored the complement ``R = Y Y*`` as its last part, with
    ``Y = X - (X P) P*`` formed here from the pair's ``(X, P)`` as ``gram`` forms it:
    ``K = [Z, Y]`` and R's t on each column of Y give ``K K* = C`` and ``C/s =
    K diag(t) K*``, so with the SVD ``K = X S W*``, ``C^{1/2} = X S X*`` with
    support projection ``X X*``, and the polar factor ``X W*`` of K is the
    basis in which A' is ``diag(t)``."""
    p = SpectralPair(f.choi, g.choi)
    k, t, tc, r = p.z, p.t, p.tc, p.z.shape[1]
    if t.size > r:  # a factored pair: R is one part more
        (x, q), n = p._xp, k.shape[0]
        y = x - (x @ q) @ q.conj().T
        k, t, tc = np.hstack([k, y]), np.r_[t[:r], [t[r]] * n], np.r_[tc[:r], [tc[r]] * n]
    x, s, wh = np.linalg.svd(k, full_matrices=False)
    xw = x @ wh
    return ((xw * t) @ xw.conj().T, (xw * tc) @ xw.conj().T,
            x @ x.conj().T, (x * s) @ x.conj().T)


class TestRnPair:
    def test_equal_maps(self, rng):
        f = from_choi(1, 3, random_psd(rng, 3, rank=2))
        a_prime, b_prime, support, _ = rn_matrices(f, f)
        assert max_abs(a_prime - support / 2) < 1e-10
        assert max_abs(b_prime - support / 2) < 1e-10

    def test_orthogonal_supports(self):
        f = from_choi(1, 2, np.diag([1.0, 0.0]))
        g = from_choi(1, 2, np.diag([0.0, 1.0]))
        a_prime, b_prime, _, _ = rn_matrices(f, g)
        assert max_abs(a_prime - np.diag([1.0, 0.0])) < 1e-12
        assert max_abs(b_prime - np.diag([0.0, 1.0])) < 1e-12

    def test_reconstruction_invariants(self, rng):
        for _ in range(8):
            f, g = planted_pair(rng, 2, 2)
            a_prime, b_prime, support, ch = rn_matrices(f, g)
            # the pair is built on the operands folded by their scales 2^e,
            # e the exponent of their largest entries
            sf, sg = (2.0 ** np.frexp(max_abs(x.choi.entries))[1] for x in (f, g))
            assert max_abs(a_prime + b_prime - support) < 1e-8
            assert max_abs(sf * ch @ a_prime @ ch - f.choi.entries) < 1e-12 * sf
            assert max_abs(sg * ch @ b_prime @ ch - g.choi.entries) < 1e-12 * sg
            assert max_abs(a_prime @ b_prime - b_prime @ a_prime) < 1e-8

    def test_shape_error(self, rng):
        f, g = from_choi(1, 2, np.eye(2)), from_choi(1, 3, np.eye(3))
        for call in (decompose, is_singular):
            with pytest.raises(ShapeError):
                call(f, g)


class TestAcPart:
    def test_dominated_map_is_fully_ac(self, rng):
        f = from_choi(2, 2, random_psd(rng, 4, rank=3))
        g = 0.5 * f
        got = decompose(f, g).ac
        assert max_abs(got.choi.entries - g.choi.entries) < 1e-10

    def test_scalar_supports(self):
        f = from_choi(1, 2, np.diag([1.0, 0.0]))
        g = from_choi(1, 2, np.diag([1.0, 1.0]))
        got = decompose(f, g).ac
        assert max_abs(got.choi.entries - np.diag([1.0, 0.0])) < 1e-12

    def test_orthogonal_supports_vanish(self):
        f = from_choi(1, 2, np.diag([1.0, 0.0]))
        g = from_choi(1, 2, np.diag([0.0, 1.0]))
        assert max_abs(decompose(f, g).ac.choi.entries) < 1e-14

    def test_dominated_by_target(self, rng):
        f, g = planted_pair(rng, 1, 4)
        assert order_cp(decompose(f, g).ac, g, tol=1e-8)[0]


class TestOracle:
    def test_agrees_on_structured_cases(self, rng):
        cases = [
            (from_choi(1, 2, np.diag([1.0, 0.0])), from_choi(1, 2, np.diag([1.0, 1.0]))),
            (from_choi(1, 2, np.diag([1.0, 0.0])), from_choi(1, 2, np.diag([0.0, 1.0]))),
        ]
        f = from_choi(2, 2, random_psd(rng, 4, rank=2))
        cases.append((f, 0.5 * f))
        for phi, psi in cases:
            a = decompose(phi, psi).ac.choi.entries
            b = ac_part_oracle(phi, psi).choi.entries
            assert max_abs(a - b) <= TOL_LIM * max(1.0, psi.choi.norm())

    def test_self_limit(self, rng):
        f = from_choi(1, 3, random_psd(rng, 3))
        got = ac_part_oracle(f, f)
        assert max_abs(got.choi.entries - f.choi.entries) < 1e-5

    def test_singular_pair_is_zero_at_every_stage(self, monkeypatch):
        f = from_choi(1, 2, np.diag([1.0, 0.0]))
        g = from_choi(1, 2, np.diag([0.0, 1.0]))
        stages = []

        def recording(a, b):
            stages.append(parallel_sum(a, b).entries)
            return parallel_sum(a, b)

        monkeypatch.setattr(lebesgue, "parallel_sum", recording)
        assert max_abs(ac_part_oracle(f, g).choi.entries) < 1e-14
        assert stages and max(max_abs(x) for x in stages) < 1e-14

    def test_extrapolant_that_is_not_psd_raises_with_its_lowest_eigenvalue(self, monkeypatch):
        # every stage returns one indefinite matrix, so the table converges at
        # once and its extrapolant is that matrix, with eigenvalue -0.5
        f = from_choi(1, 2, np.eye(2))
        monkeypatch.setattr(lebesgue, "parallel_sum",
                            lambda a, b: HermitianMatrix(np.diag([1.0, -0.5])))
        with pytest.raises(NonConvergence, match="extrapolated limit") as info:
            ac_part_oracle(f, f)
        assert info.value.estimate == 0.5

    def test_iterates_that_never_settle_raise_with_the_larger_of_the_last_two_moves(
            self, monkeypatch):
        # the stage at n = 2^k returns (-1/2)^k diag(1, 0), so the diagonal of
        # the depth-4 table is (80/7) (-1/2)^k diag(1, 0): its moves halve at
        # each step, and the larger of the last two, from 2^18 to 2^19, is
        # (80/7) (2^-18 + 2^-19) = (240/7) 2^-19, well past TOL_LIM ||C_G||
        f = from_choi(1, 2, np.eye(2))
        monkeypatch.setattr(lebesgue, "parallel_sum", lambda a, b: HermitianMatrix(
            np.diag([(-0.5) ** round(math.log2(a.entries[0, 0].real)), 0.0])))
        est, tol = 240 / 7 * 2.0 ** -19, TOL_LIM * f.choi.norm()
        with pytest.raises(NonConvergence, match=f"parallel-sum limit moved {est:.3e} at "
                                                 f"n={2 ** 20}, tolerance {tol:.3e}") as info:
            ac_part_oracle(f, f)
        assert info.value.estimate == pytest.approx(est, rel=1e-12)
        assert info.value.estimate > tol

    def test_planted_pairs(self, rng):
        for _ in range(10):
            f, g = planted_pair(rng, 1, 3)
            a = decompose(f, g).ac.choi.entries
            b = ac_part_oracle(f, g).choi.entries
            assert max_abs(a - b) <= 1e-5 * max(1.0, g.choi.norm())

    def test_nonconvergence_estimate_exceeds_the_gate(self):
        # A C_G 10^6 to 10^12 above C_F puts the series radius past the 2^20
        # budget, which stops the oracle on about half of such pairs; whatever
        # stops it, the estimate it carries is what failed the TOL_LIM ||C_G|| gate.
        rng = np.random.default_rng(7)
        raised = 0
        for _ in range(200):
            d = int(rng.integers(2, 4))
            f = random_cp(rng, d, d, rank=int(rng.integers(1, d * d + 1)))
            g = random_cp(rng, d, d, rank=int(rng.integers(1, d * d + 1)))
            g = from_choi(d, d, 10.0 ** rng.uniform(6, 12) * g.choi.entries)
            try:
                ac_part_oracle(f, g)
            except NonConvergence as exc:
                raised += 1
                assert exc.estimate > TOL_LIM * g.choi.norm()
        assert raised >= 20


class TestDecompose:
    def test_scalar_case(self):
        f = from_choi(1, 2, np.diag([1.0, 0.0]))
        g = from_choi(1, 2, np.diag([1.0, 1.0]))
        split = decompose(f, g)
        assert max_abs(split.ac.choi.entries - np.diag([1.0, 0.0])) < 1e-12
        assert max_abs(split.sing.choi.entries - np.diag([0.0, 1.0])) < 1e-12
        assert split.alpha_min == pytest.approx(1.0, rel=1e-10)

    def test_dominated_has_no_singular_part(self, rng):
        f = from_choi(2, 2, random_psd(rng, 4))
        g = 0.3 * f
        split = decompose(f, g)
        assert max_abs(split.sing.choi.entries) < 1e-10
        assert split.alpha_min == pytest.approx(0.3, rel=1e-9)

    def test_orthogonal_pair(self):
        f = from_choi(1, 2, np.diag([2.0, 0.0]))
        g = from_choi(1, 2, np.diag([0.0, 3.0]))
        split = decompose(f, g)
        assert max_abs(split.ac.choi.entries) < 1e-12
        assert max_abs(split.sing.choi.entries - g.choi.entries) < 1e-12
        assert split.alpha_min == 0.0

    def test_zero_reference(self, rng):
        zero = from_choi(1, 3, np.zeros((3, 3)))
        g = from_choi(1, 3, random_psd(rng, 3, rank=2))
        split = decompose(zero, g)
        assert max_abs(split.ac.choi.entries) == 0.0
        assert max_abs(split.sing.choi.entries - g.choi.entries) < 1e-14
        assert split.alpha_min == 0.0

    def test_zero_target(self, rng):
        f = from_choi(1, 3, random_psd(rng, 3))
        zero = from_choi(1, 3, np.zeros((3, 3)))
        split = decompose(f, zero)
        assert max_abs(split.ac.choi.entries) == 0.0
        assert max_abs(split.sing.choi.entries) == 0.0
        assert split.alpha_min == 0.0

    @pytest.mark.parametrize("theta", [1e-2, 1e-3, 3e-4])
    def test_singular_pair_with_an_ill_conditioned_sum(self, rng, theta):
        """Complementary ranges with one principal angle theta: C_F + C_G has
        condition number about 1/theta^2 while A' has spectrum exactly {0, 1}."""
        for _ in range(8):
            q = random_unitary(rng, 16)
            fv = q[:, :6].copy()
            fv[:, 5] = np.cos(theta) * q[:, 6] + np.sin(theta) * q[:, 5]
            gv = q[:, 6:]
            f = from_choi(4, 4, (fv * rng.uniform(0.5, 2.0, 6)) @ fv.conj().T)
            g = from_choi(4, 4, (gv * rng.uniform(0.5, 2.0, 10)) @ gv.conj().T)
            split = decompose(f, g)
            assert max_abs(split.ac.choi.entries) < 1e-8
            assert split.alpha_min == 0.0

    @pytest.mark.parametrize("a, b, alpha", [([1e-7, 1.0, 5e-10], [1.0, 0.0, 5e-10], 1e7),
                                             ([1.0, 1.0, 5e-10], [1e-7, 0.0, 5e-10], 1.0)])
    def test_small_weight_beside_an_ill_conditioned_sum(self, a, b, alpha):
        """F has full rank, so G is all absolutely continuous even where t or
        1 - t is 1e-7 and C_F + C_G has a 1e-9 eigenvalue elsewhere."""
        f, g = from_choi(1, 3, np.diag(a)), from_choi(1, 3, np.diag(b))
        split = decompose(f, g)
        assert max_abs(split.ac.choi.entries - np.diag(b)) < 1e-12
        assert max_abs(split.sing.choi.entries) < 1e-12
        assert split.alpha_min == pytest.approx(alpha, rel=1e-6)
        assert is_abs_continuous(g, f)

    def test_zero_pair(self):
        """C = 0: the shared pair has an empty support, so every Gram form is 0."""
        zero = from_choi(2, 2, np.zeros((4, 4)))
        z = zero.choi
        means = [opmeans.geometric_mean(z, z), opmeans.mean(opmeans.MeanKind.power(0.3), z, z),
                 opmeans.mean(opmeans.LOG, z, z),
                 opmeans.mean(opmeans.MeanKind.custom(opmeans.power_rep(0.3)), z, z)]
        for m in means:
            assert max_abs(m.entries) == 0.0
        split = decompose(zero, zero)
        assert max_abs(split.ac.choi.entries) == 0.0
        assert max_abs(split.sing.choi.entries) == 0.0
        assert split.alpha_min == 0.0
        # the bound never falls below a rounding unit per dimension: 4 x 2^-1074
        assert split.recon == Verdict(0.0, 4 * 2.0 ** -1074) and split.recon
        assert SpectralPair(z, z).t.shape == (0,)

    def test_additivity_and_mutual_singularity(self, rng):
        for _ in range(10):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            f, g = planted_pair(rng, m, n)
            split = decompose(f, g)
            resid = max_abs(split.ac.choi.entries + split.sing.choi.entries
                            - g.choi.entries)
            assert resid <= 1e-9 * max(1.0, g.choi.norm())
            assert is_singular(f, split.sing)
            assert is_abs_continuous(split.ac, f)

    def test_recon_is_the_sum_residual(self):
        for f, g in generic_pairs(64):
            split = decompose(f, g)
            resid = max_abs(split.ac.choi.entries + split.sing.choi.entries - g.choi.entries)
            scale = max(max_abs(f.choi.entries), max_abs(g.choi.entries))
            assert split.recon == Verdict(resid, 1e-9 * scale)
            assert split.recon

    def test_nearly_parallel_rank_one_pairs_return_a_split(self):
        """The recon verdict is returned, not raised, however it comes out."""
        rng = np.random.default_rng(7)
        for _ in range(100):
            f, g = nearly_parallel_pair(rng, 10.0 ** rng.uniform(-7.0, -5.0))
            split = decompose(f, g)
            resid = max_abs(split.ac.choi.entries + split.sing.choi.entries - g.choi.entries)
            scale = max(max_abs(f.choi.entries), max_abs(g.choi.entries))
            assert split.recon == Verdict(resid, TOL_ADD * scale)
            assert is_psd(split.ac.choi) and is_psd(split.sing.choi)

    def test_alpha_min_by_bisection(self, rng):
        # two independent oracles: the bisection in the CP order and the closed form
        for _ in range(5):
            f, g = planted_pair(rng, 1, 4)
            split = decompose(f, g)
            if split.alpha_min == 0.0:
                continue
            hi = alpha_by_bisection(f, split.ac, 2.0 * split.alpha_min + 1.0, 60)
            assert hi == pytest.approx(split.alpha_min, rel=1e-6, abs=1e-9)
            assert alpha_closed_form(f, split.ac) == pytest.approx(split.alpha_min, rel=1e-9)

    def test_alpha_min_dominates(self, rng):
        f, g = planted_pair(rng, 2, 2)
        split = decompose(f, g)
        if not math.isinf(split.alpha_min):
            diff = split.alpha_min * f.choi.entries - split.ac.choi.entries
            assert min_eig(diff) > -1e-8 * max(1.0, split.alpha_min)

    def test_maximality_against_shorted_competitors(self, rng):
        for _ in range(5):
            f, g = planted_pair(rng, 1, 4)
            split = decompose(f, g)
            w, u = f.choi.eig()
            cols = u[:, w > 1e-10 * max(w[-1], 0.0)]
            if cols.shape[1] == 0:
                continue
            for _ in range(5):
                r = int(rng.integers(1, cols.shape[1] + 1))
                mix = cols @ random_unitary(rng, cols.shape[1])[:, :r]
                theta_choi = shorted_to_subspace(g.choi.entries, mix)
                theta = clamp_psd(theta_choi, tol=1e-7).entries
                assert below(theta, g.choi.entries, g)
                assert below(theta, split.ac.choi.entries, g)


class TestPredicates:
    def test_singular_examples(self, rng):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
        w = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
        f = from_choi(2, 2, np.outer(v, v))
        g = from_choi(2, 2, np.outer(w, w))
        assert is_singular(f, g)
        nonzero = from_choi(2, 2, random_psd(rng, 4, rank=2))
        assert not is_singular(nonzero, nonzero)
        f2 = from_choi(1, 2, np.diag([1.0, 1.0]))
        g2 = from_choi(1, 2, np.diag([0.0, 1.0]))
        assert not is_singular(f2, g2)

    def test_singularity_matches_support_criterion(self, rng):
        for _ in range(8):
            f, g = planted_pair(rng, 2, 2)
            a_prime, b_prime, _, _ = rn_matrices(f, g)
            pa, pb = support_proj(a_prime), support_proj(b_prime)
            support_orthogonal = max_abs(pa @ pb) < 1e-8
            assert bool(is_singular(f, g)) == support_orthogonal

    def test_abs_continuous_examples(self, rng):
        f = from_choi(2, 2, random_psd(rng, 4, rank=3))
        assert is_abs_continuous((1.0 / 3.0) * f, f)
        a = from_choi(1, 2, np.diag([1.0, 0.0]))
        b = from_choi(1, 2, np.diag([1.0, 1.0]))
        assert not is_abs_continuous(b, a)
        zero = from_choi(1, 2, np.zeros((2, 2)))
        assert is_abs_continuous(zero, a)

    def test_predicates_return_their_verdict_at_tol_split(self, rng):
        f, g = random_cp(rng, 2, 2, rank=3), random_cp(rng, 2, 2, rank=2)
        for v in (is_singular(f, g), is_singular(g, g), is_abs_continuous(g, f),
                  is_abs_continuous(f, g), is_abs_continuous(0.0 * g, f)):
            assert type(v) is Verdict and v.bound == TOL_SPLIT
            assert bool(v) == (v.residual <= TOL_SPLIT)

    def test_abs_continuity_matches_range_criterion(self, rng):
        for _ in range(8):
            f, g = planted_pair(rng, 1, 3)
            a_prime, b_prime, _, _ = rn_matrices(f, g)
            pa = support_proj(a_prime)
            outside = (np.eye(3) - pa) @ b_prime @ (np.eye(3) - pa)
            range_ok = max_abs(outside) < 1e-8
            assert bool(is_abs_continuous(g, f)) == range_ok

    @pytest.mark.parametrize("ranks, factored", [((6, 3), True), ((4, 3), False)],
                             ids=["factored", "eigh"])
    def test_abs_continuity_residual_is_the_singular_parts_trace_share(self, rng, ranks,
                                                                       factored):
        """The residual is tr(sing) / tr(C_G) of ``decompose``'s split, both read at
        the pair's folded scale 2^-e_G, on either route and in both orientations."""
        for _ in range(4):
            c, s = 10.0 ** rng.uniform(-12.0, 12.0, size=2)
            one, two = (from_choi(2, 3, x * random_psd(rng, 6, rank=r))
                        for x, r in zip((c, s), ranks))
            for f, g in ((one, two), (two, one)):
                assert (hermlinalg._shared_pair(f.choi, g.choi)._xp is not None) == factored
                e = g.choi._exp()
                sing, total = (np.ldexp(np.trace(x.choi.entries).real, -e)
                               for x in (lebesgue.decompose(f, g).sing, g))
                assert abs(is_abs_continuous(g, f).residual - sing / total) <= 1e-14


class TestNormalFunctionalSpecialization:
    def test_matches_direct_matrix_computation(self, rng):
        # functionals carry transposed density matrices; the direct route
        # computes the compression on the densities themselves
        for _ in range(6):
            rho = random_psd(rng, 3, rank=int(rng.integers(1, 4)))
            sigma = random_psd(rng, 3, rank=int(rng.integers(1, 4)))
            split = decompose(functional(rho), functional(sigma))
            t = rho + sigma
            w, u = np.linalg.eigh(0.5 * (t + t.conj().T))
            keep = w > 1e-10 * max(float(w[-1]), 0.0)
            half = (u[:, keep] * np.sqrt(w[keep])) @ u[:, keep].conj().T
            ih = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
            ha = ih @ rho @ ih
            wa, ua = np.linalg.eigh(0.5 * (ha + ha.conj().T))
            e = ua[:, wa > 1e-10] @ ua[:, wa > 1e-10].conj().T
            hb = ih @ sigma @ ih
            want = half @ (e @ hb @ e) @ half
            assert max_abs(split.ac.choi.entries - want.T) \
                <= TOL_LIM * max(1.0, max_abs(sigma))


def direct_rn_compression(a, b):
    """Raw-numpy oracle for the ac part of b relative to a (operator level)."""
    t = a + b
    w, u = np.linalg.eigh(0.5 * (t + t.conj().T))
    keep = w > 1e-10 * max(float(w[-1]), 0.0)
    half = (u[:, keep] * np.sqrt(w[keep])) @ u[:, keep].conj().T
    ih = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
    ha = ih @ a @ ih
    wa, ua = np.linalg.eigh(0.5 * (ha + ha.conj().T))
    e = ua[:, wa > 1e-10] @ ua[:, wa > 1e-10].conj().T
    out = half @ (e @ (ih @ b @ ih) @ e) @ half
    return 0.5 * (out + out.conj().T)


class TestAndoRecovery:
    def test_scalar_domain_maps(self, rng):
        for _ in range(8):
            a = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            b = random_psd(rng, 4, rank=int(rng.integers(1, 5)))
            phi, psi = from_choi(1, 4, a), from_choi(1, 4, b)
            # parallel sum of the maps evaluated at 1 is the operator parallel sum
            ps = parallel_sum(phi.choi, psi.choi).entries
            w, u = np.linalg.eigh(a + b)
            keep = w > 1e-10 * max(float(w[-1]), 0.0)
            pinv = (u[:, keep] / w[keep]) @ u[:, keep].conj().T
            direct = a @ pinv @ b
            assert max_abs(ps - 0.5 * (direct + direct.conj().T)) < 1e-9
            # ac part against the direct matrix-level compression
            got = decompose(phi, psi).ac.choi.entries
            assert max_abs(got - direct_rn_compression(a, b)) \
                < 1e-6 * max(1.0, max_abs(b))


def ando_ac(f, g):
    """Ando's closed form of the F-absolutely continuous part of G, in raw numpy.

    ``G^{1/2} P G^{1/2}`` with P the projection onto ``ker((1 - P_F) G^{1/2})``.
    """
    wg, ug = np.linalg.eigh(g)
    g_half = (ug * np.sqrt(np.clip(wg, 0.0, None))) @ ug.conj().T
    wf, uf = np.linalg.eigh(f)
    ran_f = uf[:, wf > 1e-10 * wf[-1]]
    k = g_half - ran_f @ (ran_f.conj().T @ g_half)
    w, u = np.linalg.eigh(k.conj().T @ k)
    kern = u[:, w <= 1e-10 * wg[-1]]
    ac = g_half @ kern @ kern.conj().T @ g_half
    return 0.5 * (ac + ac.conj().T)


def generic_pairs(seed):
    """Default-generator pairs at Choi 2, 4, 6 and 16, ranks 1 to full on both sides."""
    rng = np.random.default_rng(seed)
    for m, n in [(1, 2), (2, 2), (2, 3), (4, 4)]:
        d = m * n
        ranks = np.unique(np.linspace(1, d, min(d, 5)).round().astype(int))
        for rf in ranks:
            for rg in ranks:
                yield random_cp(rng, m, n, rank=int(rf)), random_cp(rng, m, n, rank=int(rg))


SCALES = [1e-12, 1.0, 1e12]


class TestGenericPairs:
    @pytest.mark.parametrize("s", SCALES)
    def test_decompose_matches_ando_closed_form(self, s):
        for f, g in generic_pairs(61):
            split = decompose(s * f, s * g)
            want = ando_ac(f.choi.entries, g.choi.entries)
            scale = s * g.choi.norm()
            assert max_abs(split.ac.choi.entries - s * want) <= 1e-10 * scale
            # and the library's own closed form, from the support factor of C_G
            ando = hermlinalg._ando_part((s * f).choi, (s * g).choi).entries
            assert max_abs(ando - s * want) <= 1e-10 * scale
            assert max_abs(split.sing.choi.entries - s * (g.choi.entries - want)) \
                <= 1e-10 * scale
            assert is_singular(s * f, split.sing)

    def test_alpha_min_is_invariant_under_joint_scale(self):
        for f, g in generic_pairs(62):
            alpha = decompose(f, g).alpha_min
            for s in (1e-12, 1e12):
                got = decompose(s * f, s * g).alpha_min
                assert abs(got - alpha) <= 1e-10 * max(1.0, alpha)

    @pytest.mark.parametrize("s", SCALES)
    def test_oracle_agrees(self, s):
        for f, g in generic_pairs(63):
            want = decompose(s * f, s * g).ac.choi.entries
            got = ac_part_oracle(s * f, s * g).choi.entries
            assert max_abs(got - want) <= TOL_LIM * s * g.choi.norm()

    def test_slow_direction_raises(self, rng):
        # F has an eigenvalue 1e-8 along a direction where G has weight 1, so
        # n F : G is still far from its limit G at n = 2^20.
        u = random_unitary(rng, 4)
        f = from_choi(2, 2, (u * np.array([1e-8, 0.5, 1.0, 2.0])) @ u.conj().T)
        g = from_choi(2, 2, np.eye(4))
        assert max_abs(decompose(f, g).ac.choi.entries - np.eye(4)) < 1e-6
        with pytest.raises(NonConvergence) as info:
            ac_part_oracle(f, g)
        assert info.value.estimate > TOL_LIM


class TestAndoClosedForm:
    """``hermlinalg._ando_part``, the closed form ``cpmean lebesgue`` checks its
    split against, on generic pairs: Gaussian Kraus operators, m, n in 1..3."""

    def test_decompose_matches_it_across_48_decades_of_scale_ratio(self):
        rng = np.random.default_rng(4848)
        for _ in range(300):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            s_f = 10.0 ** rng.uniform(-12.0, 12.0)
            f = gaussian_cp(rng, m, n, s_f)
            g = gaussian_cp(rng, m, n, s_f * 10.0 ** rng.uniform(-24.0, 24.0))
            got = decompose(f, g).ac.choi.entries
            want = hermlinalg._ando_part(f.choi, g.choi).entries
            assert max_abs(got - want) <= 1e-8 * g.choi.norm()

    def test_it_is_the_short_of_g_to_the_range_of_f(self):
        # Ando's ac part is the shorted operator of C_G to ran C_F
        rng = np.random.default_rng(4849)
        for _ in range(200):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            f, g = gaussian_cp(rng, m, n), gaussian_cp(rng, m, n)
            w, u = np.linalg.eigh(support_proj(f.choi.entries))
            want = shorted_to_subspace(g.choi.entries, u[:, w > 0.5])
            got = hermlinalg._ando_part(f.choi, g.choi).entries
            assert max_abs(got - want) <= 1e-8 * g.choi.norm()

    def test_it_is_g_itself_where_f_is_full_rank_or_g_is_zero(self, rng):
        # neither reads the eig of C_G: a scaled map keeps none
        f, thin = random_cp(rng, 2, 2), random_cp(rng, 2, 2, rank=2)
        for cf, cg in ((f.choi, (0.5 * thin).choi), (thin.choi, (0.0 * f).choi)):
            assert hermlinalg._ando_part(cf, cg) is cg and cg._eig is None


class TestScaleFreeSingularity:
    @pytest.mark.parametrize("s", SCALES)
    def test_is_singular_at_joint_scale(self, rng, s):
        f, g = random_cp(rng, 2, 2, rank=3), random_cp(rng, 2, 2, rank=3)
        f, g = s * f, s * g
        assert not is_singular(f, g)
        assert is_singular(f, g).residual > 1e-3
        assert is_singular(f, decompose(f, g).sing)
        orth_f = from_choi(1, 2, s * np.diag([1.0, 0.0]))
        orth_g = from_choi(1, 2, s * np.diag([0.0, 2.0]))
        assert is_singular(orth_f, orth_g) == Verdict(0.0, TOL_SPLIT)


class TestScaleFreeAbsContinuity:
    @pytest.mark.parametrize("s", SCALES)
    def test_is_abs_continuous_at_joint_scale(self, rng, s):
        f, g = random_cp(rng, 2, 2, rank=3), random_cp(rng, 2, 2, rank=3)
        f, g = s * f, s * g
        split = decompose(f, g)
        assert not is_abs_continuous(g, f)
        assert not is_abs_continuous(split.sing, f)
        assert is_abs_continuous(split.ac, f)
        assert is_abs_continuous(g, f).residual > 1e-3
        assert abs(is_abs_continuous(split.sing, f).residual - 1.0) < 1e-10
        assert is_abs_continuous(split.ac, f).residual <= 1e-12
        assert is_abs_continuous(0.0 * g, f) == Verdict(0.0, TOL_SPLIT)

    def test_a_trace_beyond_double_range_reads_as_at_unit_scale(self):
        # tr C_G = 24 x 2^1020 overflows, but not in the pair's folded units.
        # Both scaled copies have no cached eig, so both pairs take the eigh
        # route on the same folded entries: the residuals agree bit for bit
        g, f = (from_choi(2, 2, c) for c in (5.0 * np.ones((4, 4)) + np.eye(4),
                                            np.diag([1.0, 2.0, 0.0, 0.0])))
        want = is_abs_continuous(1.0 * g, 1.0 * f)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = is_abs_continuous(2.0 ** 1020 * g, 2.0 ** 1020 * f)
        assert got == want and want.residual == pytest.approx(29 / 33, rel=1e-14)


class TestEighCount:
    def test_pinned_eigh_counts(self, rng, eigh_calls, monkeypatch):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2, rank=2)
        sums = []

        def counting(a, b):
            sums.append(None)
            return parallel_sum(a, b)

        monkeypatch.setattr(lebesgue, "parallel_sum", counting)
        got = eigh_calls(lambda: ac_part_oracle(f, g))
        # the extrapolant's eig, and per sum the eig of nF + G and the
        # eigenvalues of nF : G, its PSD check
        assert sums and got == (1 + len(sums), len(sums))


class TestOracleAtExtremeScales:
    """The limit oracle where its radius ``||C_G|| / lambda_min^+(C_F)`` or its
    iterates ``2^k C_F`` leave the double range: a CpMeanError, never a bare
    Python error or a warning."""

    def test_a_radius_past_the_double_range_is_past_the_budget(self):
        # the radius 2e603 overflowed; from the exponents it is about 2^2005
        f, g = from_choi(1, 2, 1e-300 * np.diag([1.0, 0.0])), from_choi(1, 2, 1e303 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence, match=r"needs n >= 2\^2005") as info:
                ac_part_oracle(f, g)
        assert info.value.estimate == g.choi.norm() > TOL_LIM * g.choi.norm()

    def test_an_iterate_past_the_double_range_is_a_domain_error(self):
        # 2^k C_F passes DBL_MAX at k = 5, before the iterates settle
        f = from_choi(1, 2, 1e307 * np.diag([1.0, 1e-10]))
        g = from_choi(1, 2, 1e307 * np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond double range"):
                ac_part_oracle(f, g)


class TestIndependentScales:
    """F and G scaled apart: the split reads the folded pair, so the support
    rule and alpha_min do not depend on the ratio of the two scales."""

    def test_tiny_reference_dominates_a_huge_target(self):
        e11 = np.zeros((4, 4))
        e11[0, 0] = 1e12
        f, g = from_choi(2, 2, 1e-12 * np.eye(4)), from_choi(2, 2, e11)
        split = decompose(f, g)
        assert max_abs(split.ac.choi.entries - e11) <= 1e-14 * 1e12
        assert max_abs(split.sing.choi.entries) <= 1e-14 * 1e12
        assert split.alpha_min == pytest.approx(1e24, rel=1e-12)
        assert is_abs_continuous(g, f)

    @pytest.mark.parametrize("swap", [False, True], ids=["small-large", "large-small"])
    @pytest.mark.parametrize("large", [1e297, 1e300])
    def test_scale_ratio_beyond_the_double_range_splits(self, large, swap):
        # s_G/s_F = 1e307 is a double, 1e310 is not: alpha_min, the least alpha
        # with C_G <= alpha C_F, reads the exponents, so only an alpha_min past
        # DBL_MAX is a DomainError, and one below 2^-1022 is a subnormal double
        small = from_choi(1, 2, 1e-10 * np.eye(2))
        big = from_choi(1, 2, large * np.array([[1.0, 0.5], [0.5, 1.0]]))
        f, g = (big, small) if swap else (small, big)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if large == 1e300 and not swap:
                with pytest.raises(DomainError, match="alpha_min is beyond double range"):
                    decompose(f, g)
                return
            split = decompose(f, g)
        want = 1e-10 / (0.5 * large) if swap else 1.5 * large / 1e-10
        assert split.alpha_min == pytest.approx(want, rel=1e-15 if want > 2.0 ** -1022 else 1e-3)
        assert max_abs(split.ac.choi.entries - g.choi.entries) <= 1e-14 * max_abs(g.choi.entries)
        assert not split.sing.choi.entries.any() and split.recon

    def test_a_subnormal_joint_scale_splits_as_at_unit_scale(self, rng):
        s = 1e-310  # below 1/DBL_MAX: folding by 1/s would overflow
        a, b = random_psd(rng, 4), random_psd(rng, 4, rank=3)
        want = decompose(from_choi(2, 2, a), from_choi(2, 2, b))
        got = decompose(from_choi(2, 2, s * a), from_choi(2, 2, s * b))
        for part in ("ac", "sing"):
            w = getattr(want, part).choi.entries
            assert max_abs(getattr(got, part).choi.entries - s * w) <= 1e-12 * s * max_abs(b)
        assert got.alpha_min == pytest.approx(want.alpha_min, rel=1e-12)

    def test_alpha_min_beyond_double_range_is_a_domain_error(self, rng):
        # s_G/s_F stays a double; alpha_min, 10 times it, does not
        u = random_unitary(rng, 4)
        a, b = ((u * w) @ u.conj().T for w in ([1.0, 1.0, 1.0, 0.1], [0.5, 0.5, 0.5, 1.0]))
        f, g = from_choi(2, 2, 1e-308 * a), from_choi(2, 2, b)
        assert decompose(from_choi(2, 2, a), g).alpha_min == pytest.approx(10.0)
        assert not math.isinf(max_abs(b) / max_abs(f.choi.entries))
        with pytest.raises(DomainError, match="alpha_min .* beyond double range"):
            decompose(f, g)

    def test_full_rank_reference_takes_all_of_the_target(self):
        rng = np.random.default_rng(2026)
        for _ in range(200):
            rank = int(rng.integers(1, 17))
            cf, cg = 10.0 ** rng.uniform(-12.0, 12.0, size=2)
            f = from_choi(4, 4, cf * random_psd(rng, 16))
            g = from_choi(4, 4, cg * random_psd(rng, 16, rank=rank))
            split = decompose(f, g)
            gmax = max_abs(g.choi.entries)
            assert max_abs(split.ac.choi.entries - g.choi.entries) <= 1e-12 * gmax, rank
            assert max_abs(split.sing.choi.entries) <= 1e-12 * gmax, rank
            assert is_abs_continuous(g, f)
