import os
import re
import subprocess
import sys

import numpy as np
import pytest

from cpmean.cpmaps import mean_cp
from cpmean.errors import DomainError
from cpmean.opmeans import (
    ARITH,
    HARM,
    ConnectionRep,
    MeanKind,
    adjoint_rep,
    dual_rep,
    geometric_mean,
    mean,
    parallel_sum,
    power_rep,
    transpose_rep,
)

from conftest import max_abs, random_cp, random_psd
from jacobi import TOL_QUAD, power_atoms

TGRID = 2.0 ** np.arange(-4, 5, dtype=float)

ARITH_REP = ConnectionRep(0.5, 0.5, ())
HARM_REP = ConnectionRep(0.0, 0.0, ((1.0, 1.0),))
# one atom (l, w) = (1, 1/2): g(t) = t/(1+t), whose atom formula is parallel_sum itself
PARALLEL_REP = ConnectionRep(0.0, 0.0, ((1.0, 0.5),))


def atom_oracle(rep, a, b):
    """Per-atom formula ``aA + bB + sum_k w_k (1+l_k)/l_k [(l_k A) : B]``.

    Covers reps without the adjoint flag; a transposed rep is expanded on its
    atoms (swap a and b, l -> 1/l).
    """
    assert not rep.adjoint
    ca, cb, atoms = rep.a, rep.b, rep.atoms
    if rep.transposed:
        ca, cb, atoms = cb, ca, tuple((1.0 / lam, wt) for lam, wt in atoms)
    a, b = np.asarray(a), np.asarray(b)
    out = ca * a + cb * b
    for lam, wt in atoms:
        out = out + wt * (1.0 + lam) / lam * parallel_sum(lam * a, b).entries
    return out


def rel_err(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def scalar_apply(rep, t):
    """Connection of the scalar pair (1, t) computed through matrices."""
    got = mean(MeanKind.custom(rep), np.array([[1.0]]), np.array([[float(t)]]))
    return float(got.entries[0, 0].real)


class TestConnectionRep:
    def test_validation(self):
        with pytest.raises(DomainError):
            ConnectionRep(-0.1, 0.0, ())
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="finite"):
                ConnectionRep(bad, 0.0, ())
            with pytest.raises(DomainError, match="finite"):
                ConnectionRep(0.0, bad, ())
        with pytest.raises(DomainError):
            ConnectionRep(0.0, 0.0, ((-1.0, 1.0),))
        with pytest.raises(DomainError):
            ConnectionRep(0.0, 0.0, ((1.0, 0.0),))

    @pytest.mark.parametrize("atoms", [((1.0,),), ((1.0, 0.5, 2.0),), (1.0,), 1.0],
                             ids=["one number", "three numbers", "bare number", "no tuple"])
    def test_an_atom_that_is_not_a_pair_raises_domain_error(self, atoms):
        with pytest.raises(DomainError, match="pairs"):
            ConnectionRep(0.0, 0.0, atoms)

    def test_scalar_evaluation(self):
        assert ARITH_REP.scalar(3.0) == pytest.approx(2.0)
        assert HARM_REP.scalar(1.0) == pytest.approx(1.0)


class TestConnectionApply:
    def test_arithmetic_rep(self, rng):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        got = mean(MeanKind.custom(ARITH_REP), a, b)
        assert max_abs(got.entries - mean(ARITH, a, b).entries) < 1e-12

    def test_single_atom_is_harmonic(self, rng):
        a = random_psd(rng, 3, rank=2)
        b = random_psd(rng, 3)
        got = mean(MeanKind.custom(HARM_REP), a, b)
        assert max_abs(got.entries - mean(HARM, a, b).entries) < 1e-12

    def test_power_rep_matrix_closed_form(self):
        rep = power_atoms(0.5, 64)
        got = mean(MeanKind.custom(rep), np.diag([1.0, 9.0]), np.diag([9.0, 1.0]))
        assert max_abs(got.entries - 3.0 * np.eye(2)) < TOL_QUAD

    def test_custom_kind_dispatch(self, rng):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        rep = power_atoms(0.3, 64)
        got = mean(MeanKind.custom(rep), a, b)
        want = mean(MeanKind.power(0.3), a, b)
        assert max_abs(got.entries - want.entries) < TOL_QUAD


class TestKernelRoute:
    @pytest.mark.parametrize("dim", [4, 9, 16])
    @pytest.mark.parametrize("transform", [lambda r: r, transpose_rep],
                             ids=["plain", "transpose"])
    def test_matches_atom_formula_on_rank_deficient_pairs(self, rng, dim, transform):
        # Rank pairs (r, dim + 1 - r) and (r, dim) run each argument through
        # every rank from 1 to full, with ran(A) ∩ ran(B) never trivial.  The
        # one-atom rep compares the spectral pair with parallel_sum alone.
        pairs = [(r, dim + 1 - r) for r in range(1, dim + 1)]
        pairs += [(r, dim) for r in range(1, dim + 1)] + [(dim, r) for r in range(1, dim)]
        for ra, rb in pairs:
            a = random_psd(rng, dim, rank=ra)
            b = random_psd(rng, dim, rank=rb)
            for rep in (transform(power_atoms(float(rng.uniform(0.1, 0.9)), 16)),
                        transform(PARALLEL_REP)):
                got = mean(MeanKind.custom(rep), a, b).entries
                assert rel_err(got, atom_oracle(rep, a, b)) < 1e-10, (ra, rb)

    def test_custom_kind_matches_atom_formula(self, rng):
        a = random_psd(rng, 4, rank=2)
        b = random_psd(rng, 4, rank=3)
        rep = power_atoms(0.3)
        got = mean(MeanKind.custom(rep), a, b).entries
        assert rel_err(got, atom_oracle(rep, a, b)) < 1e-10

    @pytest.mark.parametrize("transform", [adjoint_rep, dual_rep])
    def test_adjoint_and_dual_match_inverse_formula(self, rng, transform):
        # On invertible pairs A σ* B = (A^-1 σ B^-1)^-1, and dual = adjoint ∘ transpose.
        a = random_psd(rng, 9)
        b = random_psd(rng, 9)
        rep = power_atoms(0.3, 16)
        base = rep if transform is adjoint_rep else transpose_rep(rep)
        want = np.linalg.inv(atom_oracle(base, np.linalg.inv(a), np.linalg.inv(b)))
        got = mean(MeanKind.custom(transform(rep)), a, b).entries
        assert rel_err(got, want) < 1e-10


class TestPowerRep:
    def test_normalized_at_one(self):
        for alpha in (0.1, 0.5, 0.9):
            rep = power_atoms(alpha, 64)
            assert abs(rep.scalar(1.0) - 1.0) < TOL_QUAD

    def test_scalar_examples(self):
        assert abs(power_atoms(0.5, 64).scalar(4.0) - 2.0) < TOL_QUAD
        assert abs(power_atoms(0.25, 64).scalar(16.0) - 2.0) < TOL_QUAD

    @pytest.mark.parametrize("alpha", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    def test_scalar_grid(self, alpha):
        rep = power_atoms(alpha, 64)
        err = np.abs(rep.scalar(TGRID) - TGRID ** alpha).max()
        assert err < TOL_QUAD

    def test_consistent_through_matrices(self):
        rep = power_atoms(0.5, 64)
        for t in (0.25, 1.0, 4.0):
            assert abs(scalar_apply(rep, t) - np.sqrt(t)) < TOL_QUAD

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            power_atoms(0.0, 64)
        with pytest.raises(DomainError):
            power_atoms(1.0, 64)
        with pytest.raises(DomainError):
            power_atoms(0.5, 2)


class TestTransforms:
    def test_transpose_of_arithmetic_is_itself(self):
        rep = transpose_rep(ARITH_REP)
        assert np.abs(rep.scalar(TGRID) - (1.0 + TGRID) / 2.0).max() < 1e-12

    def test_transpose_swaps_arguments(self, rng):
        rep = power_atoms(0.3, 32)
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        lhs = mean(MeanKind.custom(transpose_rep(rep)), a, b).entries
        rhs = mean(MeanKind.custom(rep), b, a).entries
        assert max_abs(lhs - rhs) < 1e-10

    def test_adjoint_of_arithmetic_is_harmonic(self):
        rep = adjoint_rep(ARITH_REP)
        want = 2.0 * TGRID / (1.0 + TGRID)
        assert np.abs(rep.scalar(TGRID) - want).max() < 1e-5

    def test_dual_of_arithmetic_is_harmonic(self):
        rep = dual_rep(ARITH_REP)
        want = 2.0 * TGRID / (1.0 + TGRID)
        assert np.abs(rep.scalar(TGRID) - want).max() < 1e-5

    def test_geometric_fixed_under_all_transforms(self):
        geo = power_atoms(0.5, 64)
        for transform in (transpose_rep, adjoint_rep, dual_rep):
            got = transform(geo)
            assert np.abs(got.scalar(TGRID) - np.sqrt(TGRID)).max() < 1e-5

    def test_adjoint_involutive_on_scalars(self):
        rep = power_atoms(0.3, 48)
        back = adjoint_rep(adjoint_rep(rep))
        assert np.abs(back.scalar(TGRID) - TGRID ** 0.3).max() < 1e-5

    def test_vanishing_function_rejected(self):
        zero = ConnectionRep(0.0, 0.0, ())
        with pytest.raises(DomainError):
            adjoint_rep(zero)
        with pytest.raises(DomainError):
            dual_rep(zero)

    @pytest.mark.parametrize("rep", [ARITH_REP, HARM_REP, power_atoms(0.3, 48),
                                     ConnectionRep(0.2, 0.0, ((0.3, 1.5), (7.0, 0.25))),
                                     power_rep(0.3)],
                             ids=["arith", "harm", "power", "mixed", "power_exact"])
    def test_transforms_are_exact_involutions(self, rep):
        assert adjoint_rep(adjoint_rep(rep)) == rep
        assert dual_rep(dual_rep(rep)) == rep
        assert transpose_rep(transpose_rep(rep)) == rep
        assert dual_rep(rep) == adjoint_rep(transpose_rep(rep)) == transpose_rep(adjoint_rep(rep))

    @pytest.mark.parametrize("rep", [ARITH_REP, power_atoms(0.3, 48),
                                     ConnectionRep(0.2, 0.0, ((0.3, 1.5), (7.0, 0.25))),
                                     power_rep(0.3)],
                             ids=["arith", "power", "mixed", "power_exact"])
    def test_dual_is_transpose_of_adjoint_on_scalars(self, rep):
        got = dual_rep(rep).scalar(TGRID)
        want = TGRID / rep.scalar(TGRID)
        assert np.abs(got - transpose_rep(adjoint_rep(rep)).scalar(TGRID)).max() < 1e-12
        assert np.abs(got - want).max() < 1e-12 * want.max()
        want = 1.0 / rep.scalar(1.0 / TGRID)
        assert np.abs(adjoint_rep(rep).scalar(TGRID) - want).max() < 1e-12 * want.max()

    def test_adjoint_kernel_endpoints(self):
        # the connection of the commuting pair (t, 1 - t) at t = 0 and t = 1
        t = np.array([0.0, 1.0])
        mixed = ConnectionRep(0.0, 0.0, ((0.5, 2.0), (4.0, 1.0)))
        want = [1.0 / sum(w * (1.0 + l) / l for l, w in mixed.atoms),
                1.0 / sum(w * (1.0 + l) for l, w in mixed.atoms)]
        assert np.abs(adjoint_rep(mixed)._pair(t, 1.0 - t) - want).max() < 1e-15
        assert adjoint_rep(ConnectionRep(1.0, 0.0, mixed.atoms))._pair(t, 1.0 - t)[0] == 0.0
        assert adjoint_rep(ConnectionRep(0.0, 1.0, mixed.atoms))._pair(t, 1.0 - t)[1] == 0.0
        # the adjoint of the arithmetic mean is the harmonic mean 2t(1-t)
        t = np.linspace(0.0, 1.0, 33)
        got = adjoint_rep(ARITH_REP)._pair(t, 1.0 - t)
        assert np.abs(got - 2.0 * t * (1.0 - t)).max() < 1e-15

    def test_adjoint_of_arithmetic_is_harmonic_on_rank_deficient_pair(self, rng):
        a = random_psd(rng, 9, rank=4)
        b = random_psd(rng, 9, rank=7)
        got = mean(MeanKind.custom(adjoint_rep(ARITH_REP)), a, b).entries
        assert rel_err(got, mean(HARM, a, b).entries) < 1e-12

    def test_transformed_mean_on_matrices(self, rng):
        # adjoint of arithmetic applied to matrices reproduces the harmonic mean
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        got = mean(MeanKind.custom(adjoint_rep(ARITH_REP)), a, b).entries
        want = mean(HARM, a, b).entries
        scale = max(1.0, max_abs(want))
        assert max_abs(got - want) < 1e-5 * scale


class TestEighCount:
    @pytest.mark.parametrize("nodes", [16, 64])
    def test_custom_mean_costs_its_pair_and_clamp_at_any_atom_count(self, rng, eigh_calls, nodes):
        # whatever the atom count, each costs the pair's SVD alone (F invertible
        # and G rank-deficient, both eigs cached by their admission: the
        # factored pair, down from eig C and eig A'): where the result has G's
        # nullity 2 (Choi 4, G rank 2) and is a Gram form, its kernel d zero
        # where G is, down from 3 as it has no clamp, then from (2, 0) to (0,
        # 0, 1); and where the adjoint and the dual of the atom sum leak
        # 1/g(inf) onto ker B, the complement R weighed by its d = 1 σ 0 > 0:
        # that sum with the thin pair's Gram form is PSD by construction, so
        # it takes no clamp, down from (2, 0, 1), from (4, 0)
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2, rank=2)
        rep = power_atoms(0.3, nodes)
        assert len(rep.atoms) == nodes
        for transform, counts in ((lambda r: r, (0, 0, 1)), (transpose_rep, (0, 0, 1)),
                                  (adjoint_rep, (0, 0, 1)), (dual_rep, (0, 0, 1))):
            kind = MeanKind.custom(transform(rep))
            assert eigh_calls(lambda: mean_cp(kind, f, g)) == counts


class TestGeometricMeanViaConnection:
    def test_power_rep_reproduces_geometric(self, rng):
        rep = power_atoms(0.5, 64)
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        got = mean(MeanKind.custom(rep), a, b).entries
        assert max_abs(got - geometric_mean(a, b).entries) < TOL_QUAD


class TestExactPowerRep:
    """``power_rep`` is t^alpha in closed form, closed under the transforms."""

    @pytest.mark.parametrize("dim", [4, 9])
    def test_matches_closed_form_on_invertible_pairs(self, rng, dim):
        def closed_form(a, b, p):
            """``A^{1/2} (A^{-1/2} B A^{-1/2})^p A^{1/2}`` in raw numpy."""
            wa, ua = np.linalg.eigh(a)
            ah, aih = (ua * np.sqrt(wa)) @ ua.conj().T, (ua / np.sqrt(wa)) @ ua.conj().T
            mid = aih @ b @ aih
            wm, um = np.linalg.eigh(0.5 * (mid + mid.conj().T))
            return ah @ ((um * np.clip(wm, 0.0, None) ** p) @ um.conj().T) @ ah

        for _ in range(3):
            a, b = random_psd(rng, dim), random_psd(rng, dim)
            alpha = float(rng.uniform(0.1, 0.9))
            rep = power_rep(alpha)
            for r, p in ((rep, alpha), (adjoint_rep(rep), alpha),
                         (transpose_rep(rep), 1.0 - alpha), (dual_rep(rep), 1.0 - alpha)):
                got = mean(MeanKind.custom(r), a, b).entries
                assert rel_err(got, closed_form(a, b, p)) < 1e-12

    @pytest.mark.parametrize("dim", [4, 9, 16])
    def test_adjoint_and_dual_on_rank_deficient_pairs(self, rng, dim):
        # t^a is its own adjoint and its dual is t^(1-a); both vanish on
        # ker B, where a finite atom sum leaks 1/g(inf).
        for ra, rb in [(dim, 1), (dim, dim // 2), (dim // 2, dim), (dim - 1, dim - 1)]:
            a = random_psd(rng, dim, rank=ra)
            b = random_psd(rng, dim, rank=rb)
            alpha = float(rng.uniform(0.1, 0.9))
            rep = power_rep(alpha)
            got = mean(MeanKind.custom(adjoint_rep(rep)), a, b).entries
            assert rel_err(got, mean(MeanKind.power(alpha), a, b).entries) < 1e-12, (ra, rb)
            got = mean(MeanKind.custom(dual_rep(rep)), a, b).entries
            assert rel_err(got, mean(MeanKind.power(1.0 - alpha), a, b).entries) < 1e-12, (ra, rb)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
    def test_scalar_and_kernel_values(self, alpha):
        rep = power_rep(alpha)
        assert rep.atoms == ()
        for r, p in ((rep, alpha), (adjoint_rep(rep), alpha), (transpose_rep(rep), 1.0 - alpha),
                     (dual_rep(rep), 1.0 - alpha)):
            assert np.abs(r.scalar(TGRID) - TGRID ** p).max() < 1e-15 * TGRID.max()
            assert np.array_equal(r._pair(np.array([0.0, 1.0]), np.array([1.0, 0.0])),
                                  [0.0, 0.0])

    def test_domain_errors(self):
        for alpha in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(DomainError):
                power_rep(alpha)
        with pytest.raises(DomainError):
            ConnectionRep(0.5, 0.0, (), power=0.3)
        with pytest.raises(DomainError):
            ConnectionRep(0.0, 0.0, ((1.0, 1.0),), power=0.3)

    def test_runs_without_scipy(self):
        code = ("import sys\n"
                "import numpy as np\n"
                "from cpmean import MeanKind, dual_rep, from_choi, mean_cp, power_rep\n"
                "f = from_choi(2, 2, np.eye(4))\n"
                "g = from_choi(2, 2, np.diag([1.0, 2.0, 0.0, 0.0]))\n"
                "mean_cp(MeanKind.custom(dual_rep(power_rep(0.3))), f, g)\n"
                "assert 'scipy' not in sys.modules\n")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            deps = re.search(r"^dependencies = \[(.*?)\]", fh.read(), re.M | re.S).group(1)
        assert re.findall(r'"([A-Za-z0-9_.-]+)', deps) == ["numpy"]
