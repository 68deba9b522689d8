import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cpmean import cpmaps, hermlinalg, lebesgue, opmeans
from cpmean.errors import InvalidInput, ShapeError
from cpmean.hermlinalg import (
    TOL_HERM,
    TOL_PSD,
    HermitianMatrix,
    PsdMatrix,
    Verdict,
    _shared_pair,
    as_psd,
    is_psd,
    pinv_psd,
    psd_sqrt,
)
from cpmean.opmeans import MeanKind

from conftest import TOL_RECON, max_abs, meet_proj, random_cp, random_psd, random_unitary


def support_of(a):
    """Projection onto the eigenvectors ``PsdMatrix(a).support()`` keeps."""
    _, u = PsdMatrix(a).support()
    return u @ u.conj().T


class TestTypes:
    def test_symmetrization(self):
        h = HermitianMatrix([[1.0, 1.0 + 0.2j], [1.0, 2.0]])
        m = h.entries
        assert max_abs(m - m.conj().T) == 0.0

    def test_entries_read_only(self):
        h = HermitianMatrix(np.eye(2))
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInput):
            HermitianMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_psd_rejects_indefinite(self):
        with pytest.raises(InvalidInput):
            PsdMatrix([[1.0, 2.0], [2.0, 1.0]])

    def test_psd_accepts_small_negative_drift(self):
        PsdMatrix(np.diag([1.0, -1e-12]))

    def test_clamped_zeroes_small_negatives(self):
        for low in (-1e-12, -TOL_PSD):  # down to the bound itself
            w, _ = PsdMatrix.clamped(np.diag([1.0, low]), TOL_PSD).eig()
            assert w[0] == 0.0

    def test_clamped_rejects_large_negatives(self):
        for low in (-1e-3, np.nextafter(-TOL_PSD, -1.0)):
            with pytest.raises(InvalidInput):
                PsdMatrix.clamped(np.diag([1.0, low]), TOL_PSD)


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
class TestClamped:
    """``PsdMatrix.clamped`` at joint scales picks its branch by its bound:
    a result whose smallest computed eigenvalue is above the bound is
    admitted as it is, at 2 eigh; one within ±bound, exact zeros included,
    is projected to ``U max(w, 0) U*``, a Gram form admitted without a second
    eigh; one below -bound raises."""

    @staticmethod
    def _result(rng, scale, w):
        q = random_unitary(rng, len(w))
        return scale * ((q * np.asarray(w)) @ q.conj().T)

    @staticmethod
    def _projects(x, bound, eigh_calls):
        """x is projected: 1 eigh, the Gram form of its clipped eig, eig lazy."""
        w, u = HermitianMatrix(x).eig()
        assert -bound <= w[0] <= bound
        got = []
        assert eigh_calls(lambda: got.append(PsdMatrix.clamped(x, bound))) == (1, 0)
        want = PsdMatrix((u * np.clip(w, 0.0, None)) @ u.conj().T)
        assert type(got[0]) is PsdMatrix and _bits(got[0].entries) == _bits(want.entries)
        assert got[0]._eig is None

    def test_eigenvalues_within_the_bound_project(self, rng, scale, eigh_calls):
        for w in ([-1e-13, -1e-14, 0.0, 1.0, 2.0, 3.0], [-1e-13, 0.0, 0.0, 1.0, 2.0]):
            self._projects(self._result(rng, scale, w), 1e-9 * scale, eigh_calls)

    def test_exact_zeros_project(self, scale, eigh_calls):
        x = scale * np.diag([0.0, 0.0, 1.0, 2.0])
        assert HermitianMatrix(x).eig()[0][0] == 0.0
        self._projects(x, 1e-9 * scale, eigh_calls)

    def test_a_positive_eigenvalue_up_to_the_bound_projects(self, rng, scale, eigh_calls):
        bound = 1e-9 * scale
        for x in (self._result(rng, scale, [5e-10, 1.0, 2.0, 3.0]),
                  np.diag([bound, scale, 2.0 * scale])):  # the bound itself
            assert HermitianMatrix(x).eig()[0][0] > 0.0
            self._projects(x, bound, eigh_calls)

    def test_projection_keeps_its_eig_lazy(self, rng, scale, eigh_calls):
        out = PsdMatrix.clamped(self._result(rng, scale, [-1e-13, 0.0, 0.0, 1.0, 2.0]),
                                1e-9 * scale)
        assert eigh_calls(out.eig) == (1, 0)
        for have, fresh in zip(out.eig(), np.linalg.eigh(out.entries)):
            assert _bits(have) == _bits(fresh)

    def test_above_the_bound_is_admitted_bit_for_bit(self, rng, scale, eigh_calls):
        bound = 1e-9 * scale
        for x in (np.diag([np.nextafter(bound, np.inf), scale, 2.0 * scale]),
                  self._result(rng, scale, [2e-9, 1.0, 2.0, 3.0]),
                  self._result(rng, scale, [0.5, 1.0, 2.0, 3.0])):
            h = HermitianMatrix(x)
            assert h.eig()[0][0] > bound  # the admitting branch
            got = []
            assert eigh_calls(lambda: got.append(PsdMatrix.clamped(x, bound))) == (2, 0)
            assert _bits(got[0].entries) == _bits(h.entries)
            assert eigh_calls(got[0].eig) == (0, 0)  # filled by the admission

    def test_eigenvalue_below_the_bound_raises(self, rng, scale):
        for w in ([-1e-6, 0.0, 1.0, 2.0], [-2e-9, 0.0, 1.0, 2.0]):  # down to -2 bound
            with pytest.raises(InvalidInput, match="exceeds clamping tolerance"):
                PsdMatrix.clamped(self._result(rng, scale, w), 1e-9 * scale)


class TestEigh:
    def test_diagonal(self):
        w, u = HermitianMatrix(np.diag([3.0, 1.0])).eig()
        assert np.allclose(w, [1.0, 3.0])
        assert max_abs(np.abs(u) - np.eye(2)[:, ::-1]) < 1e-14

    def test_pauli_x(self):
        w, _ = HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]).eig()
        assert np.allclose(w, [-1.0, 1.0])

    def test_reconstruction_residual(self, rng):
        for dim in (2, 5, 9):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = HermitianMatrix(g + g.conj().T)
            w, u = h.eig()
            resid = max_abs((u * w) @ u.conj().T - h.entries)
            assert resid <= TOL_RECON * max(1.0, h.norm())

    def test_ascending_order(self, rng):
        h = HermitianMatrix(random_psd(rng, 6))
        w, _ = h.eig()
        assert np.all(np.diff(w) >= 0)

    def test_deterministic_for_identical_bits(self, rng):
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m = g + g.conj().T
        w1, u1 = HermitianMatrix(m.copy()).eig()
        w2, u2 = HermitianMatrix(m.copy()).eig()
        assert np.array_equal(w1, w2) and np.array_equal(u1, u2)


class TestEigvals:
    def test_one_eigvalsh_kept_without_vectors(self, rng, eigh_calls):
        """Without a cached eig, each call is one eigvalsh, and neither the
        values nor any vectors are kept."""
        h = HermitianMatrix(random_psd(rng, 6, rank=3) - random_psd(rng, 6, rank=2))
        assert eigh_calls(h.eigvals) == (0, 1)
        assert eigh_calls(h.eigvals) == (0, 1)  # not cached
        w = h.eigvals()
        assert np.all(np.diff(w) >= 0) and np.array_equal(w, h.eigvals())
        assert max_abs(w - np.linalg.eigvalsh(h.entries)) == 0.0
        assert eigh_calls(h.eig) == (1, 0)  # no vectors were kept
        assert max_abs(w - h.eig()[0]) <= 1e-14 * h.norm()

    def test_reads_a_cached_eig(self, rng, eigh_calls):
        h = HermitianMatrix(random_psd(rng, 5))
        w, _ = h.eig()
        assert eigh_calls(h.eigvals) == (0, 0)
        assert h.eigvals() is w


class TestAsPsd:
    """A HermitianMatrix is admitted from its entries, like any outside matrix."""

    def test_hermitian_identity_gives_the_identity(self):
        got = opmeans.geometric_mean(HermitianMatrix(np.eye(2)), np.eye(2))
        assert max_abs(got.entries - np.eye(2)) <= 1e-15
        admitted = as_psd(HermitianMatrix(np.eye(3)))
        assert type(admitted) is PsdMatrix and np.array_equal(admitted.entries, np.eye(3))

    def test_hermitian_but_not_psd_raises_invalid_input(self):
        h = HermitianMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidInput, match="not PSD"):
            as_psd(h)
        with pytest.raises(InvalidInput, match="not PSD"):
            opmeans.geometric_mean(h, np.eye(2))


class TestIsPsd:
    def test_trivials(self):
        assert is_psd(np.diag([1.0, 0.0]))
        assert not is_psd(np.diag([1.0, -1e-3]), tol=1e-9)

    def test_hand_computed_indefinite(self):
        # eigenvalues -1 and 3
        assert not is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_raw_input_meets_the_hermiticity_rule(self, s):
        # the Hermitian part of this matrix is s I: is_psd must not judge it
        skew = s * np.array([[1.0, 0.9], [-0.9, 1.0]])
        for check in (is_psd, as_psd):
            with pytest.raises(InvalidInput, match="not Hermitian"):
                check(skew)
        nearly = s * np.array([[1.0, 0.9 + 0.01 * TOL_HERM], [0.9, 1.0]])
        assert is_psd(nearly) and type(as_psd(nearly)) is PsdMatrix
        # a HermitianMatrix is judged as it is, relative to its largest entry
        assert is_psd(HermitianMatrix(skew)) == Verdict(0.0, TOL_PSD * s)

    def test_signs_are_is_psd_of_both_signs(self, rng):
        # order_cp(f, g) reads both signs of C_G - C_F from one eigendecomposition,
        # the residuals of is_psd of both signs, against a bound set by C_F and C_G
        mats = [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([-1.0, -1e-12]),
                np.array([[1.0, 2.0], [2.0, 1.0]]), random_psd(rng, 4, rank=2)]
        mats.append(-mats[-1])
        for h in mats:
            n = h.shape[0]
            shift = (1.0 + max(0.0, -float(np.linalg.eigvalsh(h)[0]))) * np.eye(n)
            f, g = cpmaps.from_choi(1, n, shift), cpmaps.from_choi(1, n, shift + h)
            d = g.choi.entries - f.choi.entries
            for tol in (1e-9, 1.0):
                le, ge = cpmaps.order_cp(f, g, tol)
                bound = tol * max(max_abs(f.choi.entries), max_abs(g.choi.entries))
                assert le == Verdict(is_psd(d, tol).residual, bound)
                assert (bool(ge), ge.bound) == (is_psd(-d, tol).residual <= bound, bound)

    def test_verdict_is_the_eigenvalue_bound(self):
        # diagonal spectra are exact, so each verdict sits on its bound
        bound = TOL_PSD * 100.0
        for low in (-5e-8, -bound, np.nextafter(-bound, -1.0), 0.0, 1e-3):
            h = np.diag([low, 1.0, 10.0, 100.0])
            v = is_psd(h)
            assert type(v) is Verdict and v == Verdict(max(0.0, -low), bound)
            assert bool(v) == (low >= -bound) == (v.residual <= v.bound)
            if v:
                PsdMatrix(h)
            else:
                with pytest.raises(InvalidInput):
                    PsdMatrix(h)
        assert not Verdict(float("nan"), 1.0) and Verdict(0.0, 0.0)


class TestPsdSqrt:
    def test_diagonal(self):
        assert max_abs(psd_sqrt(np.diag([4.0, 9.0])).entries - np.diag([2.0, 3.0])) < 1e-14

    def test_zero(self):
        assert max_abs(psd_sqrt(np.zeros((3, 3))).entries) == 0.0

    def test_projection_fixed_point(self, rng):
        # input eigenvalue noise ~1e-16 maps to ~1e-8 under the square root,
        # which is what TOL_RECON budgets for
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = np.outer(v, v.conj()) / (np.abs(v) ** 2).sum()
        assert max_abs(psd_sqrt(p).entries - p) < 1e-7

    def test_square_recovers(self, rng):
        a = random_psd(rng, 7)
        s = psd_sqrt(a).entries
        assert max_abs(s @ s - a) <= TOL_RECON * max(1.0, max_abs(a))


class TestPinv:
    def test_diagonal(self):
        assert max_abs(pinv_psd(np.diag([2.0, 0.0])).entries - np.diag([0.5, 0.0])) < 1e-14
        assert max_abs(pinv_psd(np.eye(3)).entries - np.eye(3)) < 1e-14

    @pytest.mark.parametrize("rank", [0, 1, 3, 5])
    def test_penrose_identities(self, rng, rank):
        a = random_psd(rng, 5, rank=rank)
        ap = pinv_psd(PsdMatrix(a)).entries
        assert max_abs(a @ ap @ a - a) <= TOL_RECON * max(1.0, max_abs(a))
        assert max_abs(ap @ a @ ap - ap) <= TOL_RECON * max(1.0, max_abs(ap))

    def test_product_is_support(self, rng):
        a = random_psd(rng, 6, rank=3)
        ap = pinv_psd(PsdMatrix(a)).entries
        assert max_abs(a @ ap - support_of(a)) <= TOL_RECON


class TestSupport:
    def test_diagonal(self):
        w, _ = PsdMatrix(np.diag([1.0, 0.0, 2.0])).support()
        assert w.tolist() == [1.0, 2.0]
        assert max_abs(support_of(np.diag([1.0, 0.0, 2.0])) - np.diag([1.0, 0.0, 1.0])) < 1e-14

    def test_zero(self):
        w, u = PsdMatrix(np.zeros((2, 2))).support()
        assert w.shape == (0,) and u.shape == (2, 0)

    def test_rank_one(self, rng):
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        p = support_of(np.outer(v, v.conj()))
        assert max_abs(p - np.outer(v, v.conj()) / (np.abs(v) ** 2).sum()) < 1e-13

    def test_absorbs(self, rng):
        a = random_psd(rng, 6, rank=4)
        assert max_abs(support_of(a) @ a - a) <= TOL_RECON * max(1.0, max_abs(a))


class TestProjIntersection:
    """``conftest.meet_proj``, the raw-numpy oracle of the range checks
    ``ran(A # B) = ran A ∩ ran B`` and ``ran(A : B) = ran A ∩ ran B``."""

    def test_equal_projections(self, rng):
        q = random_unitary(rng, 4)[:, :2]
        p = q @ q.conj().T
        assert max_abs(meet_proj(p, p) - p) < 1e-12

    def test_orthogonal_rank_one(self):
        assert max_abs(meet_proj(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))) < 1e-14

    def test_basis_overlap(self):
        got = meet_proj(np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 1.0, 1.0]))
        assert max_abs(got - np.diag([0.0, 1.0, 0.0])) < 1e-13

    def test_commutative_idempotent_monotone(self, rng):
        u = random_unitary(rng, 5)
        p = u[:, :3] @ u[:, :3].conj().T
        v = random_unitary(rng, 5)
        q = v[:, :3] @ v[:, :3].conj().T
        meet_pq = meet_proj(p, q)
        assert max_abs(meet_pq - meet_proj(q, p)) < 1e-10
        # idempotent against itself and monotone: ran(P^Q) inside ran(P)
        assert max_abs(meet_proj(p, p) - p) < 1e-10
        assert max_abs(p @ meet_pq - meet_pq) < 1e-10


class TestInvariants:
    def test_random_psd_is_psd_and_sqrt_squares(self, rng):
        for _ in range(10):
            dim = int(rng.integers(1, 9))
            a = random_psd(rng, dim, rank=int(rng.integers(0, dim + 1)))
            assert is_psd(a, TOL_PSD)
            s = psd_sqrt(PsdMatrix(a)).entries
            assert max_abs(s @ s - a) <= TOL_RECON * max(1.0, max_abs(a))


def _pair_reads(f, g) -> dict:
    """Every public result read from the spectral pair of (C_F, C_G), as calls
    returning arrays or floats."""
    transforms = {"": lambda r: r, "transpose ": opmeans.transpose_rep,
                  "adjoint ": opmeans.adjoint_rep, "dual ": opmeans.dual_rep}
    reps = {"power(0.3)": opmeans.power_rep(0.3),
            "atoms": opmeans.ConnectionRep(0.5, 0.2, ((1.0, 0.3), (4.0, 0.7)))}
    kinds = {k: MeanKind.parse(k) for k in ("arith", "harm", "parallel", "geo", "power:0.3", "log")}
    kinds |= {t + r: MeanKind.custom(fn(rep)) for t, fn in transforms.items()
              for r, rep in reps.items()}
    reads = {k: lambda k=k: cpmaps.mean_cp(kinds[k], f, g).choi.entries for k in kinds}
    reads |= {
        "decompose ac": lambda: lebesgue.decompose(f, g).ac.choi.entries,
        "decompose sing": lambda: lebesgue.decompose(f, g).sing.choi.entries,
        "alpha_min": lambda: lebesgue.decompose(f, g).alpha_min,
        "is_singular": lambda: lebesgue.is_singular(f, g).residual,
        "is_abs_continuous": lambda: lebesgue.is_abs_continuous(g, f).residual,
    }
    return reads


def _cold(call):
    hermlinalg._RUN.pair = None
    return call()


class TestSharedPair:
    """The last spectral pair built is shared by the next call on the same two
    operand objects; sharing changes no bit of any result."""

    # (rank of F, rank of G, scale of F, scale of G) at Choi 9
    CASES = [(9, 1, 1e-12, 1e-12), (4, 6, 1.0, 1.0), (9, 9, 1e12, 1e12),
             (9, 3, 1e-12, 1e12), (2, 9, 1e12, 1e-12), (5, 5, 1e-6, 1e6),
             (1, 1, 1e3, 1e-9), (7, 8, 1e-12, 1.0)]

    @pytest.mark.parametrize("rank_f, rank_g, sf, sg", CASES)
    def test_warm_results_equal_cold_ones_bit_for_bit(self, rng, rank_f, rank_g, sf, sg):
        f = sf * random_cp(rng, 3, 3, rank=rank_f)
        g = sg * random_cp(rng, 3, 3, rank=rank_g)
        reads = _pair_reads(f, g)
        cold = {name: _cold(call) for name, call in reads.items()}
        _cold(lambda: cpmaps.mean_cp(opmeans.HARM, f, g))
        shared = hermlinalg._RUN.pair[2]
        for name, call in reads.items():
            assert np.array_equal(call(), cold[name]), name
            # every read takes the pair from the run (arith reads none)
            assert hermlinalg._RUN.pair[2] is shared, name

    def test_shared_arrays_are_read_only(self, rng):
        a, b = PsdMatrix(random_psd(rng, 4)), PsdMatrix(random_psd(rng, 4, rank=2))
        p = _shared_pair(a, b)
        assert _shared_pair(a, b) is p
        for name in ("t", "z"):
            with pytest.raises(ValueError):
                getattr(p, name)[...] = 0.0

    def test_swapped_and_new_operands_are_not_mistaken_for_shared_ones(self, rng):
        a, b = PsdMatrix(random_psd(rng, 5)), PsdMatrix(random_psd(rng, 5, rank=3))
        opmeans.geometric_mean(a, b)
        want = _cold(lambda: opmeans.mean(MeanKind.power(0.3), b, a)).entries
        opmeans.mean(MeanKind.power(0.3), a, b)
        assert np.array_equal(opmeans.mean(MeanKind.power(0.3), b, a).entries, want)
        # equal entries in a new object: a new key, the same pair
        want = _cold(lambda: opmeans.mean(MeanKind.power(0.3), a, b)).entries
        same = PsdMatrix(a.entries.copy())
        assert np.array_equal(opmeans.mean(MeanKind.power(0.3), same, b).entries, want)
        # the run holds its operands, so a new matrix cannot take a freed id
        key = id(same)
        del same
        other = PsdMatrix(random_psd(rng, 5))
        assert id(other) != key
        want = _cold(lambda: opmeans.mean(MeanKind.power(0.3), other, b)).entries
        opmeans.mean(MeanKind.power(0.3), a, b)
        assert np.array_equal(opmeans.mean(MeanKind.power(0.3), other, b).entries, want)

    def test_one_slot(self, rng, eigh_calls):
        f, g, h, k = (random_cp(rng, 2, 2, rank=r) for r in (4, 2, 3, 4))

        def split(x, y):
            return lambda: lebesgue.decompose(x, y)

        assert eigh_calls(split(f, g)) == (2, 0)
        assert eigh_calls(split(f, g), warm=split(f, g)) == (0, 0)
        assert eigh_calls(split(h, k), warm=split(f, g)) == (2, 0)
        assert eigh_calls(lambda: [split(f, g)(), split(h, k)(), split(f, g)()]) == (6, 0)

    def test_a_worker_thread_shares_the_callers_run(self, rng, eigh_calls):
        a, b = PsdMatrix(random_psd(rng, 4)), PsdMatrix(random_psd(rng, 4, rank=2))
        with ThreadPoolExecutor(1) as pool:
            def warm():
                pool.submit(opmeans.mean, opmeans.HARM, a, b).result(timeout=60)

            # the geometric mean pays only its projecting clamp: the worker's
            # pair is kept
            assert eigh_calls(lambda: opmeans.geometric_mean(a, b), warm) == (1, 0)
        kept = hermlinalg._RUN.pair
        assert kept[0] is a and kept[1] is b

    def test_threads_match_serial_results(self, rng):
        pairs = [(PsdMatrix(random_psd(rng, 16)), PsdMatrix(random_psd(rng, 16, rank=r)))
                 for r in range(1, 17, 2)]
        kinds = [MeanKind.parse(k) for k in ("harm", "geo", "power:0.3", "log")]

        def means(pair):
            return [opmeans.mean(kind, *pair).entries for kind in kinds]

        serial = [_cold(lambda p=p: means(p)) for p in pairs]
        # more threads than cores, switching often: each evicts the others' pair
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(means, p) for _ in range(3) for p in pairs]
                got = [fut.result(timeout=60) for fut in futures]
        finally:
            sys.setswitchinterval(interval)
        for out, want in zip(got, 3 * serial):
            assert all(np.array_equal(x, y) for x, y in zip(out, want))
