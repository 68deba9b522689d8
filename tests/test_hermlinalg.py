import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from cpmean import cpmaps, hermlinalg, lebesgue, opmeans
from cpmean.errors import DomainError, InvalidInput, ShapeError
from cpmean.hermlinalg import (
    TOL_HERM,
    TOL_PSD,
    HermitianMatrix,
    PsdMatrix,
    Verdict,
    _shared_pair,
    as_psd,
    is_psd,
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
        # Hermitian within TOL_HERM, so admitted, and stored exactly Hermitian
        eps = 0.01 * TOL_HERM
        h = HermitianMatrix([[1.0, 1.0 + eps * 1j], [1.0, 2.0]])
        m = h.entries
        assert max_abs(m - m.conj().T) == 0.0
        assert m[0, 1] == np.conj(m[1, 0]) == 1.0 + 0.5 * eps * 1j

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
            w, _ = PsdMatrix.clamped(_made(np.diag([1.0, low])), TOL_PSD).eig()
            assert w[0] == 0.0

    def test_clamped_rejects_large_negatives(self):
        for low in (-1e-3, np.nextafter(-TOL_PSD, -1.0)):
            with pytest.raises(InvalidInput):
                PsdMatrix.clamped(_made(np.diag([1.0, low])), TOL_PSD)

    def test_repr_names_the_type_and_dimension(self):
        assert repr(HermitianMatrix(np.eye(3))) == "HermitianMatrix(dim=3)"
        assert repr(PsdMatrix(np.eye(2))) == "PsdMatrix(dim=2)"


def _made(x) -> HermitianMatrix:
    """x as a product the library made: the one input ``PsdMatrix.clamped`` takes."""
    return HermitianMatrix._trusted(x)


def _bits(x):
    return np.ascontiguousarray(x).tobytes()


def _symmetrized(x):
    """x itself if it is exactly Hermitian, else ``x + x*`` with each real and
    imaginary part halved: the reference of the one symmetrization."""
    x = np.asarray(x, dtype=np.complex128)
    if (x == x.conj().T).all():
        return x
    return ((x + x.conj().T).view(np.float64) * 0.5).view(np.complex128)


class TestTrusted:
    """``_trusted`` skips the outside-number rule and the Hermiticity rule and
    nothing else: its bits are those of the one symmetrization on every array the
    library can make, and those of the public constructor on each it admits."""

    @staticmethod
    def _same_bits(x):
        x = np.asarray(x)
        herm = max_abs(x - x.conj().T) <= TOL_HERM * max_abs(_symmetrized(x))
        for cls in (HermitianMatrix, PsdMatrix):
            got = cls._trusted(x)
            assert type(got) is cls and got._eig is None
            assert _bits(got.entries) == _bits(_symmetrized(x))
            assert got.entries.dtype == np.complex128 and not got.entries.flags.writeable
        if herm:
            assert _bits(got.entries) == _bits(HermitianMatrix(x).entries)
        else:
            with pytest.raises(InvalidInput, match="not Hermitian"):
                HermitianMatrix(x)
        return got

    @pytest.mark.parametrize("dim", [4, 16, 64])
    def test_random_complex_products(self, rng, dim):
        a, b = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)) for _ in "ab")
        self._same_bits(a @ b)
        self._same_bits(a @ a.conj().T)  # a Gram product, Hermitian up to rounding

    def test_an_exactly_hermitian_array_is_kept_bit_for_bit(self, rng):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        x = m + m.conj().T
        x.imag[np.diag_indices(5)] = -0.0
        got = self._same_bits(x)
        assert _bits(got.entries) == _bits(x)
        assert np.signbit(got.entries.diagonal().imag).all()

    def test_a_hermitian_first_row_falls_through_to_the_full_test(self, rng):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = m + m.conj().T
        x[1, 2] += 1.0  # row 0 still equals conj(column 0)
        got = self._same_bits(x)
        assert max_abs(got.entries - got.entries.conj().T) == 0.0
        assert got.entries[1, 2] == x[1, 2] - 0.5

    def test_a_real_array(self, rng):
        self._same_bits(rng.normal(size=(6, 6)))

    def test_an_overflowed_gram_product_raises(self):
        # a product the library made: an overflow, not outside data
        with np.errstate(over="ignore"), pytest.raises(DomainError, match="beyond double range"):
            PsdMatrix._gram(np.full((2, 1), 1e200))

    @pytest.mark.parametrize("build, x", [
        (lambda x: cpmaps.from_choi(1, 2, x).choi,
         [[1.7e308, 1e300], [1e300 * (1 + 1e-13), 1.7e308]]),
        (HermitianMatrix._trusted, [[1.7e308, 1e300], [2e300, 1.7e308]]),
    ], ids=["from_choi", "_trusted"])
    def test_a_sum_past_the_double_range_is_taken_of_halves(self, build, x):
        # m + m* overflows past DBL_MAX/2, though (m + m*)/2 is a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = build(x).entries
        assert np.isfinite(m).all() and (m.diagonal() == 1.7e308).all()
        assert m[0, 1] == m[1, 0] == 0.5 * x[0][1] + 0.5 * x[1][0]

    @pytest.mark.parametrize("build", [
        lambda x: cpmaps.from_choi(1, 2, x), is_psd, lambda x: PsdMatrix._trusted(np.array(x)),
        lambda x: HermitianMatrix(x)], ids=["from_choi", "is_psd", "_trusted", "HermitianMatrix"])
    def test_an_entry_modulus_past_the_double_range_raises_domain_error(self, build):
        # both parts are doubles, |z| = 2.1e308 is not: the scale of every bound
        # would be inf, and the eig of this indefinite matrix [nan, nan]
        z = 1.5e308 * (1 + 1j)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="double range"):
                build([[0.0, z], [np.conj(z), 0.0]])
            # a modulus within the range, with parts as large, is admitted
            assert build([[1.7e308, 0.0], [0.0, 1.5e308]])

    def test_a_sum_within_the_double_range_keeps_its_bits(self):
        # (2^-1074 + 2^-1073)/2 rounds to 2^-1073; halves first would give 2^-1074
        m = HermitianMatrix([[8e307, 5e-324], [1e-323, 8e307]]).entries
        assert m[0, 1] == m[1, 0] == 1e-323 and (m.diagonal() == 8e307).all()

    @pytest.mark.parametrize("x", [np.zeros((3, 3)), [[5e-324]], [[1.0, 2.0 + 1j], [0.0, 1.0]]],
                             ids=["zero", "subnormal 1x1", "symmetrized"])
    def test_the_kept_scale_is_the_largest_entry_modulus(self, x):
        h = HermitianMatrix._trusted(np.asarray(x, dtype=np.complex128))
        assert h._amax is None
        assert hermlinalg._max_abs(h) == hermlinalg._max_abs(h.entries) == h._amax
        assert hermlinalg._bound(1e-9, h) == hermlinalg._bound(1e-9, h.entries)
        if max_abs(h.entries - np.asarray(x)) == 0.0:  # admitted, its scale kept at once
            assert HermitianMatrix(x)._amax == h._amax


class TestExact:
    """``_exact`` is ``_trusted`` without the Hermitian test: on an exactly
    Hermitian array, which that test keeps as it is, the two give the same bits,
    and the finiteness decision is the same."""

    @pytest.mark.parametrize("build", [
        lambda a, b: a + b, lambda a, b: a - b, lambda a, b: 2.0 ** 40 * a,
        lambda a, b: 0.5 * a + 0.5 * b, lambda a, b: a.T,
        lambda a, b: np.block([[a, a @ b], [(a @ b).conj().T, b]]),
        lambda a, b: np.eye(3) / 3.0,
    ], ids=["sum", "difference", "scaling", "halves", "transpose", "block", "eye/d"])
    def test_exact_arithmetic_keeps_the_bits_of_trusted(self, rng, build):
        a, b = (HermitianMatrix._trusted(g @ g.conj().T).entries
                for g in (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in "ab"))
        x = build(a, b)
        for cls in (HermitianMatrix, PsdMatrix):
            got = cls._exact(x)
            assert type(got) is cls and got._eig is None and got._amax is None
            assert got.entries.dtype == np.complex128 and not got.entries.flags.writeable
            assert _bits(got.entries) == _bits(cls._trusted(x).entries) == _bits(_symmetrized(x))

    def test_signed_zeros_are_kept(self):
        x = np.array([[complex(1.0, -0.0), complex(-0.0, 0.0)],
                      [complex(0.0, -0.0), complex(2.0, -0.0)]])
        got = HermitianMatrix._exact(x).entries
        assert _bits(got) == _bits(HermitianMatrix._trusted(x).entries) == _bits(x)
        assert np.signbit(got.diagonal().imag).all() and np.signbit(got[0, 1].real)

    def test_no_hermitian_test_runs(self):
        # the caller's construction is the test: a non-Hermitian array is kept
        x = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
        assert _bits(HermitianMatrix._exact(x).entries) == _bits(x)

    @pytest.mark.parametrize("x, match", [
        ([[np.inf, 0.0], [0.0, 1.0]], "computed entry is beyond double range"),
        ([[0.0, 1.5e308 * (1 + 1j)], [1.5e308 * (1 - 1j), 0.0]], "modulus is beyond double range"),
    ], ids=["overflowed entry", "entry modulus"])
    def test_the_finiteness_decision_stays(self, x, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for construct in (HermitianMatrix._exact, HermitianMatrix._trusted):
                with pytest.raises(DomainError, match=match):
                    construct(np.array(x, dtype=complex))


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
        assert eigh_calls(lambda: got.append(PsdMatrix.clamped(_made(x), bound))) == (1, 0)
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
        out = PsdMatrix.clamped(_made(self._result(rng, scale, [-1e-13, 0.0, 0.0, 1.0, 2.0])),
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
            assert eigh_calls(lambda: got.append(PsdMatrix.clamped(_made(x), bound))) == (2, 0)
            assert _bits(got[0].entries) == _bits(h.entries)
            assert eigh_calls(got[0].eig) == (0, 0)  # filled by the admission

    def test_eigenvalue_below_the_bound_raises(self, rng, scale):
        for w in ([-1e-6, 0.0, 1.0, 2.0], [-2e-9, 0.0, 1.0, 2.0]):  # down to -2 bound
            with pytest.raises(InvalidInput, match="exceeds clamping tolerance"):
                PsdMatrix.clamped(_made(self._result(rng, scale, w)), 1e-9 * scale)


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
        assert np.array_equal(h.eigvals(), w)


class TestAsPsd:
    """A HermitianMatrix is admitted as it is: its entries and any cached eig are
    shared, with no copy and no new eigendecomposition."""

    @pytest.mark.parametrize("cached", [True, False], ids=["eig cached", "eig lazy"])
    def test_a_hermitian_matrix_keeps_its_entries_and_eig(self, rng, eigh_calls, cached):
        h = HermitianMatrix._trusted(random_psd(rng, 6))
        if cached:
            h.eig()
        got = []
        assert eigh_calls(lambda: got.append(as_psd(h))) == ((0, 0) if cached else (1, 0))
        p = got[0]
        assert type(p) is PsdMatrix and p.entries is h.entries
        assert (p._eig is h._eig) if cached else (h._eig is None)
        assert as_psd(p) is p
        q = HermitianMatrix(h)  # adopted as it is, by the constructor as_psd calls
        assert q.entries is h.entries and q._eig is h._eig

    def test_an_adopted_matrix_is_admitted_as_its_array_is(self, rng):
        x = random_psd(rng, 5)
        want = as_psd(x)
        got = as_psd(HermitianMatrix(x))
        assert np.array_equal(got.entries, want.entries)
        assert all(np.array_equal(a, b) for a, b in zip(got.eig(), want.eig()))

    def test_hermitian_identity_gives_the_identity(self):
        got = opmeans.geometric_mean(HermitianMatrix(np.eye(2)), np.eye(2))
        assert max_abs(got.entries - np.eye(2)) <= 1e-15
        admitted = as_psd(HermitianMatrix(np.eye(3)))
        assert type(admitted) is PsdMatrix and np.array_equal(admitted.entries, np.eye(3))

    def test_any_memory_layout_gives_the_row_major_bits(self, rng):
        # a transpose or a Fortran-ordered copy is the same matrix: admitted, stored
        # row-major and with the bits of the C-ordered input on every reader
        x, g = random_psd(rng, 4), PsdMatrix(random_psd(rng, 4))
        geo = MeanKind.parse("geo")
        for y in (np.asfortranarray(x), x.T, x[::-1, ::-1], np.asfortranarray(x.real)):
            c = np.ascontiguousarray(y)
            got, want = as_psd(y), as_psd(c)
            assert got.entries.flags.c_contiguous and np.array_equal(got.entries, want.entries)
            assert np.array_equal(HermitianMatrix(y).entries, HermitianMatrix(c).entries)
            assert np.array_equal(cpmaps.from_choi(2, 2, y).choi.entries,
                                  cpmaps.from_choi(2, 2, c).choi.entries)
            assert is_psd(y) == is_psd(c)
            assert np.array_equal(opmeans.mean(geo, y, g).entries, opmeans.mean(geo, c, g).entries)

    def test_hermitian_but_not_psd_raises_invalid_input(self):
        h = HermitianMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidInput, match="not PSD"):
            as_psd(h)
        with pytest.raises(InvalidInput, match="not PSD"):
            opmeans.geometric_mean(h, np.eye(2))


class TestOneDoor:
    """The public constructors admit outside data by the one Hermiticity rule, as
    ``as_psd`` and ``is_psd`` do: none takes the Hermitian part of an array that
    is not Hermitian within ``TOL_HERM``, and no refusal escapes as a warning."""

    def test_a_non_hermitian_array_is_refused_by_each_constructor(self):
        x = [[1, 2], [0, 1]]  # its Hermitian part [[1, 1], [1, 1]] is PSD
        for build in (HermitianMatrix, PsdMatrix, as_psd, is_psd,
                      lambda x: cpmaps.CpMap(1, 2, PsdMatrix(x))):
            with pytest.raises(InvalidInput, match="not Hermitian"):
                build(x)

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_the_tolerance_is_that_of_as_psd_at_every_scale(self, rng, s):
        x = s * random_psd(rng, 4)
        defect = np.zeros((4, 4), dtype=complex)
        defect[0, 1] = max_abs(x)
        for eps, admitted in ((0.01 * TOL_HERM, True), (100.0 * TOL_HERM, False)):
            y = x + eps * defect
            builds = (HermitianMatrix, PsdMatrix, lambda y: cpmaps.CpMap(2, 2, PsdMatrix(y)).choi,
                      lambda y: cpmaps.from_choi(2, 2, y).choi)
            if admitted:
                want = _bits(as_psd(y).entries)
                assert all(_bits(build(y).entries) == want for build in builds)
            else:
                for build in builds:
                    with pytest.raises((InvalidInput, cpmaps.NotCompletelyPositive),
                                       match="not Hermitian"):
                        build(y)

    @pytest.mark.parametrize("x", [
        [[1.0, 1.7e308], [-1.7e308, 1.0]],
        [[0.0, 1.7e308 * (1 + 1j)], [1.7e308 * (1 + 1j), 0.0]],
    ], ids=["defect past DBL_MAX", "entry modulus past DBL_MAX"])
    def test_a_defect_past_the_double_range_is_refused_without_a_warning(self, x):
        # the second one's Hermitian part [[0, 1.7e308], [1.7e308, 0]] is a double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for build in (HermitianMatrix, PsdMatrix, as_psd, is_psd):
                with pytest.raises(InvalidInput, match=r"not Hermitian \(defect inf\)"):
                    build(x)


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
        for check in (is_psd, as_psd, HermitianMatrix, PsdMatrix):
            with pytest.raises(InvalidInput, match="not Hermitian"):
                check(skew)
        nearly = s * np.array([[1.0, 0.9 + 0.01 * TOL_HERM], [0.9, 1.0]])
        assert is_psd(nearly) and type(as_psd(nearly)) is PsdMatrix
        # a HermitianMatrix is judged as it is, relative to its largest entry:
        # the library-made Hermitian part of skew is s I
        assert is_psd(HermitianMatrix._trusted(skew)) == Verdict(0.0, TOL_PSD * s)

    def test_signs_are_is_psd_of_both_signs(self, rng):
        # order_cp(f, g) reads both signs of C_G - C_F from its eigenvalues alone:
        # the residuals of is_psd of both signs, up to the round-off of is_psd's
        # eigendecomposition, against a bound set by C_F and C_G
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
                w = np.linalg.eigvalsh(d)
                assert le == Verdict(max(0.0, -w[0]), bound)
                assert ge == Verdict(max(0.0, w[-1]), bound)
                assert abs(le.residual - is_psd(d, tol).residual) <= 1e-14 * max_abs(d)
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

    def test_bound_keeps_a_rounding_unit_per_dimension(self):
        # tol * 5e-324 rounds to 0: the bound is d units of 2^-1074 there, and
        # tol times the largest entry wherever that is larger
        tiny = 5e-324 * np.eye(3)
        assert is_psd(tiny, 1e-9) == Verdict(0.0, 3 * 5e-324)
        assert hermlinalg._bound(1e-9, np.zeros((2, 2)), tiny) == 3 * 5e-324
        assert hermlinalg._bound(1e-9, 1e-300 * np.eye(2)) == 1e-9 * 1e-300


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

    def test_an_overflowed_largest_eigenvalue_is_kept_at_unit_scale(self):
        # 5 J + I: finite entries up to 6 * 2^1020, largest eigenvalue 21 * 2^1020.
        # The eig is kept at unit scale, so the rank cutoff, the index and the
        # Kraus operators are doubles; only a returned eigenvalue is not, and so
        # parallel_sum, which reads the support of the sum, raises too
        c = PsdMatrix(2.0 ** 1020 * (5.0 * np.ones((4, 4)) + np.eye(4)))
        w, u, e = c._spectrum()
        assert e == 1023 and np.allclose(w, [1 / 8] * 3 + [21 / 8])
        for read in (c.eig, c.support, c.eigvals, c.norm,
                     lambda: opmeans.parallel_sum(0.5 * c.entries, 0.5 * c.entries)):
            with pytest.raises(DomainError, match="beyond double range"):
                read()
        f = cpmaps.CpMap(2, 2, c)
        assert cpmaps.index_cp(f) == pytest.approx(2.0 ** -1020 * 22 / 21, rel=1e-14)
        ks = cpmaps.kraus_decompose(f)
        back = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in ks)
        assert max_abs(back - c.entries) <= 1e-14 * max_abs(c.entries)

    def test_the_square_root_of_an_overflowed_largest_eigenvalue_is_a_double(self):
        # entries 1.7e308, largest eigenvalue 6.8e308: the root, sqrt(1.7e308)/2
        # in every entry, is formed at unit scale and written with no warning;
        # the root of the three zero eigenvalues' rounding is sqrt(n eps) of it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = psd_sqrt(PsdMatrix(1.7e308 * np.ones((4, 4)))).entries
        want = np.sqrt(1.7e308) / 2.0
        assert max_abs(got - want * np.ones((4, 4))) <= 1e-7 * want

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_the_top_binades_are_read_at_scale(self, rng, n):
        """Largest entry in each binade from 2^1019 to 2^1023, every eigenvalue a double:
        eig, support, the cached eigvals and norm are the unit-scale ones times 2^k, bit
        for bit, and parallel_sum within the rounding of its subnormal ``U / w``.  Where
        the bound ``|w| < n`` on the unit-scale eigenvalues passes DBL_MAX times 2^-k,
        that bound alone is no overflow."""
        a, b = (random_psd(rng, n, rank=r, lo=0.5, hi=0.625) for r in (n - 1, n))
        a, b = (_times_two_to(x, -math.frexp(max_abs(a + b))[1]) for x in (a, b))
        unit = {name: PsdMatrix(_times_two_to(x, -math.frexp(max_abs(x))[1]))
                for name, x in (("a", a), ("a + b", a + b))}  # largest entry in [1/2, 1)
        want = opmeans.parallel_sum(a, b).entries
        for k in range(1020, 1025):
            for name, x in unit.items():
                big = PsdMatrix(_times_two_to(x.entries, k))
                assert math.frexp(max_abs(big.entries))[1] == k
                for read in ("eig", "support"):
                    (w, u), (w1, u1) = getattr(big, read)(), getattr(x, read)()
                    assert _bits(w) == _bits(np.ldexp(w1, k)) and _bits(u) == _bits(u1), (k, name)
                assert _bits(big.eigvals()) == _bits(np.ldexp(x.eigvals(), k)), (k, name)
                assert big.norm() == math.ldexp(x.norm(), k), (k, name)
            got = opmeans.parallel_sum(*(_times_two_to(x, k) for x in (a, b))).entries
            assert max_abs(_times_two_to(got, -k) - want) <= 1e-14 * max_abs(want), k


def _times_two_to(x: np.ndarray, k: int) -> np.ndarray:
    """The complex array x times 2^k, exactly where no entry underflows."""
    return np.ldexp(x.view(np.float64), k).view(np.complex128)


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

        # each pair has one invertible and one rank-deficient operand, both
        # admitted: the factored pair's one SVD, from (2, 0), (2, 0) and (6, 0)
        assert eigh_calls(split(f, g)) == (0, 0, 1)
        assert eigh_calls(split(f, g), warm=split(f, g)) == (0, 0)
        assert eigh_calls(split(h, k), warm=split(f, g)) == (0, 0, 1)
        assert eigh_calls(lambda: [split(f, g)(), split(h, k)(), split(f, g)()]) == (0, 0, 3)

    def test_a_worker_thread_shares_the_callers_run(self, rng, eigh_calls):
        a, b = PsdMatrix(random_psd(rng, 4)), PsdMatrix(random_psd(rng, 4, rank=2))
        with ThreadPoolExecutor(1) as pool:
            def warm():
                pool.submit(opmeans.mean, opmeans.HARM, a, b).result(timeout=60)

            # the worker's pair is kept, and the rank-deficient geometric mean
            # is its Gram form: no eigh, down from the projecting clamp's one
            assert eigh_calls(lambda: opmeans.geometric_mean(a, b), warm) == (0, 0)
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


def _exact_congruence(rng, n, cond):
    """(S, root): S times 64 a complex integer matrix, cond(S S*) about cond,
    and root in {0, 1/2, 1, 3/2, 2} with r in 1..n-1 nonzeros.  Each real
    product in ``A = S S*`` and ``B = T T*``, ``T = S diag(root)``, is a
    multiple of 2^-14 below 2^32, and an entry sums 2n = 32 of them: no
    rounding, so ``S f(root²) S*`` is the exact mean of the stored A and B."""
    s = random_unitary(rng, n) * np.sqrt(np.geomspace(1.0, cond, n)) @ random_unitary(rng, n)
    r = int(rng.integers(1, n))
    root = rng.permutation(np.r_[rng.integers(1, 5, r) / 2.0, np.zeros(n - r)])
    return np.round(64.0 * s) / 64.0, root


def _log_kernel(d):
    return np.array([x if x in (0.0, 1.0) else (x - 1) / np.log(x) for x in d])


class TestFactoredPair:
    """An invertible operand and a rank-deficient one, both admitted with their
    eig cached, give the pair factored from those eigs with one SVD; the eigh
    route (``_trusted`` operands, whose eig is lazy) is the reference."""

    # 1 σ d on long doubles, the kernel of A σ B for A = S S*, B = S D S*
    KERNELS = {"geo": np.sqrt, "harm": lambda d: 2.0 * d / (1.0 + d), "log": _log_kernel}

    @pytest.mark.parametrize("cond", [1.0, 1e3, 1e6, 1e9])
    def test_no_less_accurate_than_the_eigh_route(self, cond):
        # on exact congruence pairs the factored route's largest error is at
        # most the eigh route's; at cond 1 both are at round-off, a few eps,
        # and which is smaller is chance, so there 4 n eps bounds it
        n, rng = 16, np.random.default_rng(36)
        worst = {name: [0.0, 0.0] for name in self.KERNELS}
        for _ in range(30):
            s, root = _exact_congruence(rng, n, cond)
            t = s * root
            a, b = s @ s.conj().T, t @ t.conj().T
            sl = s.astype(np.clongdouble)
            assert np.array_equal(a, sl @ sl.conj().T)  # no rounding in the inputs
            assert np.array_equal(b, (sl * root) @ (sl * root).conj().T)
            d = (root * root).astype(np.longdouble)
            for name, kernel in self.KERNELS.items():
                exact = ((sl * kernel(d)) @ sl.conj().T).astype(np.complex128)
                for i, admit in enumerate((PsdMatrix, PsdMatrix._trusted)):
                    got = opmeans.mean(MeanKind(name), admit(a), admit(b)).entries
                    err = max_abs(got - exact) / max_abs(exact)
                    worst[name][i] = max(worst[name][i], err)
        for name, (factored, eigh) in worst.items():
            assert factored <= max(eigh, 4 * n * np.finfo(float).eps), (name, factored, eigh)

    def test_both_orientations_agree_with_the_kernel_transposed(self, rng, eigh_calls):
        # (thin A, invertible B) is (invertible B, thin A) with u σ v read as
        # v σ u; against an invertible F the singular part is exactly 0
        mixed = opmeans.ConnectionRep(0.2, 0.1, ((0.3, 1.5), (7.0, 0.25)))
        kinds = [(MeanKind.parse(k), MeanKind.parse(k)) for k in ("geo", "harm", "log")]
        kinds += [(MeanKind.power(0.3), MeanKind.power(0.7))]
        kinds += [(MeanKind.custom(fn(mixed)), MeanKind.custom(opmeans.transpose_rep(fn(mixed))))
                  for fn in (lambda r: r, opmeans.adjoint_rep, opmeans.dual_rep)]
        for i in range(24):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            c, s = 10.0 ** rng.uniform(-12.0, 12.0, size=2)
            f = cpmaps.from_choi(m, n, c * random_psd(rng, m * n))
            g = cpmaps.from_choi(m, n, s * random_psd(rng, m * n, rank=i % (m * n)))
            assert eigh_calls(lambda: lebesgue.decompose(f, g)) == (0, 0, 1)
            assert not lebesgue.decompose(f, g).sing.choi.entries.any(), i
            for kind, swapped in kinds:
                want = cpmaps.mean_cp(kind, f, g).choi.entries
                got = cpmaps.mean_cp(swapped, g, f).choi.entries
                assert max_abs(got - want) <= 1e-12 * max_abs(want), (i, kind)

    @pytest.mark.parametrize("n", [1, 4])
    def test_a_zero_operand(self, rng, eigh_calls, n):
        one, zero = PsdMatrix(random_psd(rng, n)), PsdMatrix(np.zeros((n, n)))
        kinds = [MeanKind.parse(k) for k in ("geo", "harm", "parallel", "log", "power:0.3")]
        for a, b, t in ((one, zero, 1.0), (zero, one, 0.0)):
            assert eigh_calls(lambda: _shared_pair(a, b)) == (0, 0, 1)
            # the zero operand's support is empty: Z has no column, and the
            # pair's one part, the complement R = Y Y* with t on it, is all of Ĉ
            p = _shared_pair(a, b)
            assert p.z.shape == (n, 0) and (*p.t, *p.tc) == (t, 1.0 - t)
            # gram forms R from the pair's (X, P) as Y Y*, Y = X - (X P) P*
            (x, q), r = p._xp, p.gram(np.ones(1)).entries
            y = x - (x @ q) @ q.conj().T
            assert max_abs(r - y @ y.conj().T) <= 1e-14 * max_abs(r)
            assert abs(np.sum(np.abs(y) ** 2) - np.trace(r).real) <= 1e-14 * np.trace(r).real
            assert max_abs(r - one.entries / 2.0 ** one._exp()) <= 1e-14
            for kind in kinds:
                assert not opmeans.mean(kind, a, b).entries.any(), (t, kind)
            # G = 0 splits into two exact zeros, and G against F = 0 is all singular
            split = lebesgue.decompose(*(cpmaps.from_choi(1, n, x) for x in (a, b)))
            assert not split.ac.choi.entries.any() and split.recon
            assert t == 0.0 or not split.sing.choi.entries.any()

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_within_1e_12_of_the_eigh_route_on_choi_64_pairs(self, rng, scale):
        # both orientations, (invertible A, thin B) and (thin A, invertible B),
        # and custom reps that weigh the complement R, where its d = 1 σ 0 or 0
        # σ r is not 0: a > 0 (B thin), b > 0 (A thin), the adjoint of an atom
        # sum (both); the split and its two predicates, with F thin and with G
        kinds = [MeanKind.parse(k) for k in ("harm", "geo", "power:0.3", "log")]
        atoms = ((0.3, 1.5), (7.0, 0.25))
        kinds += [MeanKind.custom(rep) for rep in (
            opmeans.ConnectionRep(0.2, 0.0, atoms), opmeans.ConnectionRep(0.0, 0.1, atoms),
            opmeans.adjoint_rep(opmeans.ConnectionRep(0.0, 0.0, atoms)))]
        for rank in (1, 16, 48, 63):
            full, thin = scale * random_psd(rng, 64), scale * random_psd(rng, 64, rank=rank)
            for f, g in ((full, thin), (thin, full)):
                for kind in kinds:
                    want = opmeans.mean(kind, PsdMatrix._trusted(f), PsdMatrix._trusted(g)).entries
                    got = opmeans.mean(kind, PsdMatrix(f), PsdMatrix(g)).entries
                    assert max_abs(got - want) <= 1e-12 * max_abs(want), (rank, kind)
                ref, fac = ([cpmaps.CpMap(8, 8, admit(x)) for x in (f, g)]
                            for admit in (PsdMatrix._trusted, PsdMatrix))
                want, got = lebesgue.decompose(*ref), lebesgue.decompose(*fac)
                for part in ("ac", "sing"):
                    x, y = (getattr(s, part).choi.entries for s in (got, want))
                    assert max_abs(x - y) <= 1e-12 * max_abs(g), (rank, part)
                assert abs(got.alpha_min - want.alpha_min) <= 1e-12 * want.alpha_min, rank
                for check in (lebesgue.is_singular, lambda x, y: lebesgue.is_abs_continuous(y, x)):
                    assert abs(check(*fac).residual - check(*ref).residual) <= 1e-12, rank

    @pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
    def test_joint_scaling_by_two_to_the_k_is_bit_exact(self, rng, eigh_calls, k):
        # each eig is that of the operand folded to unit scale, the same at
        # every k, and every result is formed at unit scale and scaled once
        f, g = (x / max_abs(x) for x in (random_psd(rng, 9), random_psd(rng, 9, rank=4)))
        kinds = [MeanKind.parse(k) for k in ("harm", "geo", "power:0.3", "log")]

        def reads(k, out):
            a, b = PsdMatrix(2.0 ** k * f), PsdMatrix(2.0 ** k * g)
            split = lebesgue.decompose(*(cpmaps.from_choi(3, 3, x) for x in (a, b)))
            out += [opmeans.mean(kind, a, b).entries for kind in kinds]
            out += [split.ac.choi.entries, split.sing.choi.entries]

        want, got = [], []
        reads(0, want)
        # the two admissions, then the one factored pair that every read shares
        assert eigh_calls(lambda: reads(k, got)) == (2, 0, 1)
        assert all(np.array_equal(x, 2.0 ** k * y) for x, y in zip(got, want, strict=True))

    def test_a_singular_value_within_the_svd_rounding_is_zero(self, monkeypatch):
        # below n = 671 RANK_RTOL keeps every sigma_min / sigma_max above 1e-10
        # / n > n eps; a support of its own width lets one reach the snap
        monkeypatch.setattr(hermlinalg, "RANK_RTOL", 0.0)
        a, b = PsdMatrix(np.diag([1e-33, 1.0, 0.0, 0.0])), PsdMatrix(np.eye(4))
        p = _shared_pair(a, b)  # the two zeros of A's kernel are R, the last part, t = 0
        assert sorted(p.t[:-1]) == [0.0, 0.5] and sorted(p.tc[:-1]) == [0.5, 1.0]
        assert (p.t[-1], p.tc[-1]) == (0.0, 1.0)

    @pytest.mark.parametrize("k", [-484, 1020])
    def test_beyond_the_unscaled_range_the_factored_route_runs(self, rng, eigh_calls, k):
        # outside [2^-299, 2^484] LAPACK would rescale, and at 2^1020 the largest
        # eigenvalue of G, rank 3, is 21 * 2^1020: the cached eigs are at unit
        # scale, so the pair is factored all the same, and agrees with the eigh route
        g0 = 5.0 * np.ones((4, 4)) + np.diag([1.0, 1.0, 0.0, 0.0])
        f = cpmaps.from_choi(2, 2, 2.0 ** k * random_psd(rng, 4))
        g = cpmaps.from_choi(2, 2, 2.0 ** k * g0)
        assert eigh_calls(lambda: cpmaps.mean_cp(MeanKind("geo"), f, g)) == (0, 0, 1)
        want = opmeans.mean(MeanKind("geo"), *(PsdMatrix._trusted(x.choi.entries) for x in (f, g)))
        got = cpmaps.mean_cp(MeanKind("geo"), f, g).choi.entries
        assert max_abs(got - want.entries) <= 1e-12 * max_abs(want.entries)
        assert lebesgue.decompose(f, g).recon

    @staticmethod
    def _factored_cases():
        """(name, F, G, RANK_RTOL) of factored pairs in both orientations: the
        eigh pins' Choi-16 pair and its swap, a zero operand on either side, and
        the SVD-rounding case with its swap."""
        rng = np.random.default_rng(1616)
        f, g = (random_cp(rng, 4, 4, rank=r).choi.entries for r in (None, 8))
        one, zero = random_psd(np.random.default_rng(7), 4), np.zeros((4, 4))
        a, b = np.diag([1e-33, 1.0, 0.0, 0.0]), np.eye(4)
        return [("pins", f, g, hermlinalg.RANK_RTOL), ("pins swapped", g, f, hermlinalg.RANK_RTOL),
                ("zero G", one, zero, hermlinalg.RANK_RTOL),
                ("zero F", zero, one, hermlinalg.RANK_RTOL),
                ("svd rounding", a, b, 0.0), ("svd rounding swapped", b, a, 0.0)]

    @pytest.mark.parametrize("case", range(6),
                             ids=lambda i: TestFactoredPair._factored_cases()[i][0])
    def test_every_reader_agrees_with_the_eigh_route(self, monkeypatch, case):
        # each reader of the pair, on operands with their admission eig cached
        # (the factored pair, R its last part) and on the same entries with no
        # cached eig (the eigh route, no R)
        _, f, g, rtol = self._factored_cases()[case]
        monkeypatch.setattr(hermlinalg, "RANK_RTOL", rtol)
        kinds = [MeanKind.parse(k) for k in ("arith", "geo", "harm", "parallel", "log",
                                             "power:0.3")]
        atoms = ((0.3, 1.5), (7.0, 0.25))
        kinds += [MeanKind.custom(rep) for rep in (  # R weighed by a (B thin), b (A thin), both
            opmeans.ConnectionRep(0.2, 0.0, atoms), opmeans.ConnectionRep(0.0, 0.1, atoms),
            opmeans.adjoint_rep(opmeans.ConnectionRep(0.0, 0.0, atoms)))]
        fac, ref = ([admit(x) for x in (f, g)] for admit in (PsdMatrix, PsdMatrix._trusted))
        p, q = _shared_pair(*fac), _shared_pair(*ref)
        assert (p.t.size, q.t.size) == (p.z.shape[1] + 1, q.z.shape[1])
        bound = 1e-12 * max(max_abs(f), max_abs(g))
        for kind in kinds:
            got, want = (opmeans.mean(kind, *x).entries for x in (fac, ref))
            assert max_abs(got - want) <= bound, kind
        fac, ref = ([cpmaps.CpMap(1, x.dim, x) for x in pair] for pair in (fac, ref))
        got, want = lebesgue.decompose(*fac), lebesgue.decompose(*ref)
        for part in ("ac", "sing"):
            x, y = (getattr(s, part).choi.entries for s in (got, want))
            assert max_abs(x - y) <= bound, part
        assert abs(got.alpha_min - want.alpha_min) <= 1e-12 * want.alpha_min
        for check in (lebesgue.is_singular, lambda x, y: lebesgue.is_abs_continuous(y, x)):
            assert abs(check(*fac).residual - check(*ref).residual) <= 1e-12
