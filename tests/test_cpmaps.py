import dataclasses
import math
import warnings

import numpy as np
import pytest

from cpmean import cli, cpmaps, hermlinalg
from cpmean.cpmaps import (
    TOL_FLAGS,
    CpMap,
    choi_from_action,
    compose,
    cond_exp_diag,
    cond_exp_rotated,
    cond_exp_tensor,
    depolarizing,
    from_choi,
    from_kraus,
    functional,
    geo_certificate,
    identity,
    index_cp,
    kraus_decompose,
    mean_cp,
    order_cp,
    schur,
    state_mean_quantities,
    tensor,
    unitary_conj,
)
from cpmean.channeldoc import doc_to_channel, save_channel
from cpmean.errors import DomainError, InvalidInput, NotCompletelyPositive, ParseError, ShapeError
from cpmean.hermlinalg import (
    RANK_RTOL, TOL_HERM, TOL_PSD, HermitianMatrix, PsdMatrix, Verdict, as_psd, is_psd, psd_sqrt)
from cpmean.opmeans import GEO, HARM, MeanKind, geometric_mean

from conftest import (
    TOL_RECON,
    max_abs,
    min_eig,
    random_cp,
    random_density,
    random_psd,
    random_unitary,
    support_proj,
)


def entangled_vec(d):
    v = np.zeros(d * d, dtype=np.complex128)
    v[:: d + 1] = 1.0
    return v


class TestChoiConstruction:
    def test_identity_choi(self):
        v = entangled_vec(3)
        got = choi_from_action(3, 3, lambda e: e)
        assert max_abs(got.choi.entries - np.outer(v, v.conj())) < 1e-14

    def test_depolarizing_choi(self):
        got = choi_from_action(2, 2, lambda e: np.trace(e) / 2.0 * np.eye(2))
        assert max_abs(got.choi.entries - np.eye(4) / 2.0) < 1e-14
        assert max_abs(got.choi.entries - depolarizing(2).choi.entries) < 1e-14

    def test_repr_names_the_dimensions(self):
        assert repr(from_choi(2, 3, np.eye(6))) == "CpMap(2 -> 3)"

    def test_zero_action(self):
        got = choi_from_action(2, 3, lambda e: np.zeros((3, 3)))
        assert max_abs(got.choi.entries) == 0.0

    def test_non_cp_action_rejected(self):
        # the transpose map is positive but not completely positive
        with pytest.raises(NotCompletelyPositive):
            choi_from_action(2, 2, lambda e: e.T)

    def test_wrong_block_shape(self):
        with pytest.raises(ShapeError):
            choi_from_action(2, 2, lambda e: np.zeros((3, 3)))

    @pytest.mark.parametrize("dims, size, match", [
        ((0, 1), 1, "dimensions must be positive"),
        ((2, 1.0), 2, "dimensions must be positive"),
        ((True, 1), 1, "dimensions must be positive"),
        ((2, 2), 3, "Choi matrix has size 3, expected 4"),
    ], ids=["dimension 0", "float dimension", "boolean dimension", "wrong size"])
    def test_dimensions_that_do_not_fit_the_choi_matrix_raise_shape_error(
            self, dims, size, match):
        with pytest.raises(ShapeError, match=match):
            CpMap(*dims, as_psd(np.eye(size)))

    def test_negative_scaling_raises_domain_error(self):
        with pytest.raises(DomainError, match="nonnegative"):
            -1 * identity(2)

    @pytest.mark.parametrize("scalar", [1j, 2.0 + 0j, np.complex128(1.0), np.complex64(1j),
                                        np.array(2.0 + 0j)])
    def test_complex_scaling_raises_domain_error(self, scalar):
        with pytest.raises(DomainError, match="real"):
            scalar * identity(2)

    @pytest.mark.parametrize("scalar", [True, "2", None, 2 ** 2000, math.nan, math.inf, [2.0]],
                             ids=["bool", "str", "None", "2**2000", "nan", "inf", "list"])
    def test_scaling_by_anything_but_a_finite_number_raises_domain_error(self, scalar):
        with pytest.raises(DomainError):
            scalar * identity(2)

    def test_scaling_past_double_range_raises_domain_error(self):
        f = 1e308 * identity(2)
        with pytest.raises(DomainError, match="finite Choi matrix"):
            2 * f
        assert (1.0 * f).choi.entries.max() == 1e308

    def test_a_sum_past_double_range_raises_domain_error(self):
        f, g = (from_choi(1, 2, x * np.eye(2)) for x in (1.2e308, 1.08e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="double range"):
                f + g
        assert ((f + 1e-300 * g).choi.entries == f.choi.entries).all()

    @pytest.mark.parametrize("build", [
        lambda d: tensor(d, d), lambda d: compose(d, d), lambda d: from_kraus([1e160 * np.eye(2)]),
    ], ids=["tensor", "compose", "from_kraus"])
    def test_a_product_past_double_range_raises_domain_error(self, build):
        # no input holds a non-finite number: the library's own result overflowed
        d = 2.0 ** 600 * depolarizing(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond double range"):
                build(d)

    def test_order_of_maps_whose_difference_is_past_double_range(self):
        # C_G - C_F has entries -3.2e308: taken of the two folded to their common
        # exponent it is a double, and its eigenvalues +-3.2e308 fail both ways
        f = from_choi(1, 2, 1.6e308 * np.ones((2, 2)))
        g = from_choi(1, 2, 1.6e308 * np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            le, ge = order_cp(f, g)
        assert (le.residual, ge.residual) == (np.inf, np.inf) and not (le or ge)
        assert order_cp(f, f) == (Verdict(0.0, le.bound),) * 2 == order_cp(g, g)

    def test_adding_anything_but_a_map_raises_type_error(self):
        with pytest.raises(TypeError):
            identity(2) + 3

    def test_a_map_is_its_choi_matrix_and_hashable(self):
        f = identity(2)
        assert [field.name for field in dataclasses.fields(f)] == ["dim_in", "dim_out", "choi"]
        assert hash(f) == hash(CpMap(2, 2, f.choi))
        assert {f, CpMap(2, 2, f.choi)} == {f}
        assert CpMap(2, 2, f.choi) != identity(2)  # another Choi matrix object


# A symbol whose Hermitian part is the identity, and one Hermitian within TOL_HERM.
SKEW = np.array([[1.0, 0.9], [-0.9, 1.0]], dtype=complex)
NEARLY = np.array([[1.0, 0.9 + 0.01 * TOL_HERM], [0.9, 1.0]], dtype=complex)
SCALES = [1e-12, 1.0, 1e12]


def skew_action(s, eps):
    """``x -> s (x + eps/2 (x01 - x10) 1)``: its Choi matrix has Hermiticity
    defect ``s eps`` against largest entry ``s``, and Hermitian part s vv*."""
    return lambda x: s * (x + 0.5 * eps * (x[0, 1] - x[1, 0]) * np.eye(2))


class TestOneAdmission:
    """``CpMap`` admits its Choi matrix by ``as_psd``, and the public constructor
    converts each outside matrix once: one ``_as_array`` call per matrix."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        calls = []

        def counting(*args, _real=hermlinalg._as_array, **kwargs):
            calls.append(args[0])
            return _real(*args, **kwargs)

        for module in (hermlinalg, cpmaps):
            monkeypatch.setattr(module, "_as_array", counting)
        return calls

    @pytest.mark.parametrize("admit", [
        lambda x: from_choi(2, 2, x), lambda x: CpMap(2, 2, x), as_psd, is_psd, schur, functional,
    ], ids=["from_choi", "CpMap", "as_psd", "is_psd", "schur", "functional"])
    def test_an_outside_matrix_is_converted_once(self, rng, conversions, admit):
        x = random_psd(rng, 4)
        admit(x)
        assert len(conversions) == 1 and conversions[0] is x

    def test_cli_verify_decodes_a_choi_document_and_converts_it_once(
            self, rng, conversions, monkeypatch, tmp_path, capsys):
        path = str(tmp_path / "f.json")
        save_channel(random_cp(rng, 2, 2), path)
        monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())  # so the bytes are decoded
        conversions.clear()
        assert cli.main(["--format", "json", "verify", path]) == 3  # neither unital nor TP
        assert len(conversions) == 2

    @pytest.mark.parametrize("choi", [np.diag([1.0, -1.0]), np.diag([1.0, -1.0, 0.0, 1.0])],
                             ids=["Choi 2", "Choi 4"])
    def test_an_indefinite_hermitian_matrix_is_not_cp(self, choi):
        # the Choi 4 one had index 2.0 when CpMap took it unadmitted
        with pytest.raises(NotCompletelyPositive, match="not PSD"):
            CpMap(1, choi.shape[0], HermitianMatrix(choi))

    @pytest.mark.parametrize("choi, match", [
        (np.array([[1.0, 1.0], [0.0, 1.0]]), "not Hermitian"),
        (np.array([[1.0, 0.0], [0.0, math.inf]]), "finite"),
    ], ids=["non-Hermitian", "non-finite"])
    def test_an_array_it_does_not_admit_is_not_cp(self, choi, match):
        with pytest.raises(NotCompletelyPositive, match=match):
            CpMap(1, 2, choi)

    def test_a_ragged_array_raises_shape_error(self):
        with pytest.raises(ShapeError, match="ragged"):
            CpMap(1, 2, [[1.0, 0.0], [0.0]])

    def test_an_array_gives_the_map_of_from_choi_bit_for_bit(self):
        got, want = CpMap(1, 2, np.eye(2)), from_choi(1, 2, np.eye(2))
        assert type(got.choi) is PsdMatrix and (got.dim_in, got.dim_out) == (1, 2)
        assert got.choi.entries.tobytes() == want.choi.entries.tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(got.choi.eig(), want.choi.eig()))

    def test_a_psd_matrix_is_kept_as_it_is(self):
        p = as_psd(np.eye(4))
        assert CpMap(2, 2, p).choi is p


class TestHermiticityRule:
    """Every outside matrix must be Hermitian within TOL_HERM of its largest
    entry modulus; none is replaced by its Hermitian part."""

    @pytest.mark.parametrize("s", SCALES)
    def test_schur_rejects_a_non_hermitian_symbol(self, s):
        with pytest.raises(DomainError, match="not Hermitian"):
            schur(s * SKEW)

    @pytest.mark.parametrize("s", SCALES)
    def test_schur_accepts_a_symbol_hermitian_within_tolerance(self, s):
        e01 = np.array([[0.0, 1.0], [0.0, 0.0]])
        got = schur(s * NEARLY).apply(e01)
        assert max_abs(got - s * 0.9 * e01) <= 1e-12 * s

    @pytest.mark.parametrize("s", SCALES)
    def test_choi_from_action_rejects_a_map_that_breaks_hermiticity(self, s):
        with pytest.raises(NotCompletelyPositive, match="not Hermitian"):
            choi_from_action(2, 2, skew_action(s, 1.0))

    @pytest.mark.parametrize("s", SCALES)
    def test_choi_from_action_accepts_a_map_hermitian_within_tolerance(self, s):
        got = choi_from_action(2, 2, skew_action(s, 0.01 * TOL_HERM)).choi.entries
        assert max_abs(got - s * identity(2).choi.entries) <= 1e-12 * s

    @pytest.mark.parametrize("s", SCALES)
    def test_from_choi_rejects_a_non_hermitian_choi(self, s):
        c = s * np.eye(4, dtype=complex)
        c[0, 1], c[1, 0] = 0.5 * s, -0.5 * s
        with pytest.raises(NotCompletelyPositive, match="not Hermitian"):
            from_choi(2, 2, c)

    @pytest.mark.parametrize("s", SCALES)
    def test_from_choi_accepts_a_choi_hermitian_within_tolerance(self, s):
        c = s * np.eye(4, dtype=complex)
        c[0, 1], c[1, 0] = 0.5 * s, 0.5 * s * (1.0 + 0.01 * TOL_HERM)
        assert max_abs(from_choi(2, 2, c).choi.entries - c) <= 1e-12 * s

    @pytest.mark.parametrize("s", SCALES)
    def test_geometric_mean_rejects_a_raw_non_hermitian_operand(self, s):
        with pytest.raises(InvalidInput, match="not Hermitian"):
            geometric_mean(s * SKEW, s * np.eye(2))
        with pytest.raises(InvalidInput, match="not Hermitian"):
            geometric_mean(s * np.eye(2), s * SKEW)

    @pytest.mark.parametrize("s", SCALES)
    def test_geometric_mean_accepts_an_operand_hermitian_within_tolerance(self, s):
        herm = 0.5 * (NEARLY + NEARLY.conj().T)
        got = geometric_mean(s * NEARLY, s * np.eye(2)).entries
        want = geometric_mean(s * herm, s * np.eye(2)).entries
        assert max_abs(got - want) <= 1e-12 * s


class TestKraus:
    def test_identity_single_kraus(self):
        ops = kraus_decompose(identity(3))
        assert len(ops) == 1
        rebuilt = from_kraus(ops)
        assert max_abs(rebuilt.choi.entries - identity(3).choi.entries) < 1e-12

    def test_depolarizing_kraus_norms(self):
        ops = kraus_decompose(depolarizing(2))
        assert len(ops) == 4
        for k in ops:
            assert abs(np.linalg.norm(k) - 1.0 / np.sqrt(2.0)) < 1e-12

    def test_unitary_conj_rank_one(self, rng):
        u = random_unitary(rng, 3)
        ops = kraus_decompose(unitary_conj(u))
        assert len(ops) == 1
        # single Kraus proportional to U up to phase; compare conjugations
        got = from_kraus(ops).choi.entries
        assert max_abs(got - unitary_conj(u).choi.entries) < 1e-12

    def test_round_trip_random(self, rng):
        for _ in range(8):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            f = random_cp(rng, m, n, rank=int(rng.integers(1, m * n + 1)))
            rebuilt = from_kraus(kraus_decompose(f), dim_in=m, dim_out=n)
            scale = max(1.0, f.choi.norm())
            assert max_abs(rebuilt.choi.entries - f.choi.entries) <= TOL_RECON * scale

    def test_matches_outer_product_sum(self, rng):
        for m, n, k in ((2, 3, 1), (3, 2, 4), (2, 2, 7)):
            ops = [rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m)) for _ in range(k)]
            want = sum(np.outer(a.T.reshape(-1), a.T.reshape(-1).conj()) for a in ops)
            got = from_kraus(ops).choi.entries
            assert max_abs(got - want) <= 1e-14 * k * max_abs(want)

    def test_the_map_does_not_alias_the_operators(self):
        op = np.eye(2, dtype=np.complex128)
        f = from_kraus([op])
        op[0, 0] = 5
        assert f.choi.entries[0, 0] == 1.0

    @pytest.mark.parametrize("ops, dims, match", [
        ([], {}, "explicit dimensions"),
        ([], {"dim_in": 2}, "explicit dimensions"),
        ([np.eye(2)], {"dim_in": 3, "dim_out": 2}, "dim_out x dim_in"),
        ([np.eye(2)], {"dim_in": 0, "dim_out": 2}, "dim_out x dim_in"),
        ([np.eye(2)], {"dim_in": 2, "dim_out": 0}, "dim_out x dim_in"),
        ([np.eye(2)], {"dim_in": 2.0, "dim_out": 2}, "dim_out x dim_in"),
        ([np.eye(2)], {"dim_in": 2, "dim_out": True}, "dim_out x dim_in"),
        ([], {"dim_in": 2.0, "dim_out": 2}, "dim_out x dim_in"),
        ([np.eye(2), np.ones((2, 3))], {}, "inconsistent"),
    ], ids=["empty", "empty with dim_in", "first off the dimensions", "explicit dim_in 0",
            "explicit dim_out 0", "explicit float dim_in", "explicit boolean dim_out",
            "empty with float dim_in", "two shapes"])
    def test_operators_off_their_dimensions_raise_shape_error(self, ops, dims, match):
        with pytest.raises(ShapeError, match=match):
            from_kraus(ops, **dims)

    @pytest.mark.parametrize("ops", [[np.ones(3)], [np.array(1.0)], [np.eye(2), np.ones((2, 2, 2))]],
                             ids=["1-D", "0-D", "3-D second"])
    def test_operator_that_is_not_2d_raises_shape_error(self, ops):
        with pytest.raises(ShapeError, match="2-D"):
            from_kraus(ops)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0.0, np.inf)])
    def test_non_finite_operator_raises_before_the_gram_product(self, bad):
        # a RuntimeWarning of the Gram product would escape as an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match="finite"):
                from_kraus([np.eye(2), np.array([[1.0, 0.0], [bad, 1.0]])])
            with pytest.raises(InvalidInput, match="finite"):
                from_kraus([np.array([[bad]])])

    def test_kraus_consistency_invariant(self, rng):
        f = random_cp(rng, 2, 3)
        ops = kraus_decompose(f)
        total = sum(np.outer(k.T.reshape(-1), k.T.reshape(-1).conj()) for k in ops)
        assert max_abs(total - f.choi.entries) <= TOL_RECON * max(1.0, f.choi.norm())


class TestApply:
    def test_identity(self, rng):
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert max_abs(identity(3).apply(x) - x) < 1e-14

    def test_depolarizing(self):
        got = depolarizing(2).apply(np.diag([1.0, 0.0]))
        assert max_abs(got - np.eye(2) / 2.0) < 1e-14

    def test_schur_is_entrywise(self, rng):
        a = random_psd(rng, 3)
        x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        assert max_abs(schur(a).apply(x) - a * x) < 1e-12

    def test_linear_and_hermiticity_preserving(self, rng):
        f = random_cp(rng, 3, 2)
        x = random_psd(rng, 3)
        y = f.apply(x)
        assert max_abs(y - y.conj().T) < 1e-12
        assert max_abs(f.apply(2.0 * x) - 2.0 * y) < 1e-12

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            identity(2).apply(np.eye(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_a_non_finite_argument_raises_invalid_input(self, bad):
        with pytest.raises(InvalidInput, match="finite"):
            identity(2).apply(np.diag([bad, 1.0]))

    def test_a_value_past_double_range_raises_domain_error_with_no_warning(self):
        f, g = from_choi(2, 2, 1e200 * np.eye(4)), from_choi(2, 2, 1.5e308 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for h, x in ((f, 1e200 * np.eye(2)), (g, np.eye(2))):
                with pytest.raises(DomainError, match="beyond double range"):
                    h.apply(x)
            # the defects are residuals, not values: past DBL_MAX they read inf
            assert g.unital_defect() == g.trace_defect() == math.inf

    def test_it_is_formed_at_unit_scale(self, rng):
        # formed at unit scale and scaled once: it scales by 2^k bit for bit, a
        # value below the double range rounds to 0 once, and one whose products
        # overflow is still a double
        f = random_cp(rng, 2, 3)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = f.apply(x)
        for k in (-600, 600):
            assert (f.apply(2.0 ** k * x) == 2.0 ** k * y).all()
            assert ((2.0 ** k * f).apply(2.0 ** -k * x) == y).all()
        assert not (2.0 ** -600 * f).apply(2.0 ** -600 * x).any()
        # 2 Tr(x) 1 = 0, though each product 2 x_ii is past DBL_MAX
        assert not (4.0 * depolarizing(2)).apply(np.diag([1.5e308, -1.5e308])).any()


class TestOrder:
    def test_reflexive_and_scaled(self, rng):
        f = random_cp(rng, 2, 2)
        # C_F - C_F = 0, bound tol max |C_F|
        assert order_cp(f, f) == (Verdict(0.0, TOL_PSD * max_abs(f.choi.entries)),) * 2
        assert order_cp(0.5 * f, f)[0]

    def test_id_not_below_depolarizing(self):
        assert not order_cp(identity(2), depolarizing(2))[0]

    def test_matches_apply_level_domination(self, rng):
        f = random_cp(rng, 2, 2, lo=0.1, hi=1.0)
        g = f + random_cp(rng, 2, 2, lo=0.1, hi=1.0)
        assert order_cp(f, g)[0]
        for _ in range(5):
            x = random_psd(rng, 2)
            assert min_eig(g.apply(x) - f.apply(x)) > -1e-9

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            order_cp(identity(2), identity(3))

    def test_order_cp_matches_is_psd_of_both_differences(self, rng):
        f = random_cp(rng, 2, 3)
        pairs = [
            (f, f),
            (0.5 * f, f),
            (f, 0.5 * f),
            (identity(2), depolarizing(2)),
            (0.5 * identity(2), identity(2)),
            (f, f + random_cp(rng, 2, 3, rank=1)),
        ]
        pairs += [(random_cp(rng, 2, 2, rank=r), random_cp(rng, 2, 2, rank=s))
                  for r in (1, 2, 4) for s in (1, 3, 4)]
        for tol in (1e-9, 10.0):
            seen = set()
            for a, b in pairs:
                le, ge = order_cp(a, b, tol)
                d = b.choi.entries - a.choi.entries
                # the residuals of is_psd, bounded by the operands, not by d
                bound = tol * max(max_abs(a.choi.entries), max_abs(b.choi.entries))
                assert le.bound == ge.bound == bound
                w = np.linalg.eigvalsh(d)  # the eigenvalues alone, which order_cp reads
                assert (le.residual, ge.residual) == (max(0.0, -w[0]), max(0.0, w[-1]))
                # is_psd reads them from the eigendecomposition: equal up to its round-off
                assert abs(le.residual - is_psd(d, tol).residual) <= 1e-14 * max_abs(d)
                assert bool(ge) == (is_psd(-d, tol).residual <= bound)
                seen.add((bool(le), bool(ge)))
            if tol == 1e-9:  # equal, <=, >= and incomparable all occur
                assert len(seen) == 4

    def test_order_and_certificate_residuals_scale_bit_for_bit(self):
        # an uncached eigvals() folds its entries to unit scale, so LAPACK never
        # rescales them: at 2^+-500 and 2^+-1000, past about [2^-400, 2^484],
        # each residual is the unit-scale one times 2^k
        rng = np.random.default_rng(909)
        for _ in range(3):
            f, g = random_cp(rng, 3, 3), random_cp(rng, 3, 3, rank=5)
            theta = mean_cp(GEO, f, g)

            def residuals(s):
                f_s, g_s, theta_s = s * f, s * g, s * theta
                checks = (*order_cp(f_s, g_s), geo_certificate(f_s, g_s, theta_s),
                          geo_certificate(f_s, g_s, 2.0 * theta_s))
                return [v.residual for v in checks]

            want = residuals(1.0)
            assert min(want) > 0.0
            for k in (-1000, -500, 500, 1000):
                assert residuals(2.0 ** k) == [math.ldexp(x, k) for x in want], k


class TestMeanCp:
    def test_id_depolarizing(self):
        for d in (2, 3):
            geo = mean_cp(GEO, identity(d), depolarizing(d))
            assert max_abs(geo.choi.entries - identity(d).choi.entries / d) < 1e-12
            harm = mean_cp(HARM, identity(d), depolarizing(d))
            want = 2.0 / (d * d + 1) * identity(d).choi.entries
            assert max_abs(harm.choi.entries - want) < 1e-12

    def test_schur_multiplier_functorial(self, rng):
        a = random_psd(rng, 3)
        b = random_psd(rng, 3)
        lhs = mean_cp(GEO, schur(a), schur(b)).choi.entries
        rhs = schur(geometric_mean(a, b).entries).choi.entries
        assert max_abs(lhs - rhs) < 1e-10

    def test_conjugation_mean_vanishes(self):
        psi_a = from_kraus([np.diag([2.0, 1.0])])
        psi_b = from_kraus([np.diag([1.0, 2.0])])
        got = mean_cp(GEO, psi_a, psi_b)
        assert max_abs(got.choi.entries) < 1e-14

    def test_idempotent_and_symmetric(self, rng):
        f = random_cp(rng, 2, 3)
        g = random_cp(rng, 2, 3)
        assert max_abs(mean_cp(GEO, f, f).choi.entries - f.choi.entries) < 1e-10
        assert max_abs(mean_cp(GEO, f, g).choi.entries
                       - mean_cp(GEO, g, f).choi.entries) < 1e-9

    def test_unital_bound(self, rng):
        u = random_unitary(rng, 2)
        pairs = [(identity(2), depolarizing(2)),
                 (unitary_conj(u), cond_exp_diag(2))]
        for f, g in pairs:
            geo_one = mean_cp(GEO, f, g).apply(np.eye(2))
            harm_one = mean_cp(HARM, f, g).apply(np.eye(2))
            assert min_eig(geo_one - harm_one) > -1e-9
            assert min_eig(np.eye(2) - geo_one) > -1e-9

    def test_norm_proxy_bound(self, rng):
        # ||(F#G)(1)|| <= sqrt(||F(1)|| ||G(1)||) for the positive zoo maps
        f = 1.7 * identity(2)
        g = depolarizing(2)
        geo_one = mean_cp(GEO, f, g).apply(np.eye(2))
        bound = math.sqrt(np.linalg.norm(f.apply(np.eye(2)), 2)
                          * np.linalg.norm(g.apply(np.eye(2)), 2))
        assert np.linalg.norm(geo_one, 2) <= bound + 1e-9


class TestGeoCertificate:
    def test_mean_passes(self, rng):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2)
        theta = mean_cp(GEO, f, g)
        assert geo_certificate(f, g, theta)
        residual, bound = geo_certificate(f, g, theta)
        block = np.block([[f.choi.entries, theta.choi.entries],
                          [theta.choi.entries, g.choi.entries]])
        norm = np.linalg.norm(block, 2)
        assert abs(residual - max(0.0, -min_eig(block))) <= 1e-13 * norm
        assert bound == TOL_PSD * max_abs(block)

    def test_zero_passes(self, rng):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2)
        zero = from_choi(2, 2, np.zeros((4, 4)))
        assert geo_certificate(f, g, zero)

    @pytest.mark.parametrize("s", [1e-12, 1.0, 1e12])
    def test_verdict_from_eigenvalues_at_joint_scale(self, rng, s):
        # holds on the mean, fails on twice the mean, at every joint scale
        f = s * random_cp(rng, 3, 3)
        g = s * random_cp(rng, 3, 3, rank=4)
        theta = mean_cp(GEO, f, g)
        verdict = geo_certificate(f, g, theta)
        block = np.block([[f.choi.entries, theta.choi.entries],
                          [theta.choi.entries, g.choi.entries]])
        assert verdict and verdict.bound == TOL_PSD * max_abs(block)
        doubled = geo_certificate(f, g, 2.0 * theta)
        assert not doubled and doubled.residual > 1e3 * doubled.bound

    def test_inflated_mean_fails(self, rng):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2)
        theta = 1.01 * mean_cp(GEO, f, g)
        verdict = geo_certificate(f, g, theta)
        assert not verdict and verdict.residual > verdict.bound


class TestTensorCompose:
    def test_identity_tensor(self):
        got = tensor(identity(2), identity(3))
        assert max_abs(got.choi.entries - identity(6).choi.entries) < 1e-14

    def test_compose_identity(self, rng):
        f = random_cp(rng, 2, 3)
        got = compose(identity(3), f)
        assert max_abs(got.choi.entries - f.choi.entries) < 1e-13

    def test_compose_of_maps_that_do_not_chain_raises_shape_error(self, rng):
        with pytest.raises(ShapeError, match="cannot compose 2->2 after 2->3"):
            compose(identity(2), random_cp(rng, 2, 3))

    def test_compose_matches_apply(self, rng):
        f = random_cp(rng, 2, 3)
        g = random_cp(rng, 3, 2)
        comp = compose(g, f)
        for _ in range(4):
            x = random_psd(rng, 2)
            assert max_abs(comp.apply(x) - g.apply(f.apply(x))) < 1e-11

    def test_tensor_matches_apply(self, rng):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2)
        x = random_psd(rng, 2)
        y = random_psd(rng, 2)
        got = tensor(f, g).apply(np.kron(x, y))
        want = np.kron(f.apply(x), g.apply(y))
        assert max_abs(got - want) < 1e-11

    def test_tensor_multiplicativity_of_power_means(self, rng):
        alpha = 0.3
        f1, g1 = random_cp(rng, 2, 2), random_cp(rng, 2, 2)
        f2, g2 = random_cp(rng, 2, 2), random_cp(rng, 2, 2)
        kind = MeanKind.power(alpha)
        lhs = mean_cp(kind, tensor(f1, f2), tensor(g1, g2)).choi.entries
        rhs = tensor(mean_cp(kind, f1, g1), mean_cp(kind, f2, g2)).choi.entries
        assert max_abs(lhs - rhs) < 1e-9

    def test_composition_subdistributivity(self, rng):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2)
        xi = random_cp(rng, 2, 2)
        left = compose(xi, mean_cp(GEO, f, g))
        right = mean_cp(GEO, compose(xi, f), compose(xi, g))
        assert order_cp(left, right, tol=1e-8)[0]
        left2 = compose(mean_cp(GEO, f, g), xi)
        right2 = mean_cp(GEO, compose(f, xi), compose(g, xi))
        assert order_cp(left2, right2, tol=1e-8)[0]

    def test_automorphism_covariance(self, rng):
        f = random_cp(rng, 2, 2)
        g = random_cp(rng, 2, 2)
        cu = unitary_conj(random_unitary(rng, 2))
        cv = unitary_conj(random_unitary(rng, 2))
        lhs = compose(cu, compose(mean_cp(GEO, f, g), cv)).choi.entries
        rhs = mean_cp(GEO, compose(cu, compose(f, cv)),
                      compose(cu, compose(g, cv))).choi.entries
        assert max_abs(lhs - rhs) < 1e-9


def index_oracle(f):
    """<v, C^+ v> through a support projection and numpy's pseudo-inverse,
    which share no code with ``HermitianMatrix.support``."""
    v = entangled_vec(f.dim_in)
    supp = support_proj(f.choi.entries)
    if np.linalg.norm(v - supp @ v) > RANK_RTOL * np.linalg.norm(v):
        return math.inf
    c_pinv = np.linalg.pinv(f.choi.entries, rcond=RANK_RTOL, hermitian=True)
    return float(np.real(v.conj() @ c_pinv @ v))


class TestIndex:
    def test_matches_pinv_oracle(self, rng):
        maps = [identity(3), depolarizing(3), cond_exp_diag(3),
                cond_exp_tensor(2, (0.75, 0.25)), unitary_conj(random_unitary(rng, 3))]
        for d in (2, 3):
            v = entangled_vec(d)
            maps.append(random_cp(rng, d, d))
            for rank in (1, d, d * d - 1):
                # v in the range: a finite index from a rank-deficient Choi matrix
                maps.append(from_choi(d, d, random_psd(rng, d * d, rank=rank)
                                      + np.outer(v, v.conj())))
                maps.append(random_cp(rng, d, d, rank=rank))  # generic: infinite
        finite = 0
        for f in maps:
            got, want = index_cp(f), index_oracle(f)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                finite += 1
                assert abs(got - want) <= 1e-12 * want
        assert finite >= 9 and finite < len(maps)
        assert index_cp(depolarizing(3)) == 9.0

    def test_identity(self):
        assert index_cp(identity(3)) == pytest.approx(1.0)

    def test_depolarizing(self):
        for d in (2, 3, 4):
            assert index_cp(depolarizing(d)) == pytest.approx(d * d, rel=1e-10)

    def test_diagonal_conditional_expectation(self):
        assert index_cp(cond_exp_diag(3)) == pytest.approx(3.0, rel=1e-10)

    def test_tensor_conditional_expectation(self):
        sigma = (0.5, 0.5)
        assert index_cp(cond_exp_tensor(1, sigma)) == pytest.approx(4.0, rel=1e-9)
        rho = (0.75, 0.25)
        assert index_cp(cond_exp_tensor(2, rho)) == pytest.approx(16.0 / 3.0, rel=1e-9)

    def test_infinite_for_generic_conjugation(self):
        hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        assert math.isinf(index_cp(unitary_conj(hadamard)))

    def test_shape_error_non_square(self, rng):
        with pytest.raises(ShapeError):
            index_cp(random_cp(rng, 2, 3))

    def test_an_index_beyond_double_range_raises(self, rng):
        # finite, but inf would read as "v lies off the range"
        a = random_psd(rng, 4, lo=0.1, hi=0.5)  # index >= 2 / 0.5
        assert math.isinf(index_cp(from_choi(2, 2, a)) * 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="beyond double range"):
                index_cp(from_choi(2, 2, 1e-308 * a))

    @pytest.mark.parametrize("s", SCALES)
    def test_off_the_range_still_reads_infinite(self, s):
        assert math.isinf(index_cp(schur(s * np.diag([1.0, 0.0]))))

    def test_geometric_mean_index_bound(self, rng):
        pairs = [
            (identity(2), depolarizing(2)),
            (depolarizing(2), cond_exp_diag(2)),
            (cond_exp_diag(2), cond_exp_rotated(0.9)),
            (cond_exp_tensor(1, (0.5, 0.5)), cond_exp_tensor(2, (0.75, 0.25))),
        ]
        for f, g in pairs:
            geo = mean_cp(GEO, f, g)
            bound = math.sqrt(index_cp(f) * index_cp(g))
            assert index_cp(geo) <= bound + 1e-6 * bound


class TestZoo:
    @pytest.mark.parametrize("build", [
        lambda: identity(3), lambda: unitary_conj(np.eye(2)), lambda: cond_exp_diag(3),
        lambda: cond_exp_rotated(0.3), lambda: cond_exp_tensor(1, [0.25, 0.75]),
        lambda: cond_exp_tensor(2, [0.25, 0.75])],
        ids=["identity", "unitary_conj", "cond_exp_diag", "cond_exp_rotated",
             "cond_exp_tensor 1", "cond_exp_tensor 2"])
    def test_the_zoo_hands_from_kraus_one_stacked_array(self, monkeypatch, build):
        # an ndarray is judged by its dtype; a list would be walked entry by entry
        seen = []

        def spy(ops, *args, _real=cpmaps.from_kraus, **kwargs):
            seen.append((type(ops), np.ndim(ops)))
            return _real(ops, *args, **kwargs)

        monkeypatch.setattr(cpmaps, "from_kraus", spy)
        build()
        assert seen == [(np.ndarray, 3)]

    def test_cond_exp_diag_choi(self):
        got = cond_exp_diag(2).choi.entries
        assert max_abs(got - np.diag([1.0, 0.0, 0.0, 1.0])) < 1e-14

    def test_cond_exp_rotated_is_conjugated_diag(self, rng):
        theta = 0.62
        u = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        e1 = cond_exp_diag(2)
        e2 = cond_exp_rotated(theta)
        x = random_psd(rng, 2)
        want = u @ e1.apply(u.T @ x @ u) @ u.T
        assert max_abs(e2.apply(x) - want) < 1e-12

    def test_cond_exp_tensor_closed_form(self):
        sigma = (0.3, 0.7)
        e1 = cond_exp_tensor(1, sigma)
        bold_sigma = np.kron(np.diag(sigma), np.eye(2))
        w_sigma = choi_from_action(
            2, 2, lambda e: np.trace(np.diag(sigma) @ e) * np.eye(2))
        assert max_abs(w_sigma.choi.entries - bold_sigma) < 1e-14
        closed = tensor(identity(2), w_sigma)
        assert max_abs(e1.choi.entries - closed.choi.entries) < 1e-13

    def test_cond_exp_tensor_is_projection_onto_factor(self, rng):
        e1 = cond_exp_tensor(1, (0.25, 0.75))
        x1 = random_psd(rng, 2)
        x2 = random_psd(rng, 2)
        got = e1.apply(np.kron(x1, x2))
        want = np.kron(x1, np.eye(2)) * np.trace(np.diag([0.25, 0.75]) @ x2)
        assert max_abs(got - want) < 1e-12
        # fixed points of the expectation
        fixed = np.kron(x1, np.eye(2))
        assert max_abs(e1.apply(fixed) - fixed) < 1e-12

    def test_functional_choi_is_transpose(self, rng):
        rho = random_psd(rng, 3)
        f = functional(rho)
        assert (f.dim_in, f.dim_out) == (3, 1)
        assert max_abs(f.choi.entries - rho.T) < 1e-14
        x = random_psd(rng, 3)
        assert abs(f.apply(x)[0, 0] - np.trace(rho @ x)) < 1e-12

    def test_schur_requires_psd_symbol(self):
        with pytest.raises(DomainError):
            schur(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_unitary_conj_requires_unitary(self):
        # non-finite entries are rejected before u* u, with no numpy warning
        for u in ([[1.0, 0.0], [0.0, 2.0]], [[np.nan]], [[np.inf, 0.0], [0.0, 1.0]]):
            with pytest.raises(DomainError, match="unitary"):
                unitary_conj(np.array(u))

    @pytest.mark.parametrize("u", [np.ones((2, 3)), np.ones(2)], ids=["2x3", "1-D"])
    def test_unitary_conj_requires_a_square_matrix(self, u):
        with pytest.raises(DomainError, match="square"):
            unitary_conj(u)

    def test_cond_exp_tensor_validation(self):
        with pytest.raises(DomainError):
            cond_exp_tensor(3, (0.5, 0.5))
        with pytest.raises(DomainError):
            cond_exp_tensor(1, (0.5, -0.5))

    @pytest.mark.parametrize("weights", [
        [0.5 + 0.5j, 0.5], np.array([0.5 + 0.5j, 0.5]), [np.complex128(0.5 + 0.5j), 0.5],
        np.array([0.5, 0.5], dtype=complex)], ids=["python", "array", "numpy scalar", "zero im"])
    def test_complex_weights_rejected_without_warnings(self, weights):
        # numpy would drop the imaginary part of a complex in a real slot
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="real numbers"):
                cond_exp_tensor(1, weights)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_and_weights_rejected_without_warnings(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="theta must be finite"):
                cond_exp_rotated(bad)
            for weights in ((bad, 1.0), (0.5, bad)):
                with pytest.raises(DomainError, match="finite positive"):
                    cond_exp_tensor(1, weights)

    def test_unital_defect_reads_the_choi_blocks(self, rng, monkeypatch):
        # F(1) is the sum of the diagonal blocks: no identity through apply's number rule
        f = random_cp(rng, 3, 2)
        want = float(np.abs(f.apply(np.eye(3)) - np.eye(2)).max())
        monkeypatch.setattr(cpmaps, "_as_array", None)
        assert f.unital_defect() == pytest.approx(want, rel=1e-14)

    def test_flags(self):
        ident = identity(3)
        assert is_psd(ident.choi)
        assert ident.unital_defect() <= TOL_FLAGS and ident.trace_defect() <= TOL_FLAGS
        assert depolarizing(2).trace_defect() <= TOL_FLAGS
        f = functional(np.eye(2))
        assert is_psd(f.choi) and not f.unital_defect() <= TOL_FLAGS

    def test_defects_decide_unital_and_trace_preserving(self, rng):
        maps = [identity(3), depolarizing(2), cond_exp_diag(3), functional(np.eye(2)),
                0.5 * identity(2), random_cp(rng, 2, 3), random_cp(rng, 3, 2, rank=2)]
        for f in maps:
            # oracles from a Kraus list: F(1) = sum K K*, Tr F(e_ij) = (sum K* K)_ji
            ks = kraus_decompose(f)
            one = sum(k @ k.conj().T for k in ks)
            tr = sum(k.conj().T @ k for k in ks)
            scale = max(1.0, f.choi.norm())
            assert abs(f.unital_defect() - max_abs(one - np.eye(f.dim_out))) <= 1e-12 * scale
            assert abs(f.trace_defect() - max_abs(tr - np.eye(f.dim_in))) <= 1e-12 * scale
        assert (identity(3).unital_defect(), identity(3).trace_defect()) == (0.0, 0.0)
        assert functional(np.eye(2)).unital_defect() == 1.0
        assert functional(np.eye(2)).trace_defect() == 0.0
        assert (0.5 * identity(2)).unital_defect() == 0.5
        assert (0.5 * identity(2)).trace_defect() == 0.5


class TestConditionalExpectationMeans:
    def test_rotation_example(self):
        e1 = cond_exp_diag(2)
        for theta in (np.pi / 6, np.pi / 4, 1.0):
            geo = mean_cp(GEO, e1, cond_exp_rotated(theta))
            assert max_abs(geo.choi.entries - 0.5 * identity(2).choi.entries) < 1e-10
        for theta in (0.0, np.pi / 2):
            geo = mean_cp(GEO, e1, cond_exp_rotated(theta))
            assert max_abs(geo.choi.entries - e1.choi.entries) < 1e-12

    def test_tensor_example(self):
        rho = (0.75, 0.25)
        sigma = (0.5, 0.5)
        e1 = cond_exp_tensor(1, sigma)
        e2 = cond_exp_tensor(2, rho)
        lam = math.sqrt((3.0 / 16.0) * 0.25)
        geo = mean_cp(GEO, e1, e2)
        assert max_abs(geo.choi.entries - lam * identity(4).choi.entries) < 1e-10

    def test_bimodule_property_diagonal_case(self, rng):
        # theta = 0 keeps the full diagonal algebra as the intersection
        e1 = cond_exp_diag(2)
        theta = mean_cp(GEO, e1, cond_exp_rotated(0.0))
        a = np.diag(rng.normal(size=2) + 1j * rng.normal(size=2))
        b = np.diag(rng.normal(size=2) + 1j * rng.normal(size=2))
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        got = theta.apply(a @ x @ b)
        want = a @ theta.apply(x) @ b
        assert max_abs(got - want) < 1e-12

    def test_bimodule_property_scalar_intersection(self, rng):
        # generic angle: the intersection algebra is the scalars
        e1 = cond_exp_diag(2)
        theta = mean_cp(GEO, e1, cond_exp_rotated(0.8))
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = 1.3 - 0.2j
        assert max_abs(theta.apply(a * x * 2.0) - a * 2.0 * theta.apply(x)) < 1e-12
        # theta(1) lands in the commutant of the intersection (here: everything)
        one = theta.apply(np.eye(2))
        assert max_abs(one - 0.5 * np.eye(2)) < 1e-10


class TestStateQuantities:
    def test_equal_states(self, rng):
        rho = random_density(rng, 3)
        q = state_mean_quantities(rho, rho)
        tr = float(np.trace(rho).real)
        assert q.gm_trace == pytest.approx(tr, abs=1e-10)
        assert q.sqrt_trace == pytest.approx(tr, abs=1e-10)
        assert q.fidelity == pytest.approx(tr, abs=1e-10)

    def test_commuting_example(self):
        q = state_mean_quantities(np.diag([0.5, 0.5]), np.diag([0.9, 0.1]))
        want = math.sqrt(0.45) + math.sqrt(0.05)
        for val in q:
            assert val == pytest.approx(want, abs=1e-12)

    def test_strict_chain_generic(self, rng):
        for _ in range(10):
            rho = random_density(rng, 2)
            sigma = random_density(rng, 2)
            q = state_mean_quantities(rho, sigma)
            assert q.gm_trace <= q.sqrt_trace + 1e-9
            assert q.sqrt_trace <= q.fidelity + 1e-9

    def test_shape_error(self, rng):
        with pytest.raises(ShapeError):
            state_mean_quantities(np.eye(2), np.eye(3))

    def test_each_quantity_scales_by_two_to_k_bit_for_bit(self, rng):
        # read from the kept unit-scale eigs and scaled once: at 2^-600 nothing
        # underflows to 0 and at 2^600 nothing overflows
        for dim in (2, 3):
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            want = state_mean_quantities(rho, sigma)
            for k in (-1000, -600, -300, 300, 600, 1000):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = state_mean_quantities(2.0 ** k * rho, 2.0 ** k * sigma)
                assert got == tuple(2.0 ** k * x for x in want), k

    def test_commuting_states_near_the_bottom_of_the_range(self):
        # the Gram form of rho^{1/2} sigma^{1/2} at raw scale is about 1e-340
        q = state_mean_quantities(1e-170 * np.diag([1.0, 2.0]), 1e-170 * np.diag([3.0, 1.0]))
        assert q.fidelity == 3.146264369941972e-170
        assert q.sqrt_trace == pytest.approx(q.fidelity, rel=1e-15)

    def test_fidelity_of_jointly_rotated_commuting_states_is_the_closed_form(self):
        # sum_i sqrt(p_i q_i); the products of the small eigenvalues are near
        # eps times the largest, which the eigenvalues of a Gram form m m* lose
        # (about 3e-9 relative) and m's singular values keep
        p, q = np.array([0.6, 0.4, 3e-8, 1e-8]), np.array([0.7, 0.3, 2e-8, 5e-9])
        want = float(np.sqrt(p * q).sum())
        for seed in range(40):
            u = random_unitary(np.random.default_rng(seed), 4)
            got = state_mean_quantities((u * p) @ u.conj().T, (u * q) @ u.conj().T).fidelity
            assert got == pytest.approx(want, rel=1e-13), seed


class TestUnconvertibleArrays:
    """An array argument that ``hermlinalg._as_array`` refuses raises a package
    error: ShapeError where it is ragged, InvalidInput where an entry is no
    number (a string, None, a boolean or another object) or out of range,
    DomainError where the function raises it for any bad value of that argument."""

    RAGGED, WORDS = [[1.0, 2.0], [3.0]], [["a", "b"], ["c", "d"]]

    @pytest.mark.parametrize("call, ragged, words", [
        (lambda x: from_choi(1, 2, x), ShapeError, NotCompletelyPositive),
        (HermitianMatrix, ShapeError, InvalidInput),
        (is_psd, ShapeError, InvalidInput),
        (psd_sqrt, ShapeError, InvalidInput),
        (lambda x: geometric_mean(x, np.eye(2)), ShapeError, InvalidInput),
        (schur, ShapeError, DomainError),
        (functional, ShapeError, InvalidInput),
        (lambda x: state_mean_quantities(np.eye(2), x), ShapeError, InvalidInput),
        (lambda x: identity(2).apply(x), ShapeError, InvalidInput),
        (unitary_conj, DomainError, DomainError),
        (lambda x: cond_exp_tensor(1, x), DomainError, DomainError),
        (lambda x: choi_from_action(1, 2, lambda unit: x), ShapeError, InvalidInput),
        (lambda x: from_kraus([np.eye(2), x]), ShapeError, InvalidInput),
        (lambda x: from_kraus([x]), ShapeError, InvalidInput),
    ], ids=["from_choi", "HermitianMatrix", "is_psd", "psd_sqrt", "geometric_mean",
            "schur", "functional", "state_mean_quantities", "apply", "unitary_conj",
            "cond_exp_tensor", "choi_from_action", "from_kraus-second", "from_kraus-only"])
    def test_ragged_and_non_numeric(self, call, ragged, words):
        with pytest.raises(ragged):
            call(self.RAGGED)
        with pytest.raises(words):
            call(self.WORDS)


def _pairs(m) -> list:
    """The rows of m as a document's [re, im] cells, each im 0.0."""
    return [[[x, 0.0] for x in row] for row in (m.tolist() if isinstance(m, np.ndarray) else m)]


class TestOneNumberRule:
    """Library calls and channel documents judge outside numbers by one rule:
    the same cell is refused, as each entry point's package error, or taken as
    the same float, whether it comes in an array or in a document."""

    # each entry point fed a 2 x 2 matrix m: (call, error of a bad cell, of a ragged row)
    ENTRIES = {
        "HermitianMatrix": (HermitianMatrix, InvalidInput, ShapeError),
        "from_choi": (lambda m: from_choi(1, 2, m), NotCompletelyPositive, ShapeError),
        "from_kraus": (lambda m: from_kraus([m]), InvalidInput, ShapeError),
        "schur": (schur, DomainError, ShapeError),
        "cond_exp_tensor": (lambda m: cond_exp_tensor(1, m[0]), DomainError, DomainError),
        "choi document": (lambda m: doc_to_channel(
            {"dim_in": 1, "dim_out": 2, "repr": "choi", "data": _pairs(m)}),
            ParseError, ParseError),
        "kraus document": (lambda m: doc_to_channel(
            {"dim_in": 2, "dim_out": 2, "repr": "kraus", "data": [_pairs(m)]}),
            ParseError, ParseError),
    }
    # the matrix, PSD with positive entries, that every entry point takes, and
    # the bad data: its first cell replaced, or all of it a bool array (which a
    # document holds as boolean cells beside 0.0)
    GOOD = [[2.0, 1.0], [1.0, 2.0]]
    BAD = {
        "numeric string": [["1.5", 1.0], [1.0, 2.0]],
        "boolean beside floats": [[True, 1.0], [1.0, 2.0]],
        "bool array": np.array([[True, False], [False, True]]),
        "None": [[None, 1.0], [1.0, 2.0]],
        "object": [[{"re": 1}, 1.0], [1.0, 2.0]],
        "out of range": [[10**400, 1.0], [1.0, 2.0]],
        "ragged row": [[[2.0, 2.0], 1.0], [1.0, 2.0]],
    }

    @pytest.mark.parametrize("bad", BAD)
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_each_entry_point_refuses_the_same_cells(self, entry, bad):
        call, error, ragged = self.ENTRIES[entry]
        call(self.GOOD)
        with pytest.raises(ragged if bad == "ragged row" else error):
            call(self.BAD[bad])

    def test_an_integer_beyond_64_bits_is_the_same_float_both_ways(self):
        m = [[10**20, 1.0], [1.0, 2.0]]
        want = np.array([[1e20, 1.0], [1.0, 2.0]])
        assert np.array_equal(HermitianMatrix(m).entries, want)
        for lib, doc in (("from_choi", "choi document"), ("from_kraus", "kraus document")):
            got = self.ENTRIES[lib][0](m).choi.entries
            assert got.tobytes() == self.ENTRIES[doc][0](m).choi.entries.tobytes()
        assert from_choi(1, 2, m).choi.entries[0, 0] == 1e20
        assert np.array_equal(cond_exp_tensor(1, m[0]).choi.entries,
                              cond_exp_tensor(1, [1e20, 1.0]).choi.entries)


class TestWholeDimensions:
    """A dimension is an integer >= 1, never a float or a boolean: anything else
    is a ShapeError before numpy sees it."""

    @pytest.mark.parametrize("call", [
        lambda: from_choi(True, 2, np.eye(2)),
        lambda: from_choi(1.0, 2, np.eye(2)),
        lambda: depolarizing(True),
        lambda: depolarizing(2.5),
        lambda: identity(2.0),
        lambda: identity(-1),
        lambda: cond_exp_diag(2.0),
    ], ids=["from_choi-bool", "from_choi-float", "depolarizing-bool",
            "depolarizing-float", "identity-float", "identity-negative", "cond_exp_diag-float"])
    def test_a_dimension_that_is_no_positive_integer(self, call):
        with pytest.raises(ShapeError, match="dimensions must be positive"):
            call()

    def test_numpy_integers_are_dimensions(self):
        f = from_choi(np.int64(1), np.int32(2), np.eye(2))
        assert (f.dim_in, f.dim_out) == (1, 2)
        assert np.array_equal(identity(np.int64(2)).choi.entries, identity(2).choi.entries)
