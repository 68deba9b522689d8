"""Eigendecompositions per public operation, pinned on one Choi-16 pair.

Each count starts on a fresh run (``hermlinalg._Run()``), with no spectral
pair shared and no document kept, so a plain row is a cold count.  A row ``X
after k`` counts X after ``mean k`` ran uncounted on the same two operands
and left its pair in the run; a row ``X after cli ...`` counts X after that
command ran uncounted and left its documents in the run.  A row ending ``in
a fresh run`` starts a fresh run between the two, so it reads the cold count.
A change that moves a count restates its row here and says why.  A count
is (eigh, eigvalsh), with the svd calls as a third entry where there are any.

F is invertible and G rank-deficient, and both were admitted with their eig
cached, so their spectral pair is the factored one: one thin SVD of the n x
r factor ``X_F^{-1} Y_G``, a Z of r columns, and no eigh
(``SpectralPair._factored``).  The complement ``R = Y Y*``, ``Y = X_F - (X_F
P) P*``, is formed from the X_F and P the pair keeps, with no SVD and no
eigh, and only by a result that weighs it: the ``COMPLEMENT`` rows, and the
split and the residual with F thin.  A pair with an operand whose eig is not
cached, or of two full-rank operands, costs the eigh route's 2.

A mean on the spectral pair that is rank-deficient by construction (a zero
in its kernel d, or fewer pair columns than rows) is the Gram form ``2^m Z
diag(d) Z*``, plus ``2^m d_R R`` where the kernel d_R on R is not 0, no eigh
past the pair's.  Any other goes through the clamp,
which picks its branch by its bound: a result whose smallest computed
eigenvalue is within the bound is projected to the PSD cone (a Gram form whose
eig stays lazy), 1 eigh, and one whose smallest eigenvalue is above it is
admitted as computed, 2 eigh.  G has Choi rank 8, so every mean of F and G
has nullity 8 and is a Gram form; the mean of ``mean geo, full-rank
operands`` is well conditioned and is admitted.  The reference formula
``opmeans.parallel_sum`` takes no clamp: one eigh and one eigvalsh.
``test_cold_kernel_means_cost_2_or_4_by_rank`` checks the rule on seeded pairs.
"""

import numpy as np
import pytest

from cpmean import cli, cpmaps, hermlinalg, lebesgue, opmeans
from cpmean.channeldoc import save_channel
from cpmean.opmeans import MeanKind

from conftest import random_cp, write_kraus

# (operation, (numpy.linalg.eigh calls, numpy.linalg.eigvalsh calls[, svd calls]))
PINS = [
    ("mean arith", (0, 0)),       # (A + B)/2 is PSD by construction
    # the factored pair's SVD.  Down from (3, 0): the result is rank-deficient
    # by construction (d is 0 on the 8 directions where G is), so it is the
    # Gram form 2^m Z diag(d) Z* and goes through no clamp; from (2, 0) to
    # (0, 0, 1): the pair is factored from the cached eigs of F and G, one SVD
    # in place of eig C and eig A'
    ("mean harm", (0, 0, 1)),
    ("mean parallel", (0, 0, 1)),
    ("mean geo", (0, 0, 1)),
    ("mean power:0.3", (0, 0, 1)),
    ("mean power:0", (0, 0)),     # the admitted operand itself
    ("mean power:1", (0, 0)),
    ("mean log", (0, 0, 1)),      # its two-scalar form is closed
    ("mean custom", (0, 0, 1)),
    ("mean custom adjoint", (0, 0, 1)),
    ("mean custom dual", (0, 0, 1)),
    # custom reps that weigh the thin pair's complement R (COMPLEMENT): its
    # sum with the Gram form is PSD by construction and R takes no SVD and no
    # eigh.  Down from (2, 0, 1), the clamp's admitting branch on a result
    # with no zero in its kernel
    ("mean custom a, thin B", (0, 0, 1)),
    ("mean custom b, thin A", (0, 0, 1)),
    ("mean custom adjoint atoms", (0, 0, 1)),
    # a well-conditioned result takes the clamp's admitting branch: eig C, eig
    # A', the clamp's eig and the admission's (perfbench pins the same count);
    # two full-rank operands take the eigh route, no SVD
    ("mean geo, full-rank operands", (4, 0)),
    ("mean harm, full-rank operands", (4, 0)),
    # the last spectral pair is shared, and a rank-deficient mean has no
    # clamp: down from (1, 0)
    ("mean geo after harm", (0, 0)),
    # the run, not the process, shares; from (2, 0) as mean geo
    ("mean geo after harm in a fresh run", (0, 0, 1)),
    ("decompose after geo", (0, 0)),
    # arith 0, harm the pair's SVD, geo, power:0.3 and log 0 each.  Down from
    # (6, 0): no rank-deficient mean goes through the clamp; from (2, 0) to
    # (0, 0, 1) as mean harm
    ("lib-means bundle", (0, 0, 1)),
    # the factored pair's SVD, from (2, 0): eig C and eig A'
    ("decompose", (0, 0, 1)),
    ("is_singular", (0, 0, 1)),
    ("is_abs_continuous", (0, 0, 1)),
    # F = G thin and G = F invertible: the singular part is s_G R, and the
    # residual reads the trace of R as ||Y||_F²; as decompose
    ("decompose, thin F", (0, 0, 1)),
    ("is_abs_continuous, thin F", (0, 0, 1)),
    ("index_cp", (0, 0)),         # reads the cached eig of C_F
    ("kraus_decompose", (0, 0)),  # likewise
    # down from (1, 0): the two verdicts read only the eigenvalues of C_G - C_F
    ("order_cp", (0, 1)),
    # down from (1, 0): the verdict reads only the 2mn block's eigenvalues
    ("geo_certificate", (0, 1)),
    # sums, scalings, tensor products and compositions of admitted maps are
    # PSD by construction: no admission
    ("CpMap +", (0, 0)),
    ("CpMap scalar *", (0, 0)),
    ("tensor", (0, 0)),
    ("compose", (0, 0)),
    # the zoo and Kraus maps are Gram forms or trusted Choi matrices: no admission
    ("identity", (0, 0)),
    ("depolarizing", (0, 0)),
    ("unitary_conj", (0, 0)),
    ("cond_exp_diag", (0, 0)),
    ("cond_exp_rotated", (0, 0)),
    ("cond_exp_tensor", (0, 0)),
    ("from_kraus", (0, 0)),
    ("schur", (1, 0)),            # the admission of its outside symbol
    ("functional", (1, 0)),       # likewise of rho
    # a matrix the library made is admitted as it is: its entries and its
    # cached eig are kept, with no copy and no new eigh.  Down from (1, 0)
    ("as_psd of a HermitianMatrix with its eig", (0, 0)),
    # 2 input admissions, geo's SVD, and the eigenvalues of the fidelity's
    # Gram form.  Down from (6, 0): the fidelity sums the roots of its
    # eigenvalues and takes no square root of it; down from (5, 1): the
    # rank-deficient geo has no clamp; from (4, 1): geo's pair is factored
    # from the admissions' eigs
    ("state_mean_quantities", (2, 1, 1)),
    # 2 input admissions and geo's SVD; the chain checks' harm reuses geo's pair
    # and, rank-deficient, has no clamp; their two eigvalsh bound the dips of
    # geo - harm and arith - geo.  Down from (9, 2): the certificate is one
    # eigvalsh, not an eigh; down from (8, 3): each projecting clamp is one
    # eigh; down from (6, 3): neither mean goes through the clamp; from (4,
    # 3): geo's pair is factored from the admissions' eigs, one SVD
    ("cli mean --kind geo -o", (2, 3, 1)),
    ("cli verify", (1, 0)),       # the input admission; the CP check reads its eig
    ("cli index", (1, 0)),        # likewise, the index reads it
    # 2 input admissions and the eigenvalues of C_G - C_F.  Down from (3, 0)
    # and (1, 0), as order_cp
    ("cli order", (2, 1)),
    ("cli order kraus", (0, 1)),  # Kraus documents load as Gram forms
    # the run holds the -o document as the mean wrote it and both inputs as
    # admitted: no decoding and no admission.  Up from (0, 0): the mean's
    # Gram form keeps its eig lazy, so the CP check computes it; the two
    # commands together drop from 8 to 5
    ("cli verify geo.json after cli mean --kind geo -o", (1, 0)),
    ("cli index after cli mean --kind geo -o", (0, 0)),
    ("cli order after cli mean --kind geo -o", (0, 1)),  # as order_cp
    # 2 input admissions, the split's SVD and the two predicates 2 each on
    # their own pairs, whose parts have no cached eig; C_F is full rank, so
    # Ando's closed form is G itself and reads only C_F's eig.  Down from (9,
    # 0): the eigh of the zero matrix M*M is gone; from (8, 0): the split's
    # pair is factored from the admissions' eigs
    ("cli lebesgue", (6, 0, 1)),
    # no admission, so the closed form pays for the eig of C_F; down from
    # (9, 0) likewise, and from (8, 0): the recon and Ando bounds read the
    # largest entries of the operands, not the spectral norm of C_G
    ("cli lebesgue kraus", (7, 0)),
    # the eig of A + B and the eigenvalues of the result, its PSD check.  From
    # (2, 0): the result is returned as computed, with no clamp's eig
    ("parallel_sum", (1, 1)),
    # the eig of c0 = 2^k0 C_F + C_G, the one support of every stage, the
    # eigenvalues of each of its 7 stages, their PSD check, and the eig of the
    # extrapolant; the eigs of C_F and C_G are cached from their admission.
    # Down from (8, 7): each stage is an r x r solve on c0's support, not
    # parallel_sum's eig of 2^k C_F + C_G; from (15, 0), as parallel_sum
    ("ac_part_oracle", (2, 7)),
]

# custom reps whose kernel is not 0 on the complement R of the pins' thin pair,
# and whether the operands are swapped to make A the thin one
ATOMS = ((0.3, 1.5), (7.0, 0.25))
COMPLEMENT = {
    "mean custom a, thin B": (opmeans.ConnectionRep(0.2, 0.0, ATOMS), False),
    "mean custom b, thin A": (opmeans.ConnectionRep(0.0, 0.1, ATOMS), True),
    "mean custom adjoint atoms": (opmeans.adjoint_rep(opmeans.ConnectionRep(0.0, 0.0, ATOMS)),
                                  False),
}

# argv and exit code of each CLI row, over the paths (f, g, geo, fk, gk), fk
# and gk the Kraus documents of f and g; F is a random CP map, neither unital
# nor trace preserving, so verify fails its checks.
CLI = {
    "cli mean --kind geo -o": (lambda f, g, geo, fk, gk: ["mean", "--kind", "geo", f, g,
                                                           "-o", geo], 0),
    "cli verify": (lambda f, g, geo, fk, gk: ["verify", f], 3),
    "cli verify geo.json": (lambda f, g, geo, fk, gk: ["verify", geo], 3),
    "cli index": (lambda f, g, geo, fk, gk: ["index", f], 0),
    "cli order": (lambda f, g, geo, fk, gk: ["order", f, g], 0),
    "cli order kraus": (lambda f, g, geo, fk, gk: ["order", fk, gk], 0),
    "cli lebesgue": (lambda f, g, geo, fk, gk: ["lebesgue", f, g], 0),
    "cli lebesgue kraus": (lambda f, g, geo, fk, gk: ["lebesgue", fk, gk], 0),
}


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    rng = np.random.default_rng(1616)
    f, g, h = random_cp(rng, 4, 4), random_cp(rng, 4, 4, rank=8), random_cp(rng, 4, 4)
    tmp = tmp_path_factory.mktemp("pins")
    paths = [str(tmp / name) for name in ("f.json", "g.json", "geo.json", "fk.json", "gk.json")]
    save_channel(f, paths[0])
    save_channel(g, paths[1])
    write_kraus(cpmaps.kraus_decompose(f), paths[3], 4, 4)
    write_kraus(cpmaps.kraus_decompose(g), paths[4], 4, 4)
    return f, g, cpmaps.mean_cp(MeanKind("geo"), f, g), paths, h


def _operation(name, f, g, geo, paths, h):
    if name in CLI:
        args, code = CLI[name]
        argv = ["--format", "json", *args(*paths)]

        def run():
            assert cli.main(argv) == code
        return run
    if name == "lib-means bundle":
        kinds = [MeanKind.parse(k) for k in ("arith", "harm", "geo", "power:0.3", "log")]
        return lambda: [cpmaps.mean_cp(kind, f, g) for kind in kinds]
    if name.endswith(", full-rank operands"):
        kind = MeanKind.parse(name.split()[1].rstrip(","))
        return lambda: cpmaps.mean_cp(kind, f, h)
    if name in COMPLEMENT:
        rep, swap = COMPLEMENT[name]
        kind = MeanKind.custom(rep)
        return lambda: cpmaps.mean_cp(kind, *((g, f) if swap else (f, g)))
    if name.startswith("mean custom"):
        transform = {"custom": lambda r: r, "adjoint": opmeans.adjoint_rep,
                     "dual": opmeans.dual_rep}[name.split()[-1]]
        kind = MeanKind.custom(transform(opmeans.power_rep(0.3)))
        return lambda: cpmaps.mean_cp(kind, f, g)
    if name.startswith("mean "):
        kind = MeanKind.parse(name.split()[1])
        return lambda: cpmaps.mean_cp(kind, f, g)
    ops = cpmaps.kraus_decompose(f)
    block = np.array(f.choi.entries[:4, :4])  # a principal block of C_F: PSD
    u = np.linalg.qr(g.choi.entries[:4, :4])[0]
    held = hermlinalg.HermitianMatrix._trusted(f.choi.entries)
    held.eig()
    return {
        "identity": lambda: cpmaps.identity(4),
        "depolarizing": lambda: cpmaps.depolarizing(4),
        "unitary_conj": lambda: cpmaps.unitary_conj(u),
        "cond_exp_diag": lambda: cpmaps.cond_exp_diag(4),
        "cond_exp_rotated": lambda: cpmaps.cond_exp_rotated(0.3),
        "cond_exp_tensor": lambda: cpmaps.cond_exp_tensor(2, [0.25, 0.75]),
        "from_kraus": lambda: cpmaps.from_kraus(ops),
        "schur": lambda: cpmaps.schur(block),
        "functional": lambda: cpmaps.functional(block),
        "as_psd of a HermitianMatrix with its eig": lambda: hermlinalg.as_psd(held),
        "parallel_sum": lambda: opmeans.parallel_sum(f.choi, g.choi),
        "ac_part_oracle": lambda: lebesgue.ac_part_oracle(f, g),
        "decompose": lambda: lebesgue.decompose(f, g),
        "decompose, thin F": lambda: lebesgue.decompose(g, f),
        "is_abs_continuous, thin F": lambda: lebesgue.is_abs_continuous(f, g),
        "is_singular": lambda: lebesgue.is_singular(f, g),
        "is_abs_continuous": lambda: lebesgue.is_abs_continuous(g, f),
        "index_cp": lambda: cpmaps.index_cp(f),
        "kraus_decompose": lambda: cpmaps.kraus_decompose(f),
        "order_cp": lambda: cpmaps.order_cp(f, g),
        "geo_certificate": lambda: cpmaps.geo_certificate(f, g, geo),
        "CpMap +": lambda: f + g,
        "CpMap scalar *": lambda: 2.5 * f,
        "tensor": lambda: cpmaps.tensor(f, g),
        "compose": lambda: cpmaps.compose(f, g),
        "state_mean_quantities": lambda: cpmaps.state_mean_quantities(
            *(c.choi.entries / np.trace(c.choi.entries).real for c in (f, g))),
    }[name]


@pytest.mark.parametrize("name, counts", PINS, ids=[name for name, _ in PINS])
def test_pinned_counts(pair, eigh_calls, monkeypatch, name, counts):
    name, _, first = name.partition(" after ")
    first, fresh = first.removesuffix(" in a fresh run"), first.endswith(" in a fresh run")
    warm = _operation(first if first in CLI else f"mean {first}", *pair) if first else None
    if fresh:
        def warm(run=warm):
            run()
            monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())
    assert eigh_calls(_operation(name, *pair), warm) == counts


# rows whose inputs include outside data, which ``_as_array`` judges: a scalar,
# Kraus operators, a symbol or density matrices; and every command, whose
# documents are outside data
OUTSIDE_INPUTS = {"CpMap scalar *", "identity", "unitary_conj", "cond_exp_diag",
                  "cond_exp_rotated", "cond_exp_tensor", "from_kraus", "schur", "functional",
                  "state_mean_quantities"}
ADMITTED = [name for name, _ in PINS if name not in OUTSIDE_INPUTS and not name.startswith("cli ")]


@pytest.mark.parametrize("name", ADMITTED)
def test_admitted_operands_take_no_outside_number_rule(pair, monkeypatch, name):
    """Every matrix the library makes from admitted operands enters by
    ``_trusted``: no ``_as_array`` copy or dtype rule."""
    name, _, first = name.partition(" after ")
    first = first.removesuffix(" in a fresh run")
    monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())
    if first:
        _operation(f"mean {first}", *pair)()
    calls = []

    def counting(*args, _real=hermlinalg._as_array, **kwargs):
        calls.append(args[0])
        return _real(*args, **kwargs)

    for module in (hermlinalg, cpmaps):
        monkeypatch.setattr(module, "_as_array", counting)
    _operation(name, *pair)()
    assert calls == []


def test_a_cold_pair_reads_its_operands_kept_scales(monkeypatch):
    """Each operand's largest entry modulus is computed once: a second cold
    pair on the same two objects, in a fresh run, takes no ``np.abs`` of them.
    Kraus maps have no cached eig, so the pair takes the eigh route, whose
    snap takes ``np.abs`` of its own arrays."""
    rng = np.random.default_rng(2424)
    f, g = (cpmaps.from_kraus(rng.normal(size=(k, 4, 4)) + 1j * rng.normal(size=(k, 4, 4)))
            for k in (16, 3))
    geo = MeanKind("geo")
    monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())
    cpmaps.mean_cp(geo, f, g)
    assert (f.choi._amax, g.choi._amax) == (hermlinalg._max_abs(f.choi.entries),
                                            hermlinalg._max_abs(g.choi.entries))
    seen = []

    def counting(x, *args, _real=np.abs, **kwargs):
        seen.append(any(x is c.choi.entries for c in (f, g)))
        return _real(x, *args, **kwargs)

    monkeypatch.setattr(hermlinalg, "_RUN", hermlinalg._Run())
    monkeypatch.setattr(np, "abs", counting)
    cpmaps.mean_cp(geo, f, g)
    monkeypatch.undo()
    assert seen and not any(seen)


@pytest.mark.parametrize("alpha", [0, 1])
def test_power_mean_at_an_end_weight_is_the_operand_itself(pair, alpha):
    f, g, *_ = pair
    got = cpmaps.mean_cp(MeanKind.power(alpha), f, g)
    assert got.choi is (f, g)[alpha].choi


KERNEL_KINDS = [*(MeanKind.parse(k) for k in ("geo", "harm", "parallel", "power:0.3", "log")),
                MeanKind.custom(opmeans.dual_rep(opmeans.power_rep(0.3)))]


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_cold_kernel_means_cost_2_or_4_by_rank(eigh_calls, scale):
    """Every cold mean on the spectral pair costs the pair's 2 alone where the
    result is rank-deficient, as the Gram form ``2^m Z diag(d) Z*`` goes
    through no clamp, and 4 where it is well conditioned, with the clamp's eig
    and its admission.  F is full rank
    and G has nullity 0-3 at Choi 4-16, both times scale: the results have G's
    nullity, and with the operands' eigenvalues in [0.25, 4] a full-rank
    result's smallest eigenvalue is at least scale/8, far above the clamp's
    bound of TOL_MEAN times its largest entry."""
    rng = np.random.default_rng(3131)
    for draw in range(40):
        m, n = rng.integers(2, 5, size=2)
        nullity = draw % 4
        f = scale * random_cp(rng, m, n)
        g = scale * random_cp(rng, m, n, rank=m * n - nullity)
        for kind in KERNEL_KINDS:
            got = eigh_calls(lambda: cpmaps.mean_cp(kind, f, g))
            assert got == ((2, 0) if nullity else (4, 0)), (draw, m * n, nullity, kind)
