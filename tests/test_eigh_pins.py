"""Eigendecompositions per public operation, pinned on one Choi-16 pair.

Each count starts on a fresh run (``hermlinalg._Run()``), with no spectral
pair shared and no document kept, so a plain row is a cold count.  A row ``X
after k`` counts X after ``mean k`` ran uncounted on the same two operands
and left its pair in the run; a row ``X after cli ...`` counts X after that
command ran uncounted and left its documents in the run.  A row ending ``in
a fresh run`` starts a fresh run between the two, so it reads the cold count.
A change that moves a count restates its row here and says why.

A mean's clamp picks its branch by its bound: a result whose smallest
computed eigenvalue is within the bound is projected to the PSD cone (a Gram
form whose eig stays lazy), 1 eigh, and one whose smallest eigenvalue is above
it is admitted as computed, 2 eigh.  G has Choi rank 8, so every mean and
parallel sum of F and G has nullity 8 and is projected; the mean of ``mean
geo, full-rank operands`` is well conditioned and is admitted.
``test_cold_kernel_means_cost_3_or_4_by_rank`` checks the rule on seeded pairs.
"""

import numpy as np
import pytest

from cpmean import cli, cpmaps, hermlinalg, lebesgue, opmeans
from cpmean.channeldoc import save_channel
from cpmean.opmeans import MeanKind

from conftest import random_cp, write_kraus

# (operation, (numpy.linalg.eigh calls, numpy.linalg.eigvalsh calls))
PINS = [
    ("mean arith", (0, 0)),       # (A + B)/2 is PSD by construction
    # eig C, eig A', and the projecting clamp's one.  Down from (4, 0): the
    # projection is admitted as a Gram form, not eigendecomposed again
    ("mean harm", (3, 0)),
    ("mean parallel", (3, 0)),
    ("mean geo", (3, 0)),
    ("mean power:0.3", (3, 0)),
    ("mean power:0", (0, 0)),     # the admitted operand itself
    ("mean power:1", (0, 0)),
    ("mean log", (3, 0)),         # its two-scalar form is closed
    ("mean custom", (3, 0)),
    ("mean custom adjoint", (3, 0)),
    ("mean custom dual", (3, 0)),
    # a well-conditioned result takes the clamp's admitting branch: eig C, eig
    # A', the clamp's eig and the admission's (perfbench pins the same count)
    ("mean geo, full-rank operands", (4, 0)),
    # the last spectral pair is shared: a next mean pays only its clamp
    ("mean geo after harm", (1, 0)),
    ("mean geo after harm in a fresh run", (3, 0)),  # the run, not the process, shares
    ("decompose after geo", (0, 0)),
    ("lib-means bundle", (6, 0)),  # arith 0, harm 3, geo, power:0.3 and log 1 each
    ("decompose", (2, 0)),        # eig C, eig A'
    ("is_singular", (2, 0)),
    ("is_abs_continuous", (2, 0)),
    ("index_cp", (0, 0)),         # reads the cached eig of C_F
    ("kraus_decompose", (0, 0)),  # likewise
    ("order_cp", (1, 0)),         # eig of C_G - C_F
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
    # 2 input admissions, geo 3, and the square root of the fidelity's Gram form
    ("state_mean_quantities", (6, 0)),
    # 2 input admissions, geo 3, and the clamp of the chain checks' harm, which
    # reuses geo's pair; their two eigvalsh bound the dips of geo - harm and
    # arith - geo.  Down from (9, 2): the certificate is one eigvalsh, not an
    # eigh; down from (8, 3): each projecting clamp is one eigh
    ("cli mean --kind geo -o", (6, 3)),
    ("cli verify", (1, 0)),       # the input admission; the CP check reads its eig
    ("cli index", (1, 0)),        # likewise, the index reads it
    ("cli order", (3, 0)),        # 2 input admissions and eig of C_G - C_F
    ("cli order kraus", (1, 0)),  # Kraus documents load as Gram forms
    # the run holds the -o document as the mean wrote it and both inputs as
    # admitted: no decoding and no admission.  Up from (0, 0): the mean's
    # projected result keeps its eig lazy, so the CP check computes it; the
    # two commands together still drop from 8 to 7
    ("cli verify geo.json after cli mean --kind geo -o", (1, 0)),
    ("cli index after cli mean --kind geo -o", (0, 0)),
    ("cli order after cli mean --kind geo -o", (1, 0)),  # eig of C_G - C_F
    # 2 input admissions, the split 2 and the two predicates 2 each on their
    # own pairs; C_F is full rank, so Ando's closed form is G itself and reads
    # only C_F's eig.  Down from (9, 0): the eigh of the zero matrix M*M is gone
    ("cli lebesgue", (8, 0)),
    # no admission, so the closed form pays for the eig of C_F; down from
    # (9, 0) likewise, and from (8, 0): the recon and Ando bounds read the
    # largest entries of the operands, not the spectral norm of C_G
    ("cli lebesgue kraus", (7, 0)),
    # the admission of A + B and the projecting clamp's one
    ("parallel_sum", (2, 0)),
    # parallel_sum's 2 for each of its 7 iterates on this pair, and the eig of
    # the extrapolant; C_F's eig is cached from its admission
    ("ac_part_oracle", (15, 0)),
]

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
    if name == "mean geo, full-rank operands":
        return lambda: cpmaps.mean_cp(MeanKind("geo"), f, h)
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
        "parallel_sum": lambda: opmeans.parallel_sum(f.choi, g.choi),
        "ac_part_oracle": lambda: lebesgue.ac_part_oracle(f, g),
        "decompose": lambda: lebesgue.decompose(f, g),
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


@pytest.mark.parametrize("alpha", [0, 1])
def test_power_mean_at_an_end_weight_is_the_operand_itself(pair, alpha):
    f, g, *_ = pair
    got = cpmaps.mean_cp(MeanKind.power(alpha), f, g)
    assert got.choi is (f, g)[alpha].choi


KERNEL_KINDS = [*(MeanKind.parse(k) for k in ("geo", "harm", "parallel", "power:0.3", "log")),
                MeanKind.custom(opmeans.dual_rep(opmeans.power_rep(0.3)))]


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
def test_cold_kernel_means_cost_3_or_4_by_rank(eigh_calls, scale):
    """Every cold mean on the spectral pair costs the pair's 2 and its clamp's
    1 where the result is rank-deficient, and 2 where it is well conditioned,
    whatever the sign of the rounding in its zero eigenvalues.  F is full rank
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
            assert got == ((3, 0) if nullity else (4, 0)), (draw, m * n, nullity, kind)
