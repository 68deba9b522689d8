"""Every command on generic document pairs.

Each pair is drawn once per seed and run as drawn: dimensions 1-3 on each side,
ranks uniform on 0..mn, Gaussian Kraus operators, choi or kraus form, and
log10 scales independent on [-12, 12].  ``lebesgue``, ``mean`` of every kind
and ``order`` run on each pair, ``index`` on each square map of it, and
``verify`` and ``index`` on a mixture of random unitaries (unital and trace
preserving) drawn beside it from a stream of its own, so the pairs are those
the seed always drew.  Every run must exit 0 with every check passed; no input
is dropped, rescaled or redrawn.  Each document is decoded and admitted from
its file, not taken from the memo its save fills.
"""

import json

import numpy as np
import pytest

from cpmean.cli import main
from cpmean.cpmaps import from_kraus

from conftest import gaussian_kraus, random_unitary, write_channel

KINDS = ("geo", "harm", "arith", "parallel", "log", "power:0.3")


def _generic_pairs(rng, paths):
    """Write 300 generic pairs to paths in turn, yielding (i, m, n) after each."""
    for i in range(300):
        m, n = (int(x) for x in rng.integers(1, 4, size=2))
        for path in paths:
            ops = gaussian_kraus(rng, m, n, 10.0 ** rng.uniform(-12.0, 12.0))
            write_channel(from_kraus(ops, dim_in=m, dim_out=n), path,
                          kraus=ops if rng.integers(2) else None)
        yield i, m, n


def _failure(capsys, argv):
    """None if ``cpmean --format json *argv`` exits 0 with every check passed,
    else its exit code and the failed checks, or its stderr."""
    code = main(["--format", "json", *argv])
    out, err = capsys.readouterr()
    checks = json.loads(out)["checks"] if out else []
    failed = [c["name"] for c in checks if not c["passed"]]
    return (code, failed or err) if code or failed else None


def _unitary_mixture(rng, d):
    """Kraus operators of a convex combination of 1-4 random unitary
    conjugations of M_d."""
    p = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
    return [np.sqrt(w) * random_unitary(rng, d) for w in p]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lebesgue_passes_on_generic_document_pairs(tmp_path, capsys, seed):
    paths = [str(tmp_path / "phi.json"), str(tmp_path / "psi.json")]
    failures = [(i, bad) for i, _, _ in _generic_pairs(np.random.default_rng(seed), paths)
                if (bad := _failure(capsys, ["lebesgue", *paths]))]
    assert failures == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_command_passes_on_generic_document_pairs(tmp_path, capsys, seed):
    paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
    mix = str(tmp_path / "mix.json")
    mix_rng = np.random.default_rng([seed, 1])
    failures = []
    for i, m, n in _generic_pairs(np.random.default_rng(seed), paths):
        runs = [["mean", "--kind", kind, *paths] for kind in KINDS] + [["order", *paths]]
        if m == n:
            runs += [["index", path] for path in paths]
        ops = _unitary_mixture(mix_rng, n)
        write_channel(from_kraus(ops, dim_in=n, dim_out=n), mix,
                      kraus=ops if mix_rng.integers(2) else None)
        runs += [["verify", mix], ["index", mix]]
        failures += [(i, argv, bad) for argv in runs if (bad := _failure(capsys, argv))]
    assert failures == []


# (m, n) with mn >= 2, the sizes with Kraus ranks 1..mn-1
DEFICIENT_DIMS = [(m, n) for m in range(1, 4) for n in range(1, 4) if m * n >= 2]


def _gaussian(rng, rank, m, n):
    return rng.normal(size=(rank, n, m)) + 1j * rng.normal(size=(rank, n, m))


def _overlap_pairs(rng, paths, count=24):
    """Write pairs F, G whose ranges meet beyond 0 to paths, yielding G after
    each: F of Kraus rank r_F in 1..mn-1; G of k in 1..r_F complex combinations
    of F's Kraus operators and a generic part of rank 0..mn-r_F-1, so rank-
    deficient with a nonzero ac part; log10 scales independent on [-12, 12],
    each in choi or kraus form."""
    for _ in range(count):
        m, n = DEFICIENT_DIMS[rng.integers(len(DEFICIENT_DIMS))]
        f_ops = _gaussian(rng, int(rng.integers(1, m * n)), m, n)
        mix = _gaussian(rng, int(rng.integers(1, len(f_ops) + 1)), len(f_ops), 1)[:, 0]
        g_ops = np.concatenate([np.tensordot(mix, f_ops, axes=1),
                                _gaussian(rng, int(rng.integers(0, m * n - len(f_ops))), m, n)])
        for path, ops in zip(paths, (f_ops, g_ops)):
            ops = list(np.sqrt(10.0 ** rng.uniform(-12.0, 12.0)) * ops)
            chan = from_kraus(ops, dim_in=m, dim_out=n)
            write_channel(chan, path, kraus=ops if rng.integers(2) else None)
        yield chan


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_every_command_passes_on_range_overlap_pairs(tmp_path, capsys, seed):
    # a generic pair with r_F + r_G <= mn has ranges meeting only in 0: here
    # G is rank-deficient and its ac part relative to F is not zero
    paths = [str(tmp_path / "f.json"), str(tmp_path / "g.json")]
    failures, plain = [], []
    for i, g in enumerate(_overlap_pairs(np.random.default_rng([seed, 5]), paths)):
        runs = [["mean", "--kind", kind, *paths] for kind in KINDS] + [["order", *paths]]
        failures += [(i, argv, bad) for argv in runs if (bad := _failure(capsys, argv))]
        code = main(["--format", "json", "lebesgue", *paths])
        rep = json.loads(capsys.readouterr().out)
        ac = np.abs(np.array(rep["outputs"]["ac_choi"])).max()
        if code or not rep["passed"]:
            failures.append((i, "lebesgue", [c["name"] for c in rep["checks"] if not c["passed"]]))
        scale = np.abs(g.choi.entries).max()
        if not (np.linalg.matrix_rank(g.choi.entries) < g.choi.dim and ac > 1e-6 * scale):
            plain.append(i)
    assert failures == [] and plain == []


def test_a_zero_operand_gives_exact_zeros(tmp_path, capsys):
    # seed 13, draw 77: F is a full-rank 1 -> 2 map and G = 0, on which the
    # rounding of A' = I once left a log mean of 2.6% of max |C_F|
    paths = [str(tmp_path / "f.json"), str(tmp_path / "zero.json")]
    for i, m, n in _generic_pairs(np.random.default_rng(13), paths):
        if i == 77:
            break
    assert (m, n) == (1, 2)
    for argv in (paths, paths[::-1]):
        assert main(["--format", "json", "mean", "--kind", "log", *argv]) == 0
        assert not np.any(json.loads(capsys.readouterr().out)["outputs"]["choi"])
    assert _failure(capsys, ["lebesgue", *paths]) is None


def test_the_first_seed_builds_only_hermitian_arrays_without_the_test(tmp_path, capsys,
                                                                       exact_guard):
    """Seed 0 of both sweeps with ``HermitianMatrix._exact`` guarded: every
    array it takes is Hermitian bit for bit (``conftest.exact_guard``)."""
    test_lebesgue_passes_on_generic_document_pairs(tmp_path, capsys, 0)
    test_every_command_passes_on_generic_document_pairs(tmp_path, capsys, 0)
    assert exact_guard
