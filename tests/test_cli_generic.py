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
