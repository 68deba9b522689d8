"""``HermitianMatrix._exact`` takes sums, real scalings, differences, blocks,
permuted tensor products and transposes of admitted matrices with no Hermitian
test, on the ground that each is Hermitian bit for bit by construction.  Here
that ground is checked as the library runs: ``conftest.exact_guard`` asserts
``m == m*`` on every array ``_exact`` receives, over the first cases of the
three library workloads of ``perfbench/workloads.py``, ``cpmean example
--all`` and the map arithmetic that builds by ``_exact``, and fails on a
planted non-Hermitian array.  Seed 0 of the generic CLI sweep runs under the
same guard in ``test_cli_generic.py``.
"""

import pathlib
import sys

import numpy as np
import pytest

from cpmean.cli import main
from cpmean.cpmaps import depolarizing, functional, schur, tensor
from cpmean.hermlinalg import HermitianMatrix, PsdMatrix

from conftest import gaussian_cp, random_density, random_psd

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    import workloads

    return workloads


# the first cases of each workload; lib-connections has one pair per rank of
# G, and only the full-rank one reaches _exact, so all 16 run
@pytest.mark.parametrize("name, first", [("lib-means", 2), ("lib-connections", 16),
                                         ("lib-lebesgue", 8)])
def test_the_first_cases_of_each_library_workload(exact_guard, name, first):
    workload = _workloads().WORKLOADS[name]
    for case in workload.make_cases(np.random.default_rng(1), ".")[:first]:
        workload.run(case)  # a cpmean error is an outcome; the guard's is not
    assert exact_guard


def test_every_example(exact_guard, capsys):
    assert main(["example", "--all"]) == 0
    capsys.readouterr()
    assert exact_guard


@pytest.mark.parametrize("build", [
    lambda f, g, rng: f + g,
    lambda f, g, rng: 2.5 * f,
    lambda f, g, rng: tensor(f, g),
    lambda f, g, rng: schur(random_psd(rng, 3)),
    lambda f, g, rng: functional(random_density(rng, 3)),
    lambda f, g, rng: depolarizing(3),
], ids=["+", "*", "tensor", "schur", "functional", "depolarizing"])
def test_each_map_built_by_exact(exact_guard, rng, build):
    f, g = gaussian_cp(rng, 2, 3, 1e3), gaussian_cp(rng, 2, 3, 1e-3)
    del exact_guard[:]
    build(f, g, rng)
    assert len(exact_guard) == 1


@pytest.mark.parametrize("x", [[[1.0, 2.0], [0.0, 1.0]],
                               [[1.0, 1j, 0.0], [-1j, 1.0, 2.0], [0.0, 2.5, 1.0]]],
                         ids=["row 0", "inner entry"])
def test_the_guard_fails_on_a_planted_non_hermitian_array(exact_guard, x):
    for cls in (HermitianMatrix, PsdMatrix):
        with pytest.raises(AssertionError, match="non-Hermitian"):
            cls._exact(np.array(x, dtype=complex))
    assert exact_guard == []
