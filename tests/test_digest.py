"""``tools/digest.py``, the check that a change keeps cpmean's results: a key
that tells results apart bit for bit, the scale a move is read on, and the
comparison of two checkouts that ``--against`` prints: zero on one tree, and a
planted move or a reworded error seen in its columns."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

import numpy as np

from cpmean.errors import DomainError
from cpmean.hermlinalg import Verdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "digest.py"
GROUPS = ["lib-means", "lib-connections", "lib-lebesgue", "lib-lebesgue is_abs_continuous",
          "generic", "example", "admission", "construction"]


def _load():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_key_tells_bits_dtypes_shapes_and_errors_apart():
    key = _load().key
    zero = np.zeros((2, 2), dtype=complex)
    assert key(zero) == key(zero.copy())
    assert len({key(zero), key(-zero), key(zero.real), key(zero.reshape(4)), key((zero, zero)),
                key(DomainError("x")), key(DomainError("y")), key(b"x"), key(0.0),
                key(-0.0)}) == 10
    assert key(Verdict(0.0, 1e-9)) != key(Verdict(-0.0, 1e-9))


def test_the_admission_group_tells_seeds_apart_and_repeats():
    digest = _load()
    one, again, other = ([digest.key(x) for _, x, _ in digest.admission(seeds, 2)]
                         for seeds in ([7], [7], [8]))
    assert one == again != other


def test_the_construction_group_tells_seeds_apart_and_repeats():
    digest = _load()
    one, again, other = ([digest.key(x) for _, x, _ in digest.construction(seeds, 2)]
                         for seeds in ([7], [7], [8]))
    assert one == again != other


def _against(tmp_path, other, seed=7) -> dict[str, tuple[float, int, int, int]]:
    """The rows of ``--against other`` on the first case of seed: (moved, kind,
    shape, bits) by group, in the order printed."""
    cmd = [sys.executable, str(TOOL), "--against", str(other), "--seeds", str(seed),
           "--cases", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=tmp_path).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    return {" ".join(row[4:]): (float(row[0]), *map(int, row[1:4])) for row in rows}


def _planted(tmp_path, module, old, new) -> pathlib.Path:
    """A checkout root whose src is this one's with old, once in module, made new."""
    planted = tmp_path / "planted"
    shutil.copytree(ROOT / "src", planted / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = planted / "src" / "cpmean" / module
    text = path.read_text(encoding="utf-8")
    assert text.count(old) == 1
    path.write_text(text.replace(old, new), encoding="utf-8")
    return planted


def test_against_reads_zero_on_one_tree_and_sees_a_planted_perturbation(tmp_path):
    assert _against(tmp_path, ROOT) == {name: (0.0, 0, 0, 0) for name in GROUPS}
    assert list(tmp_path.iterdir()) == []  # every command ran in a directory of its own
    # a parallel sum 2^-30 too large: harm and parallel move, admission does not.
    # A harm or parallel -o document moves by 2^-30 of its largest entry, and so
    # does a library mean, read on its own largest entry, though the one case's
    # scale ratio puts that far below its operands'; both change bits
    planted = _planted(tmp_path, "opmeans.py", "    return u * v / (u + v)  #",
                       "    return u * v / (u + v) * (1.0 + 2.0 ** -30)  #")
    moved = _against(tmp_path, planted)
    assert list(moved) == GROUPS
    assert 2.0 ** -32 < moved["generic"][0] < 2.0 ** -28
    assert 1e-10 <= moved["lib-means"][0] < 2.0 ** -28
    assert moved["generic"][3] > 0 and moved["lib-means"][3] > 0
    assert moved["admission"] == (0.0, 0, 0, 0)


def test_bits_count_a_reworded_error_that_no_number_shows(tmp_path):
    # the indefinite matrices of the admission group's first case of seed 8 raise
    # this error: no number moves and no result changes kind or shape, yet each
    # such error's bytes do
    planted = _planted(tmp_path, "hermlinalg.py", "matrix is not PSD within tolerance",
                       "matrix is not PSD to within tolerance")
    moved, kind, shape, bits = _against(tmp_path, planted, seed=8)["admission"]
    assert (moved, kind, shape) == (0.0, 0, 0) and bits >= 1


def test_a_move_is_read_on_its_scale():
    """A matrix on the scale given (its operands' largest entry), a check's numbers
    on its tolerance, in a verdict and in a JSON or text report, a report's matrix
    entries on their largest and its other numbers each on itself."""
    measure = _load().measure
    got, scale = measure(np.array([[1.0, 2e-12j], [-2e-12j, 0.0]]), 8.0)
    assert got.tolist() == [1.0, 0.0, 0.0, 2e-12, 0.0, -2e-12, 0.0, 0.0]
    assert scale.tolist() == [8.0] * 8
    assert measure(np.array([0.5, -4.0]))[1].tolist() == [4.0, 4.0]
    assert [x.tolist() for x in measure(Verdict(1e-15, 1e-9))] == [[1e-15, 1e-9], [1e-9, 1e-9]]
    report = ('{"outputs": {"alpha_min": 0.25, "choi": [[[3.0, 0.0]], [[-6.0, 0.5]]]}, '
              '"checks": [{"name": "c", "passed": true, "residual": 1e-16, "tolerance": 1e-08}], '
              '"passed": true}')
    got, scale = measure(report)
    assert got.tolist() == [0.25, 3.0, 0.0, -6.0, 0.5, 1.0, 1e-16, 1e-08, 1.0]
    assert scale.tolist() == [0.25, 6.0, 6.0, 6.0, 6.0, 1e-08, 1e-08, 1e-08, 1.0]
    got, scale = measure("[ok ] d=4: x = 2: residual 3.331e-16 (tol 1.000e-08)\n")
    assert got.tolist() == [4.0, 2.0, 3.331e-16, 1e-08]
    assert scale.tolist() == [4.0, 4.0, 1e-08, 1e-08]
    assert measure(DomainError("x")) == (None, None)
