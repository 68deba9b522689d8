"""``tools/digest.py``, the bit-identity check of a change: the same digests
on two runs, a digest that tells results apart bit for bit, and the numeric
comparison of two trees that ``--against`` prints."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

import numpy as np

from cpmean.errors import DomainError
from cpmean.hermlinalg import Verdict

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "digest.py"
GROUPS = ["lib-means", "lib-connections", "lib-lebesgue", "lib-lebesgue is_abs_continuous",
          "generic", "example", "admission", "construction"]


def _load():
    spec = importlib.util.spec_from_file_location("digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_cases_per_group_give_the_same_digests_twice(tmp_path):
    cmd = [sys.executable, str(TOOL), "--seeds", "7", "--cases", "2"]
    out = [subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=tmp_path).stdout
           for _ in range(2)]
    lines = [line.split("  ", 1) for line in out[0].splitlines()]
    assert [name for _, name in lines] == GROUPS
    assert all(len(digest) == 64 for digest, _ in lines)
    assert out[0] == out[1]
    assert list(tmp_path.iterdir()) == []  # every command ran in a directory of its own


def test_a_digest_tells_bits_dtypes_shapes_and_errors_apart():
    digest = _load().Digest

    def of(*xs):
        d = digest()
        for x in xs:
            d.add(x)
        return d.hexdigest()

    zero = np.zeros((2, 2), dtype=complex)
    assert of(zero) == of(zero.copy())
    assert len({of(zero), of(-zero), of(zero.real), of(zero.reshape(4)), of(zero, zero),
                of(DomainError("x")), of(DomainError("y")), of(b"x"), of(0.0), of(-0.0)}) == 10


def test_the_admission_group_tells_seeds_apart_and_repeats():
    admission = _load().admission
    one, again, other = (admission(seeds, 2).hexdigest() for seeds in ([7], [7], [8]))
    assert one == again != other


def test_the_construction_group_tells_seeds_apart_and_repeats():
    construction = _load().construction
    one, again, other = (construction(seeds, 2).hexdigest() for seeds in ([7], [7], [8]))
    assert one == again != other


def _against(tmp_path, src, other) -> dict[str, tuple[float, int, int]]:
    cmd = [sys.executable, str(TOOL), "--src", str(src), "--against", str(other),
           "--seeds", "7", "--cases", "1"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True, cwd=tmp_path).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    return {" ".join(row[3:]): (float(row[0]), int(row[1]), int(row[2])) for row in rows}


def test_against_reads_zero_on_one_tree_and_sees_a_planted_perturbation(tmp_path):
    src = TOOL.parent.parent / "src"
    assert _against(tmp_path, src, src) == {name: (0.0, 0, 0) for name in GROUPS}
    # a parallel sum 2^-30 too large: harm and parallel move, admission does not.
    # A harm or parallel -o document moves by 2^-30 of its largest entry; a library
    # mean by 2^-30 of its own entries, on its operands' largest entry, which the
    # one case's scale ratio makes far larger
    planted = tmp_path / "planted"
    shutil.copytree(src, planted, ignore=shutil.ignore_patterns("__pycache__"))
    opmeans = planted / "cpmean" / "opmeans.py"
    text = opmeans.read_text(encoding="utf-8")
    assert text.count("    return u * v / (u + v)  #") == 1
    opmeans.write_text(text.replace("    return u * v / (u + v)  #",
                                    "    return u * v / (u + v) * (1.0 + 2.0 ** -30)  #"),
                       encoding="utf-8")
    moved = _against(tmp_path, planted, src)
    assert set(moved) == set(GROUPS)
    assert 2.0 ** -32 < moved["generic"][0] < 2.0 ** -28
    assert 0.0 < moved["lib-means"][0] < 2.0 ** -28 and moved["admission"] == (0.0, 0, 0)


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
