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
    # a parallel sum 2^-30 too large: harm and parallel move, admission does not
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
    assert 2.0 ** -32 < moved["lib-means"][0] < 2.0 ** -28
    assert moved["generic"][0] > 0.0 and moved["admission"] == (0.0, 0, 0)
