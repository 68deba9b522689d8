"""``tools/digest.py``, the bit-identity check of a change: the same digests
on two runs, and a digest that tells results apart bit for bit."""

import importlib.util
import pathlib
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
