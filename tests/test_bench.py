"""``tools/bench.py --quick``: its codec rows, pinned counts and line counts,
written nowhere."""

import json
import pathlib
import subprocess
import sys

import pytest

from test_eigh_pins import PINS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TIMES = ("save_channel_ms", "read_doc_ms", "read_kraus_ms", "read_indent_ms")


@pytest.fixture(scope="module")
def quick():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--quick"],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_quick_rows_name_each_kind_at_choi_4(quick):
    result = quick
    rows = result["codec"]["rows"]
    assert [(r["choi"], r["kind"]) for r in rows] == [(4, "complex"), (4, "real")]
    assert all(r[key] > 0.0 for r in rows for key in TIMES)
    # the choi document, its Kraus document (4 operators of 2 x 2) and its indent=1 copy
    assert all(r["bytes"] < r["indent_bytes"] and r["kraus_bytes"] > 0 for r in rows)
    assert result["codec"]["threads"] == {v: "1" for v in
                                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    lines = result["src_lines"]
    files = sorted((ROOT / "src" / "cpmean").glob("*.py"))
    assert sorted(lines) == sorted([p.name for p in files] + ["total"])
    assert lines["total"] == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)
    assert "cli_docs" not in result


def test_the_printed_counts_are_the_pins(quick):
    """Every ``PINS`` row, counted by the pins' own table and counter, reads as pinned."""
    assert quick["pin_counts"] == {name: list(counts) for name, counts in PINS}


def test_quick_and_against_are_refused_together():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--quick",
                          "--against", str(ROOT)], capture_output=True, text=True)
    assert run.returncode == 2 and "not allowed with" in run.stderr and not run.stdout
