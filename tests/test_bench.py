"""``tools/bench.py --quick``: its codec rows and line counts, written nowhere."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_quick_rows_name_each_kind_at_choi_4():
    out = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--quick"],
                         check=True, capture_output=True, text=True).stdout
    result = json.loads(out)
    rows = result["codec"]["rows"]
    assert [(r["choi"], r["kind"]) for r in rows] == [(4, "complex"), (4, "real")]
    assert all(r["save_channel_ms"] > 0.0 and r["read_doc_ms"] > 0.0 for r in rows)
    assert result["codec"]["threads"] == {v: "1" for v in
                                          ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                           "MKL_NUM_THREADS")}
    lines = result["src_lines"]
    files = sorted((ROOT / "src" / "cpmean").glob("*.py"))
    assert sorted(lines) == sorted([p.name for p in files] + ["total"])
    assert lines["total"] == sum(len(p.read_text(encoding="utf-8").splitlines()) for p in files)
    assert "cli_docs" not in result


def test_quick_and_against_are_refused_together():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "bench.py"), "--quick",
                          "--against", str(ROOT)], capture_output=True, text=True)
    assert run.returncode == 2 and "not allowed with" in run.stderr and not run.stdout
