"""Codec cost rows and pinned eigendecomposition counts of cpmean and the end-to-end
medians of cli-docs, as one JSON object.

    python3 tools/bench.py [--quick] > BENCH_<n>.json
    python3 tools/bench.py --against OTHER_ROOT > BENCH_<n>.json

Rows: for a Choi d x d document, d in 16, 64 and 144 (4 alone with ``--quick``),
of a complex and of a real Hermitian PSD matrix, the min-of-k wall time of
``save_channel`` and of ``read_doc`` with the document memo emptied before
each read, so that every read decodes and admits: of the choi document
(``read_doc_ms``), of the Kraus document of its ``kraus_decompose``, d
operators in the layout ``json.dumps`` writes (``read_kraus_ms``), and of the
choi document written with ``indent=1`` (``read_indent_ms``), a layout that
``read_doc`` parses as nested lists; k is 15 a round, and the least of 3
rounds is kept (one round of k = 3 with ``--quick``).  The rows run in a child
process that imports ``cpmean`` from the tree's ``src`` with OpenBLAS, OpenMP
and MKL pinned to one thread, as ``perfbench/run.py`` pins them; the object
records that setting, the BLAS numpy reports and the line count of each
``src/cpmean/*.py``.

Counts: ``pin_counts`` holds the (eigh, eigvalsh[, svd]) count of every row of
``PINS`` in ``tests/test_eigh_pins.py`` on its Choi 16 pair, taken with that
file's operation table and counter in a child process on this checkout's
``src``, so it must read as ``PINS`` does; counts only, no timings.

With ``--against``, the rows are taken on this checkout and OTHER_ROOT in
turn, and 10 pairs of ``perfbench/run.py --workload cli-docs --trace 0 --seed s
--seconds 5`` runs take OTHER_ROOT and this checkout, each pair with its own
seed and the first side alternating from pair to pair; the object holds each
metric's median and quartiles per side and, for ``ops_per_s``, how many pairs
this checkout won.

The object is printed on stdout.  Nothing is written but the scratch
directories that perfbench makes and removes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

ROOT = pathlib.Path(__file__).resolve().parent.parent
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PAIRS, ROUNDS, SECONDS = 10, 3, 5
METRICS = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "correct_share", "setup_s",
           "peak_rss_mb")


def _min_ms(fn, k: int) -> float:
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 4)


def codec_rows(sizes: list[int], k: int) -> dict:
    """The rows of the tree on ``sys.path``, with what they ran on."""
    import numpy as np

    from cpmean import channeldoc, from_choi, hermlinalg, kraus_decompose

    def memo_free_read(path):
        with hermlinalg._RUN.lock:
            hermlinalg._RUN.docs.clear()
        channeldoc.read_doc(path)

    rng = np.random.default_rng(52)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for d in sizes:
            m = int(round(d ** 0.5))
            for kind in ("complex", "real"):
                x = rng.standard_normal((d, d))
                if kind == "complex":
                    x = x + 1j * rng.standard_normal((d, d))
                f = from_choi(m, m, x @ x.conj().T / d)
                path, kraus, indent = (os.path.join(tmp, f"{kind}{d}{form}.json")
                                       for form in ("", "k", "i"))
                save_ms = _min_ms(lambda: channeldoc.save_channel(f, path, name="f"), k)
                ops = [np.ascontiguousarray(op).view(np.float64).reshape(m, m, 2).tolist()
                       for op in kraus_decompose(f)]
                _write(kraus, {"dim_in": m, "dim_out": m, "repr": "kraus", "data": ops})
                with open(path, encoding="utf-8") as fh:
                    _write(indent, json.load(fh), indent=1)
                rows.append({"choi": d, "kind": kind, "bytes": os.path.getsize(path),
                             "save_channel_ms": save_ms,
                             "read_doc_ms": _min_ms(lambda: memo_free_read(path), k),
                             "kraus_bytes": os.path.getsize(kraus),
                             "read_kraus_ms": _min_ms(lambda: memo_free_read(kraus), k),
                             "indent_bytes": os.path.getsize(indent),
                             "read_indent_ms": _min_ms(lambda: memo_free_read(indent), k)})
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # numpy before 1.25 has no dict form of its build report
        blas = "unknown"
    return {"rows": rows, "min_of": k, "numpy": np.__version__, "blas": blas,
            "threads": {v: os.environ.get(v) for v in THREADS}}


def _write(path: str, doc: dict, indent: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=indent) + "\n")


def pin_counts() -> dict:
    """The count of every ``PINS`` row on the pins' pair, by the pins' own table and
    counter, with ``src`` and ``tests`` of the tree on ``sys.path``."""
    import pytest
    import test_eigh_pins

    counts, sink = {}, io.StringIO()  # the CLI rows' reports
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sink), redirect_stderr(sink):
        pair = test_eigh_pins.make_pair(tmp)
        for name, _ in test_eigh_pins.PINS:
            with pytest.MonkeyPatch.context() as monkeypatch:
                counts[name] = test_eigh_pins.pin_count(name, pair, monkeypatch)
    return counts


def rows_of(src: str, quick: bool) -> dict:
    """``codec_rows`` of the tree src, in a child process with one BLAS thread."""
    env = {**os.environ, **{v: "1" for v in THREADS}, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, __file__, "--rows", src] + (["--quick"] if quick else [])
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def alternated_rows(srcs: list[str], quick: bool) -> list[dict]:
    """``rows_of`` each tree of srcs, the trees taking turns for ROUNDS rounds (one with
    quick), each time the least over the rounds: a host whose speed drifts for seconds
    then slows no tree alone."""
    rounds = 1 if quick else ROUNDS
    runs = [[rows_of(src, quick) for src in srcs] for _ in range(rounds)]
    for t, kept in enumerate(runs[0]):
        for i, row in enumerate(kept["rows"]):
            for key in ("save_channel_ms", "read_doc_ms", "read_kraus_ms", "read_indent_ms"):
                row[key] = min(run[t]["rows"][i][key] for run in runs)
        kept["rounds"] = rounds
    return runs[0]


def source_lines(src: str) -> dict:
    """``wc -l`` of each ``cpmean/*.py`` under src, and their total."""
    lines = {}
    for path in sorted(pathlib.Path(src, "cpmean").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines[path.name] = sum(1 for _ in fh)
    return {**lines, "total": sum(lines.values())}


def perfbench_run(root: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", "cli-docs",
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    return {name: result["metrics"][name]["value"] for name in METRICS}


def summary(runs: list[dict]) -> dict:
    return {name: {"median": statistics.median(r[name] for r in runs),
                   "quartiles": statistics.quantiles([r[name] for r in runs], n=4)}
            for name in METRICS}


def cli_docs_pairs(other: str) -> dict:
    """PAIRS pairs of (other, this) cli-docs runs on seeds 1..PAIRS, other first in odd
    pairs and this first in even ones, and their summaries."""
    before, after = [], []
    for seed in range(1, PAIRS + 1):
        for root, runs in ((other, before), (str(ROOT), after))[::1 if seed % 2 else -1]:
            runs.append(perfbench_run(root, seed))
    wins = sum(a["ops_per_s"] > b["ops_per_s"] for a, b in zip(after, before))
    return {"seeds": list(range(1, PAIRS + 1)), "seconds": SECONDS,
            "against": summary(before), "this": summary(after),
            "ops_per_s_pairs_won": f"{wins}/{PAIRS}", "runs": {"against": before, "this": after}}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true", help="Choi 4 alone, min of 3, no runs")
    mode.add_argument("--against", help="another checkout: its rows and alternated cli-docs runs")
    p.add_argument("--rows", metavar="SRC", help=argparse.SUPPRESS)  # the child: rows of SRC
    p.add_argument("--counts", action="store_true", help=argparse.SUPPRESS)  # the child: counts
    args = p.parse_args()
    if args.rows:
        sys.path.insert(0, os.path.abspath(args.rows))
        print(json.dumps(codec_rows([4] if args.quick else [16, 64, 144], 3 if args.quick else 15)))
        return 0
    if args.counts:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        print(json.dumps(pin_counts()))
        return 0
    srcs = [str(ROOT / "src")] + ([os.path.join(args.against, "src")] if args.against else [])
    rows = alternated_rows(srcs, args.quick)
    counts = subprocess.run([sys.executable, __file__, "--counts"], check=True,
                            capture_output=True, text=True).stdout
    result = {"codec": rows[0], "pin_counts": json.loads(counts),
              "src_lines": source_lines(srcs[0])}
    if args.against:
        result["codec_against"], result["src_lines_against"] = rows[1], source_lines(srcs[1])
        result["cli_docs"] = cli_docs_pairs(args.against)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
