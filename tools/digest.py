"""How far cpmean's results moved between two checkouts, and how many changed bits.

    python3 tools/digest.py --against OTHER_ROOT [--seeds 7 8] [--cases N]

Every group runs on this checkout's ``src`` and on ``OTHER_ROOT/src``, each
tree in a subprocess of its own with one BLAS thread, on the cases this
checkout draws.  For each group it prints four columns:

- ``moved``: the largest difference of a number over its scale in
  ``OTHER_ROOT``, so that a rounding move reads as rounding;
- ``kind``: how many results changed kind (a value against an error);
- ``shape``: how many changed shape (a different count of numbers);
- ``bits``: how many changed their exact bytes: an array's dtype, shape and
  bytes; a report's or document's bytes and its exit code; an error's type
  and message; a verdict's two numbers.  It counts what ``moved`` cannot
  see: a signed zero, a reworded error, a renamed check.

``0 0 0 0`` on a group says its results are the same bit for bit.  A library
matrix's scale is its own largest entry, floored in the ``lib-*`` groups at
eps times its operands' largest, so that a result far below its operands
shows its relative move and a zero result one on its operands; a check's
residual and bound (a verdict, or each number of a report's check) are on
that check's tolerance; a JSON report's or document's matrix entries are on
their largest, its other numbers each on itself; a text's other numbers on
their largest.  Groups:

- ``lib-means``, ``lib-connections``, ``lib-lebesgue``: every library result
  on the seeded cases of the benchmark workloads of ``perfbench/workloads.py``,
  with the operands in both orders: the workload's means, the parallel mean
  and custom reps that weigh a factored pair's complement (lib-means); the
  power connection and its transpose, adjoint and dual (lib-connections);
  ``decompose``, ``is_singular`` and the limit oracle (lib-lebesgue);
- ``lib-lebesgue is_abs_continuous``: that residual alone, the trace of a Gram
  form of the pair's parts, whose order of summation a change may move;
- ``generic``: every report and ``-o`` document of a sweep of every command
  over the generic document pairs of ``tests/conftest.py``'s ``generic_pairs``;
- ``example``: ``cpmean example --all`` in text and JSON;
- ``admission``: what the public constructors ``HermitianMatrix`` and ``PsdMatrix``,
  ``from_choi``, ``CpMap``, ``as_psd``, ``is_psd``, ``schur`` and ``functional``
  admit, or the error they raise, on seeded matrices of four kinds: exactly
  Hermitian, Hermitian only within ``TOL_HERM``, rank-deficient, and
  ``HermitianMatrix`` inputs, with and without a cached eig; 8 cases per seed;
- ``construction``: the map arithmetic that ``HermitianMatrix._exact`` builds with
  no Hermitian test, on seeded pairs of maps: ``CpMap +``, scalar ``*``,
  ``tensor``, the ``order_cp`` verdicts and the ``geo_certificate`` residuals of
  the geometric mean and of the sum; 8 cases per seed.

Every command runs in a scratch directory with relative paths, so a report's
paths do not depend on where it ran.  ``--cases N`` keeps the first N cases
of each workload, sweep seed and example format.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("geo", "harm", "arith", "parallel", "log", "power:0.3")
ATOMS = ((0.3, 1.5), (7.0, 0.25))
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
EPS = float(np.finfo(np.float64).eps)


# a number as it is written in a report, a document or an example's text
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
# a check as a text report writes it
CHECK = re.compile(rb"residual (" + NUMBER.pattern + rb") \(tol (" + NUMBER.pattern + rb")\)")


def _leaves(tree, tol=None, entry=False) -> list[tuple[float, float | str | None]]:
    """(number, its scale) for each number (booleans as 0 and 1) of a decoded JSON
    document, in order: the tolerance of its check, "entry" in an array (a matrix
    entry), or None for a field of its own."""
    if isinstance(tree, dict):
        if "residual" in tree and "tolerance" in tree:  # a report's check
            tol = float(tree["tolerance"])
        return [v for t in tree.values() for v in _leaves(t, tol)]
    if isinstance(tree, list):
        return [v for t in tree for v in _leaves(t, tol, True)]
    if isinstance(tree, (int, float)):
        return [(float(tree), "entry" if tol is None and entry else tol)]
    return []


def _largest(x) -> float:
    x = np.asarray(x, dtype=np.float64)
    return float(np.abs(x[np.isfinite(x)]).max(initial=0.0))


def measure(x, scale=None) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(numbers, scales) of a result as two float arrays, or (None, None) for an
    error.  A verdict's two numbers are on its bound.  A JSON report or document
    gives the numbers it holds (not those in its strings, such as an input's
    SHA-256): a check's on its tolerance, a matrix entry on the largest entry, any
    other on itself; any other text the numbers it writes, a check's on its
    tolerance and the others on their largest; an array or number is on scale, or
    without one on its largest."""
    if isinstance(x, BaseException):
        return None, None
    if hasattr(x, "bound"):  # a Verdict
        return np.array(x, dtype=np.float64), np.full(2, float(x.bound))
    if isinstance(x, (str, bytes)):
        try:
            pairs = _leaves(json.loads(x))
        except ValueError:
            text = x.encode() if isinstance(x, str) else x
            tols = {m.start(g): float(m.group(2)) for m in CHECK.finditer(text) for g in (1, 2)}
            pairs = [(float(m.group()), tols.get(m.start(), "entry"))
                     for m in NUMBER.finditer(text)]
        values = np.array([v for v, _ in pairs], dtype=np.float64)
        entry = _largest([v for v, on in pairs if on == "entry"])
        return values, np.array([entry if on == "entry" else abs(v) if on is None else on
                                 for v, on in pairs], dtype=np.float64)
    if isinstance(x, tuple):
        parts = [measure(y, scale) for y in x] or [(np.zeros(0), np.zeros(0))]
        return tuple(np.concatenate(p) for p in zip(*parts))
    x = np.asarray(x)
    x = np.ascontiguousarray(x).view(np.float64).reshape(-1) if x.dtype.kind == "c" \
        else x.astype(np.float64).reshape(-1)
    return x, np.full(x.size, _largest(x) if scale is None else scale)


def key(x) -> bytes:
    """The bytes a result is compared by, bit for bit: an array's dtype, shape and
    entries; a text's or document's bytes; an error's type and message; a verdict
    or a report (exit code, stdout, stderr) as its parts'; a number as its repr."""
    if hasattr(x, "bound"):  # a Verdict, as its two numbers
        x = tuple(x)
    if isinstance(x, BaseException):
        x = f"{type(x).__name__}: {x}"
    if isinstance(x, tuple):
        parts = [key(y) for y in x]
        return repr([len(p) for p in parts]).encode() + b"".join(parts)
    if isinstance(x, np.ndarray):
        return repr((x.dtype.str, x.shape)).encode() + np.ascontiguousarray(x).tobytes()
    if isinstance(x, str):
        return x.encode()
    return x if isinstance(x, bytes) else repr(x).encode()


def _call(name, call, errors=(), operands=()) -> list[tuple]:
    """(name, result, scale) of call(): its result, or the cpmean error, or one of
    errors, it raised; a map as its Choi entries and a LebesgueSplit as its four
    parts.  With operands, a matrix is on its own largest entry, but never below
    eps times the largest Choi entry of the maps in operands."""
    from cpmean.errors import CpMeanError

    scale = max((_largest(x.choi.entries.view(np.float64)) for x in operands), default=None)
    try:
        out = call()
    except (CpMeanError, *errors) as exc:
        out = exc
    parts = [(out.ac, scale), (out.sing, scale), (out.alpha_min, None), (out.recon, None)] \
        if hasattr(out, "alpha_min") else [(out, scale)]
    parts = [(x.choi.entries if hasattr(x, "choi") else getattr(x, "entries", x), on)
             for x, on in parts]
    return [(name, x, max(_largest(x.view(np.float64)), EPS * on)
             if on is not None and isinstance(x, np.ndarray) else on) for x, on in parts]


def _cases(name: str, seeds, limit):
    import workloads

    for seed in seeds:
        yield from workloads.WORKLOADS[name].make_cases(np.random.default_rng(seed), ".")[:limit]


def lib_means(seeds, limit):
    from cpmean import cpmaps, opmeans
    from cpmean.opmeans import MeanKind

    reps = [opmeans.ConnectionRep(0.2, 0.0, ATOMS), opmeans.ConnectionRep(0.0, 0.1, ATOMS),
            opmeans.adjoint_rep(opmeans.ConnectionRep(0.0, 0.0, ATOMS))]
    for c in _cases("lib-means", seeds, limit):
        kinds = [*c.kinds, MeanKind("parallel"), *map(MeanKind.custom, reps)]
        for f, g in ((c.f, c.g), (c.g, c.f)):
            for kind in kinds:
                yield from _call("lib-means", lambda: cpmaps.mean_cp(kind, f, g), operands=(f, g))


def lib_connections(seeds, limit):
    from cpmean import cpmaps, opmeans
    from cpmean.opmeans import MeanKind

    transforms = (lambda r: r, opmeans.transpose_rep, opmeans.adjoint_rep, opmeans.dual_rep)
    for c in _cases("lib-connections", seeds, limit):
        kinds = [MeanKind.custom(t(opmeans.power_rep(c.alpha))) for t in transforms]
        for f, g in ((c.f, c.g), (c.g, c.f)):
            for kind in kinds:
                yield from _call("lib-connections", lambda: cpmaps.mean_cp(kind, f, g),
                                 operands=(f, g))


def lib_lebesgue(seeds, limit):
    from cpmean import lebesgue

    name = "lib-lebesgue"
    for c in _cases(name, seeds, limit):
        for f, g in ((c.f, c.g), (c.g, c.f)):
            yield from _call(name, lambda: lebesgue.decompose(f, g), operands=(f, g))
            yield from _call(name, lambda: lebesgue.is_singular(f, g))
            yield from _call(name, lambda: lebesgue.ac_part_oracle(f, g), operands=(f, g))
            yield from _call(f"{name} is_abs_continuous",
                             lambda: lebesgue.is_abs_continuous(g, f))


def _command(name, argv, written=()):
    """Run ``cpmean *argv``: its exit code, stdout and stderr, then the bytes of
    each file in written, which is then removed."""
    from cpmean import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    yield name, (code, stdout.getvalue(), stderr.getvalue()), None
    for path in written:
        if os.path.exists(path):
            yield name, Path(path).read_bytes(), None
            os.remove(path)


def generic(seeds, limit):
    from conftest import generic_pairs

    for seed in seeds:
        for _, m, n in generic_pairs(seed, ("a.json", "b.json"), "mix.json",
                                     300 if limit is None else limit):
            runs = [(["lebesgue", "a.json", "b.json", "-o", "split"],
                     ["split.ac.json", "split.sing.json"]), (["order", "a.json", "b.json"], [])]
            runs += [(["mean", "--kind", k, "a.json", "b.json", "-o", "m.json"], ["m.json"])
                     for k in KINDS]
            runs += [(["index", p], []) for p in ("a.json", "b.json") if m == n]
            runs += [(["verify", "mix.json"], []), (["index", "mix.json"], [])]
            for argv, written in runs:
                yield from _command("generic", ["--format", "json", *argv], written)


def _admission_inputs(rng):
    """(dim_in, dim_out, matrix) of each kind, at a random scale and Choi size."""
    from cpmean.hermlinalg import HermitianMatrix

    m, n = (int(x) for x in rng.integers(1, 4, size=2))
    d, scale = m * n, 10.0 ** rng.uniform(-12.0, 12.0)

    def gaussian(cols):
        return scale * (rng.normal(size=(d, cols)) + 1j * rng.normal(size=(d, cols)))

    a, b, c = gaussian(d), gaussian(d), gaussian(int(rng.integers(0, d)))
    exact = a + a.conj().T
    w = np.linalg.eigvalsh(exact)  # shifted to be PSD or not
    exact -= (w[0] + rng.uniform(-0.25, 0.25) * (w[-1] - w[0])) * np.eye(d)
    gram = b @ b.conj().T  # Hermitian only to its rounding
    near = gram + 1e-12 * np.abs(gram).max() * (gaussian(d) / scale)
    thin = c @ c.conj().T
    thin = 0.5 * (thin + thin.conj().T)
    held, cached = HermitianMatrix._trusted(gram), HermitianMatrix._trusted(exact)
    cached.eig()
    return [(m, n, x) for x in (exact, near, thin, held, cached)]


def admission(seeds, limit):
    from cpmean import cpmaps, hermlinalg

    name = "admission"
    for seed in seeds:
        rng = np.random.default_rng([seed, 2])
        for _ in range(8 if limit is None else limit):
            for m, n, x in _admission_inputs(rng):
                yield from _call(name, lambda: cpmaps.from_choi(m, n, x))
                # a CpMap that does not admit its Choi matrix fails on an array's .dim
                yield from _call(name, lambda: cpmaps.CpMap(m, n, x), (AttributeError,))
                yield from _call(name, lambda: hermlinalg.HermitianMatrix(x))
                yield from _call(name, lambda: hermlinalg.PsdMatrix(x))
                yield from _call(name, lambda: hermlinalg.as_psd(x))
                yield from _call(name, lambda: hermlinalg.is_psd(x))
                yield from _call(name, lambda: cpmaps.schur(x))
                yield from _call(name, lambda: cpmaps.functional(x))


def construction(seeds, limit):
    from cpmean import cpmaps
    from cpmean.opmeans import GEO
    from conftest import gaussian_cp

    name = "construction"
    for seed in seeds:
        rng = np.random.default_rng([seed, 3])
        for _ in range(8 if limit is None else limit):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            f, g = (gaussian_cp(rng, m, n, 10.0 ** rng.uniform(-12.0, 12.0)) for _ in "fg")
            c = float(rng.uniform(0.0, 4.0) * 10.0 ** rng.uniform(-6.0, 6.0))
            yield from _call(name, lambda: f + g)
            yield from _call(name, lambda: c * f)
            yield from _call(name, lambda: cpmaps.tensor(f, g))
            yield from _call(name, lambda: cpmaps.order_cp(f, g))
            yield from _call(name, lambda: cpmaps.order_cp(f, f + g))
            for theta in (lambda: cpmaps.mean_cp(GEO, f, g), lambda: f + g):
                yield from _call(name, lambda: cpmaps.geo_certificate(f, g, theta()))


def example(limit):
    for argv in [["example", "--all"], ["--format", "json", "example", "--all"]][:limit]:
        yield from _command("example", argv)


def results(src, seeds, limit) -> int:
    """Write (group, exact bytes, numbers, scales) of every result of the cpmean of
    src to stdout as pickles, one per result, in order."""
    sys.path[:0] = [os.path.abspath(src), str(ROOT / "perfbench"), str(ROOT / "tests")]
    # a warning is printed once per place, so a report's stderr would depend
    # on what ran before it
    warnings.simplefilter("ignore")
    groups = [lib_means(seeds, limit), lib_connections(seeds, limit), lib_lebesgue(seeds, limit),
              generic(seeds, limit), example(limit), admission(seeds, limit),
              construction(seeds, limit)]
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for group in groups:
                for name, x, scale in group:
                    pickle.dump((name, key(x), *measure(x, scale)), sys.stdout.buffer)
        finally:
            os.chdir(cwd)
    return 0


def against(other, seeds, limit) -> int:
    """Run every group on this checkout and on other, each tree in a subprocess
    that streams its results, and print, per group, how far and how many of this
    checkout's results moved from other's."""
    flags = ["--seeds", *map(str, seeds), *(["--cases", str(limit)] if limit else [])]
    env = {**os.environ, **{v: "1" for v in THREADS}}  # two BLAS pools would contend
    runs = [subprocess.Popen([sys.executable, __file__, "--results", src, *flags],
                             stdout=subprocess.PIPE, env=env)
            for src in (str(ROOT / "src"), os.path.join(other, "src"))]
    rows = {}  # group -> [largest difference over scale, changed kind, shape, bits]
    while True:
        got = []
        for run in runs:
            try:
                got.append(pickle.load(run.stdout))
            except EOFError:
                got.append(None)
        if got == [None, None]:
            break
        if None in got or got[0][0] != got[1][0]:
            raise SystemExit("error: the two trees ran different sequences of results")
        (name, k, x, _), (_, other_k, y, scale) = got
        row = rows.setdefault(name, [0.0, 0, 0, 0])
        row[3] += k != other_k
        if (x is None) != (y is None):
            row[1] += 1
        elif x is not None and x.shape != y.shape:
            row[2] += 1
        elif x is not None and x.size:
            same = (x == y) | (np.isnan(x) & np.isnan(y))
            with np.errstate(invalid="ignore", over="ignore"):  # inf - inf, where unequal
                diff = np.where(same, 0.0, np.abs(x - y))
            row[0] = max(row[0], np.where(scale > 0.0, diff / np.where(scale > 0.0, scale, 1.0),
                                          diff).max())
    if any(run.wait() for run in runs):
        raise SystemExit("error: a tree's run failed")
    print(f"{'moved':>10}  {'kind':>4}  {'shape':>5}  {'bits':>5}  group")
    for name, (rel, kind, shape, bits) in rows.items():
        print(f"{rel:10.3e}  {kind:4d}  {shape:5d}  {bits:5d}  {name}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--against", metavar="OTHER_ROOT", help="the checkout to compare this one with")
    p.add_argument("--results", metavar="SRC", help=argparse.SUPPRESS)  # the child: SRC's results
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    p.add_argument("--cases", type=int, default=None, help="first N cases of each group")
    args = p.parse_args(argv)
    if args.results:
        return results(args.results, args.seeds, args.cases)
    if not args.against or not os.path.isdir(os.path.join(args.against, "src", "cpmean")):
        p.error("--against OTHER_ROOT needs a checkout root, with src/cpmean in it")
    return against(args.against, args.seeds, args.cases)


if __name__ == "__main__":
    sys.exit(main())
