"""One SHA-256 per group of cpmean results, to show a change keeps them bit for bit.

    python3 tools/digest.py [--src DIR] [--seeds 7 8] [--cases N]
    python3 tools/digest.py [--src DIR] --against OTHER_SRC [--seeds 7 8] [--cases N]

Run it on the source trees before and after a change (``--src`` picks the
tree whose ``cpmean`` is imported) and compare the lines it prints.  With
``--against``, the groups run on both trees, each in its own subprocess, and
for each group it prints how far the results of ``--src`` moved from those of
``OTHER_SRC``: the largest difference of a number over its scale in
``OTHER_SRC``, so that a rounding move reads as rounding, and how many results
changed kind (a value against an error) or shape (a different count of
numbers).  A library matrix's scale is its operands' largest entry (its own in
the ``admission`` and ``construction`` groups); a check's residual and bound (a
verdict, or each number of a report's check) are on that check's tolerance; a
JSON report's or document's matrix entries are on their largest, its other
numbers each on itself; a text's other numbers on their largest.  Groups:

- ``lib-means``, ``lib-connections``, ``lib-lebesgue``: every library result
  on the seeded cases of the benchmark workloads of ``perfbench/workloads.py``,
  with the operands in both orders: the workload's means, the parallel mean
  and custom reps that weigh a factored pair's complement (lib-means); the
  power connection and its transpose, adjoint and dual (lib-connections);
  ``decompose``, ``is_singular`` and the limit oracle (lib-lebesgue);
- ``lib-lebesgue is_abs_continuous``: that residual alone, the trace of a Gram
  form of the pair's parts, whose order of summation a change may move;
- ``generic``: every report and ``-o`` document of a sweep of every command
  over generic document pairs (as ``tests/test_cli_generic.py`` draws them);
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

A result is hashed as the bytes of its entries, the repr of its floats, or the
type and message of the error it raised; a report as its bytes and exit code.
Every command runs in a scratch directory with relative paths, so a report's
paths do not depend on where it ran.  ``--cases N`` keeps the first N cases
of each workload, sweep seed and example format.
"""

from __future__ import annotations

import argparse
import hashlib
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


# a number as it is written in a report, a document or an example's text
NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
# a check as a text report writes it
CHECK = re.compile(rb"residual (" + NUMBER.pattern + rb") \(tol (" + NUMBER.pattern + rb")\)")
SINK = None  # with --dump, the stream each result is also written to, by group


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


class Digest:
    """A SHA-256 over a sequence of results, the group ``name``'s."""

    def __init__(self, name: str = ""):
        self.name, self.h = name, hashlib.sha256()

    def add(self, x, scale=None):
        """Hash x; with --dump, write its ``measure`` too, a matrix on scale if given."""
        if hasattr(x, "choi"):
            x = x.choi.entries
        elif hasattr(x, "entries"):
            x = x.entries
        if SINK is not None:
            pickle.dump((self.name, *measure(x, scale)), SINK)
        if hasattr(x, "bound"):  # a Verdict, hashed as its two numbers
            x = tuple(x)
        if isinstance(x, BaseException):
            x = f"{type(x).__name__}: {x}"
        if isinstance(x, np.ndarray):
            self.h.update(repr((x.dtype.str, x.shape)).encode())
            self.h.update(np.ascontiguousarray(x).tobytes())
        elif isinstance(x, bytes):
            self.h.update(repr(len(x)).encode() + x)
        else:
            self.h.update(repr(x).encode())

    def add_call(self, call, errors=(), operands=()):
        """The result of call(), or the cpmean error, or one of errors, it raised; a
        matrix it returns is on the largest Choi entry of the maps in operands."""
        from cpmean.errors import CpMeanError

        scale = max((_largest(x.choi.entries.view(np.float64)) for x in operands), default=None)
        try:
            out = call()
        except (CpMeanError, *errors) as exc:
            out = exc
        if hasattr(out, "alpha_min"):  # a LebesgueSplit
            for x, on in ((out.ac, scale), (out.sing, scale), (out.alpha_min, None),
                          (out.recon, None)):
                self.add(x, on)
        else:
            self.add(out, scale)

    def hexdigest(self) -> str:
        return self.h.hexdigest()


def _cases(name: str, seeds, limit):
    import workloads

    for seed in seeds:
        yield from workloads.WORKLOADS[name].make_cases(np.random.default_rng(seed), ".")[:limit]


def lib_means(seeds, limit) -> Digest:
    from cpmean import cpmaps, opmeans
    from cpmean.opmeans import MeanKind

    reps = [opmeans.ConnectionRep(0.2, 0.0, ATOMS), opmeans.ConnectionRep(0.0, 0.1, ATOMS),
            opmeans.adjoint_rep(opmeans.ConnectionRep(0.0, 0.0, ATOMS))]
    out = Digest("lib-means")
    for c in _cases("lib-means", seeds, limit):
        kinds = [*c.kinds, MeanKind("parallel"), *map(MeanKind.custom, reps)]
        for f, g in ((c.f, c.g), (c.g, c.f)):
            for kind in kinds:
                out.add_call(lambda: cpmaps.mean_cp(kind, f, g), operands=(f, g))
    return out


def lib_connections(seeds, limit) -> Digest:
    from cpmean import cpmaps, opmeans
    from cpmean.opmeans import MeanKind

    transforms = (lambda r: r, opmeans.transpose_rep, opmeans.adjoint_rep, opmeans.dual_rep)
    out = Digest("lib-connections")
    for c in _cases("lib-connections", seeds, limit):
        kinds = [MeanKind.custom(t(opmeans.power_rep(c.alpha))) for t in transforms]
        for f, g in ((c.f, c.g), (c.g, c.f)):
            for kind in kinds:
                out.add_call(lambda: cpmaps.mean_cp(kind, f, g), operands=(f, g))
    return out


def lib_lebesgue(seeds, limit) -> tuple[Digest, Digest]:
    from cpmean import lebesgue

    out, abs_cont = Digest("lib-lebesgue"), Digest("lib-lebesgue is_abs_continuous")
    for c in _cases("lib-lebesgue", seeds, limit):
        for f, g in ((c.f, c.g), (c.g, c.f)):
            out.add_call(lambda: lebesgue.decompose(f, g), operands=(f, g))
            out.add_call(lambda: lebesgue.is_singular(f, g))
            out.add_call(lambda: lebesgue.ac_part_oracle(f, g), operands=(f, g))
            abs_cont.add_call(lambda: lebesgue.is_abs_continuous(g, f))
    return out, abs_cont


def _command(out: Digest, argv, written=()):
    """Run ``cpmean *argv``; add its exit code, stdout, stderr and the bytes of
    each file in written, then remove those files."""
    from cpmean import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = cli.main(argv)
    out.add((code, stdout.getvalue(), stderr.getvalue()))
    for path in written:
        if os.path.exists(path):
            out.add(Path(path).read_bytes())
            os.remove(path)


def _write(chan, path, ops=None):
    """The choi document of chan, or with ops the kraus document of its
    operators; then a fresh run, so the next load decodes the file's bytes."""
    from cpmean import channeldoc, hermlinalg

    if ops is None:
        channeldoc.save_channel(chan, path)
    else:
        data = [np.ascontiguousarray(k).view(np.float64).reshape(*k.shape, 2).tolist()
                for k in ops]
        doc = {"dim_in": chan.dim_in, "dim_out": chan.dim_out, "repr": "kraus", "data": data}
        Path(path).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    hermlinalg._RUN = hermlinalg._Run()


def _kraus(rng, m, n, scale=1.0):
    """Complex Gaussian Kraus operators m -> n of rank uniform on 0..mn."""
    rank = int(rng.integers(0, m * n + 1))
    return list(np.sqrt(scale) * (rng.normal(size=(rank, n, m))
                                  + 1j * rng.normal(size=(rank, n, m))))


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def generic(seeds, limit) -> Digest:
    from cpmean.cpmaps import from_kraus

    out = Digest("generic")
    for seed in seeds:
        rng, mix_rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
        for _ in range(300 if limit is None else limit):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            for path in ("a.json", "b.json"):
                ops = _kraus(rng, m, n, 10.0 ** rng.uniform(-12.0, 12.0))
                _write(from_kraus(ops, dim_in=m, dim_out=n), path,
                       ops if rng.integers(2) else None)
            weights = mix_rng.dirichlet(np.ones(int(mix_rng.integers(1, 5))))
            ops = [np.sqrt(w) * _unitary(mix_rng, n) for w in weights]
            _write(from_kraus(ops, dim_in=n, dim_out=n), "mix.json",
                   ops if mix_rng.integers(2) else None)
            runs = [(["lebesgue", "a.json", "b.json", "-o", "split"],
                     ["split.ac.json", "split.sing.json"]), (["order", "a.json", "b.json"], [])]
            runs += [(["mean", "--kind", k, "a.json", "b.json", "-o", "m.json"], ["m.json"])
                     for k in KINDS]
            runs += [(["index", p], []) for p in ("a.json", "b.json") if m == n]
            runs += [(["verify", "mix.json"], []), (["index", "mix.json"], [])]
            for argv, written in runs:
                _command(out, ["--format", "json", *argv], written)
    return out


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


def admission(seeds, limit) -> Digest:
    from cpmean import cpmaps, hermlinalg

    out = Digest("admission")
    for seed in seeds:
        rng = np.random.default_rng([seed, 2])
        for _ in range(8 if limit is None else limit):
            for m, n, x in _admission_inputs(rng):
                out.add_call(lambda: cpmaps.from_choi(m, n, x))
                # a CpMap that does not admit its Choi matrix fails on an array's .dim
                out.add_call(lambda: cpmaps.CpMap(m, n, x), (AttributeError,))
                out.add_call(lambda: hermlinalg.HermitianMatrix(x))
                out.add_call(lambda: hermlinalg.PsdMatrix(x))
                out.add_call(lambda: hermlinalg.as_psd(x))
                out.add_call(lambda: hermlinalg.is_psd(x))
                out.add_call(lambda: cpmaps.schur(x))
                out.add_call(lambda: cpmaps.functional(x))
    return out


def construction(seeds, limit) -> Digest:
    from cpmean import cpmaps
    from cpmean.opmeans import GEO

    out = Digest("construction")
    for seed in seeds:
        rng = np.random.default_rng([seed, 3])
        for _ in range(8 if limit is None else limit):
            m, n = (int(x) for x in rng.integers(1, 4, size=2))
            f, g = (cpmaps.from_kraus(_kraus(rng, m, n, 10.0 ** rng.uniform(-12.0, 12.0)),
                                      dim_in=m, dim_out=n) for _ in "fg")
            c = float(rng.uniform(0.0, 4.0) * 10.0 ** rng.uniform(-6.0, 6.0))
            out.add_call(lambda: f + g)
            out.add_call(lambda: c * f)
            out.add_call(lambda: cpmaps.tensor(f, g))
            out.add_call(lambda: cpmaps.order_cp(f, g))
            out.add_call(lambda: cpmaps.order_cp(f, f + g))
            for theta in (lambda: cpmaps.mean_cp(GEO, f, g), lambda: f + g):
                out.add_call(lambda: cpmaps.geo_certificate(f, g, theta()))
    return out


def example(limit) -> Digest:
    out = Digest("example")
    for argv in [["example", "--all"], ["--format", "json", "example", "--all"]][:limit]:
        _command(out, argv)
    return out


def against(args) -> int:
    """Run every group on --src and on --against, each tree in a subprocess that
    streams its results, and print, per group, how far the first moved from the second."""
    flags = ["--seeds", *map(str, args.seeds), *(["--cases", str(args.cases)] if args.cases else [])]
    runs = [subprocess.Popen([sys.executable, __file__, "--src", src, "--dump", *flags],
                             stdout=subprocess.PIPE) for src in (args.src, args.against)]
    moved = {}  # group -> [largest difference over scale, changed kind, changed shape]
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
        (name, x, _), (_, y, scale) = got
        row = moved.setdefault(name, [0.0, 0, 0])
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
    print(f"{'moved':>10}  {'kind':>4}  {'shape':>5}  group")
    for name, (rel, kind, shape) in moved.items():
        print(f"{rel:10.3e}  {kind:4d}  {shape:5d}  {name}")
    return 0


def main(argv=None) -> int:
    global SINK
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--src", default=str(ROOT / "src"), help="the tree whose cpmean to import")
    p.add_argument("--against", help="a second tree: print how far --src moved from it")
    p.add_argument("--dump", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    p.add_argument("--cases", type=int, default=None, help="first N cases of each group")
    args = p.parse_args(argv)
    if args.against:
        return against(args)
    if args.dump:  # the results go to stdout as (group, numbers) pickles, one per result
        SINK = sys.stdout.buffer
    sys.path[:0] = [os.path.abspath(args.src), str(ROOT / "perfbench")]
    # a warning is printed once per place, so a report's stderr would depend
    # on what ran before it
    warnings.simplefilter("ignore")
    seeds, limit = args.seeds, args.cases
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            split, abs_cont = lib_lebesgue(seeds, limit)
            digests = [lib_means(seeds, limit), lib_connections(seeds, limit), split, abs_cont,
                       generic(seeds, limit), example(limit), admission(seeds, limit),
                       construction(seeds, limit)]
        finally:
            os.chdir(cwd)
    if args.dump:
        return 0
    for digest in digests:
        print(f"{digest.hexdigest()}  {digest.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
