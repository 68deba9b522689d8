"""Command-line front-end.

    cpmean mean --kind geo|arith|harm|parallel|power:<a>|log A.json B.json [-o OUT.json]
    cpmean order A.json B.json
    cpmean index A.json
    cpmean verify A.json
    cpmean lebesgue PHI.json PSI.json [-o PREFIX]   # PREFIX.ac.json, PREFIX.sing.json
    cpmean example <name> [key=value ...] | --all

With -o, the report names each document written by its path and the SHA-256
of its bytes ("written") in place of the Choi matrix it holds.

Global flags (before or after the subcommand; the last one wins): --format
text|json and --tol FLOAT, the PSD tolerance of order/verify (default 1e-9)
times the largest Choi entry modulus and verify's absolute bound on the
unital and trace-preserving defects, a finite number >= 0 or else exit 2.

Exit codes: 0 success, 2 input/validation error, 3 a failed check or an
internal error.  A reader that closes stdout early (``| head``) changes no
exit code: the rest of the output is dropped without a word on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import hermlinalg, lebesgue, opmeans
from .channeldoc import read_doc, save_channel
from .cpmaps import CpMap, geo_certificate, index_cp, mean_cp, order_cp
from .errors import CpMeanError, DomainError, UnknownExample
from .opmeans import MeanKind
from .registry import REGISTRY, run_example
from .report import Report


def _tolerance(flag: str | None) -> float:
    """The PSD tolerance: --tol if given, else ``TOL_PSD``."""
    if flag is None:
        return hermlinalg.TOL_PSD
    try:
        val = float(flag)
    except ValueError:
        val = math.nan
    if not (math.isfinite(val) and val >= 0.0):
        raise DomainError(f"--tol must be a finite number >= 0, got {flag!r}")
    return val or 0.0  # -0.0 is echoed as 0


# The parser is built once per process: parsing keeps no state in it.
@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # the global flags, on the top-level parser and on each subcommand; an
    # absent flag sets nothing, so one after the subcommand wins over one before
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                       help="report format (default: text)")
    flags.add_argument("--tol", default=argparse.SUPPRESS,
                       help="PSD tolerance for order/verify and verify's absolute bound "
                            "on the unital and trace defects, finite and >= 0")
    parser = argparse.ArgumentParser(
        prog="cpmean", parents=[flags],
        description="Operator means, CP order, indices and Lebesgue "
                    "decomposition of channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    command = functools.partial(sub.add_parser, parents=[flags])

    p_mean = command("mean", help="mean of two channels")
    p_mean.add_argument("--kind", required=True,
                        help="geo|arith|harm|parallel|power:<alpha>|log")
    p_mean.add_argument("path_a")
    p_mean.add_argument("path_b")
    p_mean.add_argument("-o", "--out", default=None, help="write result document")

    p_order = command("order", help="compare two channels in the CP order")
    p_order.add_argument("path_a")
    p_order.add_argument("path_b")

    p_index = command("index", help="Pimsner-Popa index of a channel")
    p_index.add_argument("path")

    p_verify = command("verify", help="CP/unital/trace-preserving flags")
    p_verify.add_argument("path")

    p_leb = command("lebesgue", help="Lebesgue decomposition of PSI relative to PHI")
    p_leb.add_argument("path_phi")
    p_leb.add_argument("path_psi")
    p_leb.add_argument("-o", "--out", default=None,
                       help="prefix for the ac/sing output documents")

    p_ex = command("example", help="recompute a worked example by name")
    p_ex.add_argument("name", nargs="?", default=None)
    p_ex.add_argument("params", nargs="*", default=[],
                      help="key=value parameter overrides")
    p_ex.add_argument("--all", action="store_true", dest="run_all",
                      help="run the full registry")

    return parser


def _load(rep: Report, path: str) -> tuple[CpMap, str]:
    """The channel and name of a document, added to rep's inputs with the
    hash of the bytes it was parsed from."""
    chan, name, sha256 = read_doc(path)
    name = name or os.path.basename(path)
    rep.add_input(name, path, sha256)
    return chan, name


def _write(f: CpMap, path: str, name: str) -> dict:
    """Write the choi document of f; its path and the SHA-256 of its bytes."""
    return {"path": path, "sha256": save_channel(f, path, name=name)}


def _chain(kind: MeanKind, f: CpMap, g: CpMap, result: CpMap) -> list:
    """(name, Choi entries) of means of f and g in ascending order (Kubo-Ando),
    result among them, for the mean checks to bound each step: harm <= geo <=
    arith, with log between geo and arith and parallel as half of harm; a
    power mean between its weighted harmonic mean, the adjoint of its
    weighted arithmetic mean, and that arithmetic mean.  Each mean but result
    is read as ``opmeans._gram_means`` gives it, a connection with no clamp."""
    held = result.choi.entries
    if kind.tag == "power":
        w = kind.alpha
        arith = opmeans.ConnectionRep(1.0 - w, w, ())
        harm, = opmeans._gram_means([MeanKind.custom(opmeans.adjoint_rep(arith))],
                                    f.choi, g.choi)
        return [(f"harm:{w}", harm), (f"power:{w}", held),
                (f"arith:{w}", (1.0 - w) * f.choi.entries + w * g.choi.entries)]
    if kind.tag == "parallel":
        kind, held = MeanKind("harm"), 2.0 * held
    tags = ("harm", "geo", "log", "arith") if kind.tag == "log" else ("harm", "geo", "arith")
    means = iter(opmeans._gram_means([MeanKind(t) for t in tags if t != kind.tag],
                                     f.choi, g.choi))
    return [(tag, held if tag == kind.tag else next(means)) for tag in tags]


def cmd_mean(args) -> list[Report]:
    kind = MeanKind.parse(args.kind)
    rep = Report(f"mean --kind {args.kind}")
    f, name_a = _load(rep, args.path_a)
    g, name_b = _load(rep, args.path_b)
    result = mean_cp(kind, f, g)
    rep.outputs["dim_in"] = result.dim_in
    rep.outputs["dim_out"] = result.dim_out
    if kind.tag == "geo":
        rep.check("block certificate [[A,G],[G,B]] PSD",
                  *geo_certificate(f, g, result, tol=opmeans.TOL_MEAN))
    chain = _chain(kind, f, g, result)
    bound = hermlinalg._bound(opmeans.TOL_MEAN, f.choi, g.choi)
    for (lo, below), (hi, above) in zip(chain, chain[1:]):
        low = float(hermlinalg.HermitianMatrix._exact(above - below).eigvals()[0])
        rep.check(f"chain {hi} - {lo} >= 0", max(0.0, -low), bound)
    if args.out:
        rep.outputs["written"] = _write(result, args.out, f"{args.kind}({name_a},{name_b})")
    else:
        rep.outputs["choi"] = result.choi
    return [rep]


def cmd_order(args) -> list[Report]:
    rep = Report("order")
    f, _ = _load(rep, args.path_a)
    g, _ = _load(rep, args.path_b)
    le, ge = order_cp(f, g, args.tol)
    verdict = {(True, True): "equal", (True, False): "<=cp",
               (False, True): ">=cp", (False, False): "incomparable"}[(bool(le), bool(ge))]
    rep.outputs["order"] = verdict
    rep.outputs["tolerance"] = args.tol
    return [rep]


def cmd_index(args) -> list[Report]:
    rep = Report("index")
    f, _ = _load(rep, args.path)
    value = index_cp(f)
    rep.outputs["index"] = "infinite" if math.isinf(value) else value
    return [rep]


def cmd_verify(args) -> list[Report]:
    rep = Report("verify")
    f, _ = _load(rep, args.path)
    rep.outputs["flags"] = {
        "is_cp": rep.check("completely positive", *hermlinalg.is_psd(f.choi, args.tol)),
        "is_unital": rep.check("unital", f.unital_defect(), args.tol),
        "is_trace_preserving": rep.check("trace preserving", f.trace_defect(), args.tol),
        "tolerance": args.tol,
    }
    return [rep]


def cmd_lebesgue(args) -> list[Report]:
    rep = Report("lebesgue")
    phi, name_phi = _load(rep, args.path_phi)
    psi, name_psi = _load(rep, args.path_psi)
    split = lebesgue.decompose(phi, psi)
    rep.outputs["alpha_min"] = split.alpha_min
    rep.check("ac + sing = psi", *split.recon)
    pair = lebesgue._pair(phi, psi)  # the split's, kept in the run: the parts at unit scale
    ac, sing = (CpMap(phi.dim_in, phi.dim_out, x) for x in lebesgue._parts(pair))
    rep.check("sing is phi-singular", *lebesgue.is_singular(phi, sing))
    rep.check("ac is phi-absolutely continuous", *lebesgue.is_abs_continuous(ac, phi))
    ando = hermlinalg._ando_part(phi.choi, psi.choi).entries
    rep.check("ac = Ando closed form", hermlinalg._max_abs(split.ac.choi.entries - ando),
              hermlinalg._bound(lebesgue.TOL_SPLIT, psi.choi))
    parts = (("ac", split.ac), ("sing", split.sing))
    if args.out:
        written = []
        try:
            for tag, part in parts:
                written.append(_write(part, f"{args.out}.{tag}.json",
                                      f"{tag}({name_psi}|{name_phi})"))
        except CpMeanError:
            for entry in written:  # no half of a split is left behind
                os.remove(entry["path"])
            raise
        rep.outputs["written"] = written
    else:
        rep.outputs.update((f"{tag}_choi", part.choi) for tag, part in parts)
    return [rep]


def _parse_params(items) -> dict:
    out = {}
    for item in items:
        if "=" not in item:
            raise DomainError(f"example parameters take the form key=value, got {item!r}")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key in out:
            raise DomainError(f"example parameter {key!r} is given twice")
        vals = []
        for piece in raw.split(","):
            try:
                vals.append(int(piece))
            except ValueError:
                try:
                    vals.append(float(piece))
                except ValueError:
                    raise DomainError(f"cannot parse parameter value {raw!r}")
        out[key] = vals[0] if len(vals) == 1 else tuple(vals)
    return out


def cmd_example(args) -> list[Report]:
    if args.run_all:
        if args.name or args.params:
            raise UnknownExample("--all takes no name or parameters")
        return [run_example(name) for name in REGISTRY]
    if not args.name:
        raise UnknownExample("example requires a name or --all")
    return [run_example(args.name, **_parse_params(args.params))]


def _emit(reports: list[Report], fmt: str) -> None:
    if fmt == "json":
        print(reports[0].to_json() if len(reports) == 1
              else json.dumps([r.to_obj() for r in reports], allow_nan=False,
                              check_circular=False))
    else:
        for rep in reports:
            print(rep.to_text())


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)  # sys.argv[1:] if None
    try:
        args.tol = _tolerance(getattr(args, "tol", None))
        # cmd_<command> is looked up at each call, not kept in the parser,
        # which is built once: a wrapped or patched command is the one that runs
        reports = globals()[f"cmd_{args.command}"](args)
        try:  # strict JSON: a non-finite value is an internal error
            _emit(reports, getattr(args, "format", "text"))
            sys.stdout.flush()
        except BrokenPipeError:  # the reader has gone: the rest and the exit flush go nowhere
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    except CpMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never produce a traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if all(r.passed for r in reports) else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
