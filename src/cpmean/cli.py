"""Command-line front-end.

    cpmean mean --kind geo|arith|harm|parallel|power:<a>|log A.json B.json [-o OUT.json]
    cpmean order A.json B.json
    cpmean index A.json
    cpmean verify A.json
    cpmean lebesgue PHI.json PSI.json [-o PREFIX]   # PREFIX.ac.json, PREFIX.sing.json
    cpmean example <name> [key=value ...] | --all

With -o, the report names each document written by its path and the SHA-256
of its bytes ("written") in place of the Choi matrix it holds.

Global flags (accepted before or after the subcommand): --format text|json
and --tol FLOAT, the PSD tolerance of order/verify (default 1e-9) times the
largest Choi entry modulus, and verify's absolute bound on the unital and
trace-preserving defects.  It must be a finite number >= 0, else exit 2.

Exit codes: 0 success, 2 input/validation error, 3 a failed check or an
internal error.
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
    return val


# Each parser is built once per process: parsing keeps no state in it.
@functools.lru_cache(maxsize=None)
def _globals_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--format", choices=("text", "json"), default=None,
                   help="report format (default: text)")
    p.add_argument("--tol", default=None,
                   help="PSD tolerance for order/verify and verify's absolute bound "
                        "on the unital and trace defects, finite and >= 0")
    return p


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpmean",
        description="Operator means, CP order, indices and Lebesgue "
                    "decomposition of channels.",
        epilog="Global flags --format text|json and --tol FLOAT may appear "
               "anywhere on the command line.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_mean = sub.add_parser("mean", help="mean of two channels")
    p_mean.add_argument("--kind", required=True,
                        help="geo|arith|harm|parallel|power:<alpha>|log")
    p_mean.add_argument("path_a")
    p_mean.add_argument("path_b")
    p_mean.add_argument("-o", "--out", default=None, help="write result document")

    p_order = sub.add_parser("order", help="compare two channels in the CP order")
    p_order.add_argument("path_a")
    p_order.add_argument("path_b")

    p_index = sub.add_parser("index", help="Pimsner-Popa index of a channel")
    p_index.add_argument("path")

    p_verify = sub.add_parser("verify", help="CP/unital/trace-preserving flags")
    p_verify.add_argument("path")

    p_leb = sub.add_parser("lebesgue",
                           help="Lebesgue decomposition of PSI relative to PHI")
    p_leb.add_argument("path_phi")
    p_leb.add_argument("path_psi")
    p_leb.add_argument("-o", "--out", default=None,
                       help="prefix for the ac/sing output documents")

    p_ex = sub.add_parser("example", help="recompute a worked example by name")
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


def cmd_mean(args, tol: float) -> list[Report]:
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
    # how far each step of harmonic <= geometric <= arithmetic dips, reusing result
    harm, geo, arith = (
        (result if tag == kind.tag else mean_cp(MeanKind(tag), f, g)).choi.entries
        for tag in ("harm", "geo", "arith"))
    bound = opmeans.TOL_MEAN * hermlinalg._max_abs(f.choi.entries, g.choi.entries)
    for label, diff in (("geo - harm", geo - harm), ("arith - geo", arith - geo)):
        low = float(hermlinalg.HermitianMatrix(diff).eigvals()[0])
        rep.check(f"chain {label} >= 0", max(0.0, -low), bound)
    if args.out:
        rep.outputs["written"] = _write(result, args.out, f"{args.kind}({name_a},{name_b})")
    else:
        rep.outputs["choi"] = result.choi
    return [rep]


def cmd_order(args, tol: float) -> list[Report]:
    rep = Report("order")
    f, _ = _load(rep, args.path_a)
    g, _ = _load(rep, args.path_b)
    le, ge = order_cp(f, g, tol)
    verdict = {(True, True): "equal", (True, False): "<=cp",
               (False, True): ">=cp", (False, False): "incomparable"}[(bool(le), bool(ge))]
    rep.outputs["order"] = verdict
    rep.outputs["tolerance"] = tol
    return [rep]


def cmd_index(args, tol: float) -> list[Report]:
    rep = Report("index")
    f, _ = _load(rep, args.path)
    value = index_cp(f)
    rep.outputs["index"] = "infinite" if math.isinf(value) else value
    return [rep]


def cmd_verify(args, tol: float) -> list[Report]:
    rep = Report("verify")
    f, _ = _load(rep, args.path)
    rep.outputs["flags"] = {
        "is_cp": rep.check("completely positive", *hermlinalg.is_psd(f.choi, tol)),
        "is_unital": rep.check("unital", f.unital_defect(), tol),
        "is_trace_preserving": rep.check("trace preserving", f.trace_defect(), tol),
        "tolerance": tol,
    }
    return [rep]


def cmd_lebesgue(args, tol: float) -> list[Report]:
    rep = Report("lebesgue")
    phi, name_phi = _load(rep, args.path_phi)
    psi, name_psi = _load(rep, args.path_psi)
    split = lebesgue.decompose(phi, psi)
    rep.outputs["alpha_min"] = (
        "infinite" if math.isinf(split.alpha_min) else split.alpha_min)
    rep.check("ac + sing = psi", *split.recon)
    rep.check("sing is phi-singular", *lebesgue.is_singular(phi, split.sing))
    rep.check("ac is phi-absolutely continuous", *lebesgue.is_abs_continuous(split.ac, phi))
    ando = lebesgue._ando_ac(phi, psi).choi.entries
    rep.check("ac = Ando closed form", hermlinalg._max_abs(split.ac.choi.entries - ando),
              lebesgue.TOL_SPLIT * hermlinalg._max_abs(psi.choi.entries))
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


def cmd_example(args, tol: float) -> list[Report]:
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
              else json.dumps([r.to_obj() for r in reports], allow_nan=False))
    else:
        for rep in reports:
            print(rep.to_text())


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    gargs, rest = _globals_parser().parse_known_args(argv)
    args = _build_parser().parse_args(rest)
    fmt = gargs.format or "text"
    try:
        # cmd_<command> is looked up at each call, not kept in the parser,
        # which is built once: a wrapped or patched command is the one that runs
        reports = globals()[f"cmd_{args.command}"](args, _tolerance(gargs.tol))
        _emit(reports, fmt)  # strict JSON: a non-finite value is an internal error
    except CpMeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # malformed input must never produce a traceback
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0 if all(r.passed for r in reports) else 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
