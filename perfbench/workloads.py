"""The four benchmark workloads: inputs from a seed, one op, and its check.

Every op of a workload is the same bundle of calls at the same size, so op
times belong to one cost class.  Inputs are drawn by stratified sampling:
each rank, log-scale and weight stratum appears equally often in every run,
with the seed picking the order and the point inside each stratum.  The
share of ops that hit a known defect therefore stays put from seed to seed
while every input remains a random draw; no input is dropped, rescaled or
redrawn because the program fails on it.

An op's outcome is checked against the independent references of
``refs.py``.  A cpmean error raised by a call counts as a failed op; any
other exception, or a result of the wrong shape or with non-finite entries,
marks the run invalid.
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import numpy as np

import refs
from cpmean import cli, cpmaps, lebesgue, opmeans
from cpmean.errors import CpMeanError
from cpmean.opmeans import MeanKind

TOL_MEAN = 1e-8    # relative Frobenius error of a mean against its reference
TOL_SPLIT = 1e-8   # ac/sing error relative to ||G||, alpha_min error relative to max(1, ref)
TOL_ORACLE = 1e-6  # parallel-sum limit error relative to ||G||: the oracle's own TOL_LIM
TOL_PSD = 1e-9     # the program's documented default PSD tolerance for order/verify


class InvalidResult(Exception):
    """An op returned something no correct or defective run can produce."""


def attempt(call):
    """Run one call of an op; a cpmean error is an outcome, not a crash."""
    try:
        return call()
    except CpMeanError as exc:
        return exc


def stratified(rng, n: int) -> np.ndarray:
    """One uniform draw from each of n equal strata of [0, 1), in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def random_factor(rng, dim: int, rank: int) -> np.ndarray:
    """V with V V* a PSD matrix of the given rank, eigenvalues in [0.25, 4]."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return q[:, :rank] * np.sqrt(rng.uniform(0.25, 4.0, size=rank))


def random_psd(rng, dim: int, rank: int) -> np.ndarray:
    v = random_factor(rng, dim, rank)
    return refs.herm(v @ v.conj().T)


def _matrix(value, dim: int) -> np.ndarray:
    m = np.asarray(value)
    if m.shape != (dim, dim) or not np.isfinite(m).all():
        raise InvalidResult(f"expected a finite {dim}x{dim} matrix, got shape {m.shape}")
    return m


def _mean_ok(out, ref: np.ndarray, dim: int) -> bool:
    if isinstance(out, CpMeanError):
        return False
    return refs.rel_err(_matrix(out.choi.entries, dim), ref) <= TOL_MEAN


# ---------------------------------------------------------------------------
# lib-means: the kernel route of the closed-form means, across 24 decades.

def scale_ratios(u: np.ndarray) -> np.ndarray:
    """Quantiles u of eG - eF for eF, eG independent and uniform on [-12, 12].

    Whether a mean loses accuracy depends on the ratio of the two scales, so
    the ratio is the stratified coordinate; its law is triangular on [-24, 24].
    """
    low = u < 0.5
    return np.where(low, -24.0 + 24.0 * np.sqrt(2.0 * np.where(low, u, 0.5)),
                    24.0 - 24.0 * np.sqrt(2.0 * (1.0 - np.where(low, 0.5, u))))


@dataclass
class MeansCase:
    f0: np.ndarray
    g0: np.ndarray
    sf: float
    sg: float
    kinds: tuple
    f: cpmaps.CpMap
    g: cpmaps.CpMap
    ref: list | None = None


class LibMeans:
    name = "lib-means"
    d = 8
    distinct = 128
    nominal_ops_per_s = 36

    def make_cases(self, rng, workdir):
        n, dim = self.distinct, self.d * self.d
        ranks = 1 + rng.permutation(n) * dim // n
        alphas = 0.1 + 0.8 * stratified(rng, n)
        ratios = scale_ratios(stratified(rng, n))
        cases = []
        for i in range(n):
            # Given the ratio, F's exponent is uniform where both stay in range;
            # each exponent is then uniform on [-12, 12].
            lo, hi = max(-12.0, -12.0 - ratios[i]), min(12.0, 12.0 - ratios[i])
            ef = lo + (hi - lo) * rng.random()
            eg = ef + ratios[i]
            f0, g0 = random_psd(rng, dim, dim), random_psd(rng, dim, int(ranks[i]))
            sf, sg = 10.0 ** ef, 10.0 ** eg
            kinds = (MeanKind("arith"), MeanKind("harm"), MeanKind("geo"),
                     MeanKind.power(float(alphas[i])), MeanKind("log"))
            cases.append(MeansCase(f0, g0, sf, sg, kinds,
                                   cpmaps.from_choi(self.d, self.d, sf * f0),
                                   cpmaps.from_choi(self.d, self.d, sg * g0)))
        return cases

    def run(self, c: MeansCase):
        return [attempt(lambda k=k: cpmaps.mean_cp(k, c.f, c.g)) for k in c.kinds]

    def check(self, c: MeansCase, outs) -> bool:
        if c.ref is None:
            basis = refs.PowerBasis(c.f0, c.g0)
            c.ref = [0.5 * (c.sf * c.f0 + c.sg * c.g0),
                     refs.harmonic_mean(c.f0, c.g0, c.sf, c.sg),
                     refs.power_mean(basis, 0.5, c.sf, c.sg),
                     refs.power_mean(basis, c.kinds[3].alpha, c.sf, c.sg),
                     refs.log_mean(basis, c.sf, c.sg)]
        dim = self.d * self.d
        return all([_mean_ok(o, r, dim) for o, r in zip(outs, c.ref)])


# ---------------------------------------------------------------------------
# lib-connections: custom connections through per-atom parallel sums and the
# NNLS re-fits of the adjoint and dual transforms.

@dataclass
class ConnCase:
    f0: np.ndarray
    g0: np.ndarray
    alpha: float
    f: cpmaps.CpMap
    g: cpmaps.CpMap
    ref: list | None = None


class LibConnections:
    name = "lib-connections"
    d = 4
    distinct = 16           # one pair per rank of G
    nominal_ops_per_s = 5

    def make_cases(self, rng, workdir):
        n, dim = self.distinct, self.d * self.d
        ranks = 1 + rng.permutation(n) * dim // n
        alphas = 0.1 + 0.8 * stratified(rng, n)
        cases = []
        for i in range(n):
            f0, g0 = random_psd(rng, dim, dim), random_psd(rng, dim, int(ranks[i]))
            cases.append(ConnCase(f0, g0, float(alphas[i]),
                                  cpmaps.from_choi(self.d, self.d, f0),
                                  cpmaps.from_choi(self.d, self.d, g0)))
        return cases

    def run(self, c: ConnCase):
        rep = opmeans.power_rep(c.alpha)
        transforms = (lambda r: r, opmeans.transpose_rep, opmeans.adjoint_rep, opmeans.dual_rep)
        return [attempt(lambda t=t: cpmaps.mean_cp(MeanKind.custom(t(rep)), c.f, c.g))
                for t in transforms]

    def check(self, c: ConnCase, outs) -> bool:
        if c.ref is None:
            basis = refs.PowerBasis(c.f0, c.g0)
            p, q = basis.power(c.alpha), basis.power(1.0 - c.alpha)
            # t^a, its transpose t^(1-a), adjoint (t^-a)^-1 = t^a, dual t / t^a.
            c.ref = [p, q, p, q]
        dim = self.d * self.d
        return all([_mean_ok(o, r, dim) for o, r in zip(outs, c.ref)])


# ---------------------------------------------------------------------------
# lib-lebesgue: the RN split and the parallel-sum limit oracle.

@dataclass
class SplitCase:
    f0: np.ndarray
    g0: np.ndarray
    s: float
    f: cpmaps.CpMap
    g: cpmaps.CpMap
    ref: tuple | None = None


class LibLebesgue:
    name = "lib-lebesgue"
    d = 4
    distinct = 512          # every (rank F, rank G) pair twice
    nominal_ops_per_s = 60

    def make_cases(self, rng, workdir):
        n, dim = self.distinct, self.d * self.d
        exps = -12.0 + 24.0 * stratified(rng, n)
        order = rng.permutation(n)
        cases = []
        for i in order:
            rf, rg = 1 + i // dim % dim, 1 + i % dim
            f0, g0 = random_psd(rng, dim, rf), random_psd(rng, dim, rg)
            s = 10.0 ** exps[i]
            cases.append(SplitCase(f0, g0, s,
                                   cpmaps.from_choi(self.d, self.d, s * f0),
                                   cpmaps.from_choi(self.d, self.d, s * g0)))
        return cases

    def run(self, c: SplitCase):
        return (attempt(lambda: lebesgue.decompose(c.f, c.g)),
                attempt(lambda: lebesgue.ac_part_oracle(c.f, c.g)))

    def check(self, c: SplitCase, outs) -> bool:
        if c.ref is None:
            ac0 = refs.ac_part(c.f0, c.g0)
            c.ref = (ac0, refs.alpha_min(c.f0, ac0), float(np.linalg.norm(c.g0)))
        ac0, alpha, gnorm = c.ref
        split, oracle = outs
        dim = self.d * self.d

        def err(m):
            return refs.rel_err(_matrix(m.choi.entries, dim) / c.s, ac0, gnorm)

        split_ok = not isinstance(split, CpMeanError) and (
            err(split.ac) <= TOL_SPLIT
            and refs.rel_err(_matrix(split.sing.choi.entries, dim) / c.s, c.g0 - ac0,
                             gnorm) <= TOL_SPLIT
            and abs(split.alpha_min - alpha) <= TOL_SPLIT * max(1.0, alpha))
        oracle_ok = not isinstance(oracle, CpMeanError) and err(oracle) <= TOL_ORACLE
        return split_ok and oracle_ok


# ---------------------------------------------------------------------------
# cli-docs: the command line on documents, where the codec and the reports
# do most of the work.

def _doc(factor: np.ndarray, d: int, form: str) -> dict:
    """A channel document in the program's documented format, from V with C = V V*."""
    if form == "choi":
        c = np.ascontiguousarray(refs.herm(factor @ factor.conj().T))
        data = c.view(np.float64).reshape(d * d, d * d, 2).tolist()
    else:
        # vec(K)[i*n + k] = K[k, i]: each column of V is one column-stacked K.
        data = [np.ascontiguousarray(v.reshape(d, d).T).view(np.float64)
                .reshape(d, d, 2).tolist() for v in factor.T]
    return {"dim_in": d, "dim_out": d, "repr": form, "data": data}


def _read_choi(path: str, dim: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    data = np.asarray(doc["data"], dtype=np.float64)
    if doc["repr"] != "choi" or data.shape != (dim, dim, 2):
        raise InvalidResult(f"{path} is not a {dim}x{dim} choi document")
    return _matrix(data[..., 0] + 1j * data[..., 1], dim)


@dataclass
class DocCase:
    f0: np.ndarray
    g0: np.ndarray
    path_a: str
    path_b: str
    path_mean: str
    argvs: list
    ref: dict | None = None


class CliDocs:
    name = "cli-docs"
    d = 8
    distinct = 10
    nominal_ops_per_s = 3

    def make_cases(self, rng, workdir):
        n, d = self.distinct, self.d
        cases = []
        for i in range(n):
            # Full rank, so that every document, choi or kraus, holds d^4 cells.
            vf, vg = random_factor(rng, d * d, d * d), random_factor(rng, d * d, d * d)
            forms = ("choi", "kraus") if i % 2 == 0 else ("kraus", "choi")
            paths = [os.path.join(workdir, f"{i}.{tag}.json") for tag in ("a", "b", "mean")]
            for factor, form, path in zip((vf, vg), forms, paths):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(_doc(factor, d, form), fh)
            a, b, m = paths
            argvs = [["--format", "json", "mean", "--kind", "geo", a, b, "-o", m],
                     ["--format", "json", "verify", m],
                     ["--format", "json", "index", a],
                     ["--format", "json", "order", a, b]]
            cases.append(DocCase(refs.herm(vf @ vf.conj().T), refs.herm(vg @ vg.conj().T),
                                 a, b, m, argvs))
        return cases

    def run(self, c: DocCase):
        outs = []
        for argv in c.argvs:
            buf = io.StringIO()
            with redirect_stdout(buf), redirect_stderr(io.StringIO()):
                code = attempt(lambda: cli.main(argv))
            outs.append((code, buf.getvalue()))
        return outs

    def _reference(self, c: DocCase) -> dict:
        d = self.d
        geo = refs.power_mean(refs.PowerBasis(c.f0, c.g0), 0.5)
        blocks = geo.reshape(d, d, d, d)
        flags = {
            "is_cp": refs.psd_within(geo, TOL_PSD),
            "is_unital": bool(np.abs(np.einsum("ikil->kl", blocks) - np.eye(d)).max() <= TOL_PSD),
            "is_trace_preserving":
                bool(np.abs(np.einsum("ikjk->ij", blocks) - np.eye(d)).max() <= TOL_PSD),
        }
        le = refs.psd_within(c.g0 - c.f0, TOL_PSD)
        ge = refs.psd_within(c.f0 - c.g0, TOL_PSD)
        order = {(True, True): "equal", (True, False): "<=cp",
                 (False, True): ">=cp", (False, False): "incomparable"}[(le, ge)]
        return {"geo": geo, "flags": flags, "index": refs.pimsner_popa_index(c.f0, d),
                "order": order}

    def check(self, c: DocCase, outs) -> bool:
        if c.ref is None:
            c.ref = self._reference(c)
        ref = c.ref
        codes = [code for code, _ in outs]
        expected = [0, 0 if all(ref["flags"].values()) else 3, 0, 0]
        if any(isinstance(code, CpMeanError) for code in codes) or codes != expected:
            return False
        mean, verify, index, order = [json.loads(text) for _, text in outs]
        geo = _read_choi(c.path_mean, self.d * self.d)
        value = index["outputs"]["index"]
        return bool(mean["passed"]
                    and refs.rel_err(geo, ref["geo"]) <= TOL_MEAN
                    and verify["outputs"]["flags"] == {**ref["flags"], "tolerance": TOL_PSD}
                    and isinstance(value, float)
                    and abs(value - ref["index"]) <= TOL_MEAN * ref["index"]
                    and order["outputs"]["order"] == ref["order"])


WORKLOADS = {w.name: w for w in (LibMeans(), LibConnections(), LibLebesgue(), CliDocs())}
