"""Traced run: spans and counts at the boundary of every cpmean layer.

The tracer wraps the public functions of each ``src/cpmean`` module from the
benchmark's own files; no program code changes.  Each wrapped name is patched
in every module that imported it (``lebesgue.parallel_sum``, ``cli.mean_cp``,
...), so calls between layers are seen as well as calls from the benchmark.
``registry`` is left out: no workload runs it.

Spans are kept in memory as ``[name, layer, start, end, parent, op, raised,
extra]`` and written out once the run ends.  A layer's self time is the
duration of its spans minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("hermlinalg", "opmeans", "cpmaps", "lebesgue", "channeldoc", "report", "cli")

# Coercions that only return their argument or build a matrix; the build is
# already seen as an admission span.
_SKIP = {"as_hermitian", "as_psd"}

# (name, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = [
    ("hermlinalg.eigh_per_op", "count", "lower",
     "ops_per_s on lib-means, lib-connections and lib-lebesgue"),
    ("hermlinalg.eigvalsh_per_op", "count", "lower",
     "ops_per_s on lib-means, lib-connections and lib-lebesgue"),
    ("hermlinalg.eig_ms_per_op", "ms", "lower", "latency_p50_ms on lib-means"),
    ("hermlinalg.admissions_per_op", "count", "lower", "ops_per_s on lib-connections"),
    ("hermlinalg.self_ms_per_op", "ms", "lower", "latency_p50_ms on the lib-* workloads"),
    ("opmeans.kernel_ms_per_op", "ms", "lower", "latency_p50_ms on lib-means"),
    ("opmeans.parallel_sum_per_op", "count", "lower",
     "ops_per_s on lib-connections and lib-lebesgue; lib-means through harm"),
    ("opmeans.parallel_sum_ms_per_op", "ms", "lower",
     "ops_per_s on lib-connections and lib-lebesgue; lib-means through harm"),
    ("opmeans.connection_apply_ms_per_op", "ms", "lower", "ops_per_s on lib-connections"),
    ("opmeans.atoms_per_op", "count", "lower", "ops_per_s on lib-connections"),
    ("opmeans.refit_ms_per_op", "ms", "lower", "ops_per_s on lib-connections"),
    ("opmeans.self_ms_per_op", "ms", "lower", "latency_p50_ms on the lib-* workloads"),
    ("cpmaps.mean_cp_per_op", "count", "lower", "latency_p50_ms on cli-docs"),
    ("cpmaps.geo_certificate_ms_per_op", "ms", "lower", "latency_p50_ms on cli-docs"),
    ("cpmaps.index_ms_per_op", "ms", "lower", "latency_p50_ms on cli-docs"),
    ("cpmaps.leq_ms_per_op", "ms", "lower", "latency_p50_ms on cli-docs"),
    ("cpmaps.self_ms_per_op", "ms", "lower", "latency_p50_ms on cli-docs"),
    ("lebesgue.decompose_ms_per_op", "ms", "lower",
     "ops_per_s and latency_p90_ms on lib-lebesgue"),
    ("lebesgue.oracle_ms_per_op", "ms", "lower",
     "ops_per_s and latency_p90_ms on lib-lebesgue"),
    ("lebesgue.oracle_parallel_sums_per_op", "count", "lower",
     "ops_per_s and latency_p90_ms on lib-lebesgue"),
    ("lebesgue.oracle_converged_share", "share", "higher", "correct_share on lib-lebesgue"),
    ("lebesgue.self_ms_per_op", "ms", "lower", "ops_per_s on lib-lebesgue"),
    ("channeldoc.loads_per_op", "count", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("channeldoc.load_ms_per_op", "ms", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("channeldoc.save_ms_per_op", "ms", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("channeldoc.bytes_read_per_op", "bytes", "lower",
     "ops_per_s and latency_p50_ms on cli-docs"),
    ("channeldoc.bytes_written_per_op", "bytes", "lower",
     "ops_per_s and latency_p50_ms on cli-docs"),
    ("channeldoc.self_ms_per_op", "ms", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("report.emit_ms_per_op", "ms", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("report.bytes_per_op", "bytes", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("report.self_ms_per_op", "ms", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("cli.self_ms_per_op", "ms", "lower", "ops_per_s and latency_p50_ms on cli-docs"),
    ("setup.import_s", "s", "lower", "setup_s on every workload"),
    ("setup.inputs_s", "s", "lower", "setup_s on every workload"),
    ("setup.warmup_s", "s", "lower", "setup_s on every workload"),
    ("trace.overhead_share", "share", "lower", "none: traced over untraced op time, minus 1"),
    ("host.steal_share", "share", "lower", "none: CPU time stolen from the host in the run"),
    ("host.calibration_ms", "ms", "lower", "none: median time of the host probe, to tell drift"),
    ("src.lines", "lines", "lower", "none: line count of src/cpmean"),
]


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Values recorded at a span's end, keyed by span name.
_EXTRA = {
    "opmeans.connection_apply": lambda args, kwargs, result: len(args[0].atoms),
    "channeldoc.read_doc": lambda args, kwargs, result: _file_size(args[0]),
    "channeldoc.save_channel": lambda args, kwargs, result: _file_size(args[1]),
    "report.to_json": lambda args, kwargs, result: len(result.encode("utf-8")),
    "report.to_text": lambda args, kwargs, result: len(result.encode("utf-8")),
}


class Tracer:
    """Wraps cpmean's layer boundaries and records spans while an op is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._collect_targets()

    @staticmethod
    def _collect_targets() -> list[tuple[object, str, str, str]]:
        """(owner, attribute, span name, layer) for every boundary to wrap."""
        import numpy as np
        from cpmean import hermlinalg, report

        targets = [
            (np.linalg, "eigh", "hermlinalg.np_eigh", "hermlinalg"),
            (np.linalg, "eigvalsh", "hermlinalg.np_eigvalsh", "hermlinalg"),
            (hermlinalg.PsdMatrix, "__init__", "hermlinalg.admission", "hermlinalg"),
        ]
        for layer in LAYERS:
            if layer == "report":
                continue
            mod = sys.modules[f"cpmean.{layer}"]
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not name.startswith("_") and name not in _SKIP):
                    targets.append((mod, name, f"{layer}.{name}", layer))
        for name in ("add_input", "check", "record", "to_obj", "to_json", "to_text"):
            targets.append((report.Report, name, f"report.{name}", "report"))
        return targets

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        extra = _EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op, False, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[3] = perf_counter()
                tracer._stack.pop()
            if extra is not None:
                span[7] = extra(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every boundary in its owner and in each module that imported it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "cpmean" or n.startswith("cpmean.")]
        for owner, attr, name, layer in self._targets:
            original = vars(owner)[attr]
            wrapper = self._wrap(original, name, layer)
            self._patch(owner, attr, wrapper)
            if inspect.ismodule(owner):
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        """Write the spans as JSON lines."""
        keys = ("name", "layer", "start", "end", "parent", "op", "raised", "extra")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def layer_metrics(spans: list[list], n_ops: int) -> dict[str, float]:
    """Per-op counts and times of every layer from a list of spans."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[4] >= 0:
            child[s[4]] += s[3] - s[2]

    count = defaultdict(int)
    extra = defaultdict(float)
    self_ms = defaultdict(float)
    raised = defaultdict(int)
    oracle_ps = 0
    for i, s in enumerate(spans):
        name, layer = s[0], s[1]
        count[name] += 1
        raised[name] += s[6]
        self_ms[layer] += (s[3] - s[2] - child[i]) * 1e3
        if s[7] is not None:
            extra[name] += s[7]
        if name == "opmeans.parallel_sum" and _has_ancestor(spans, i, "lebesgue.ac_part_oracle"):
            oracle_ps += 1

    def ms(*names):
        """Milliseconds in spans of these names whose parent span is not one of them."""
        group = set(names)
        return sum((s[3] - s[2]) * 1e3 for s in spans
                   if s[0] in group and (s[4] < 0 or spans[s[4]][0] not in group))

    n = max(n_ops, 1)
    oracles = count["lebesgue.ac_part_oracle"]
    out = {
        "hermlinalg.eigh_per_op": count["hermlinalg.np_eigh"] / n,
        "hermlinalg.eigvalsh_per_op": count["hermlinalg.np_eigvalsh"] / n,
        "hermlinalg.eig_ms_per_op": ms("hermlinalg.np_eigh", "hermlinalg.np_eigvalsh") / n,
        "hermlinalg.admissions_per_op": count["hermlinalg.admission"] / n,
        "opmeans.kernel_ms_per_op": ms("opmeans.geometric_mean", "opmeans.power_mean",
                                        "opmeans.log_mean") / n,
        "opmeans.parallel_sum_per_op": count["opmeans.parallel_sum"] / n,
        "opmeans.parallel_sum_ms_per_op": ms("opmeans.parallel_sum") / n,
        "opmeans.connection_apply_ms_per_op": ms("opmeans.connection_apply") / n,
        "opmeans.atoms_per_op": extra["opmeans.connection_apply"] / n,
        "opmeans.refit_ms_per_op": ms("opmeans.adjoint_rep", "opmeans.dual_rep") / n,
        "cpmaps.mean_cp_per_op": count["cpmaps.mean_cp"] / n,
        "cpmaps.geo_certificate_ms_per_op": ms("cpmaps.geo_certificate") / n,
        "cpmaps.index_ms_per_op": ms("cpmaps.index_cp") / n,
        "cpmaps.leq_ms_per_op": ms("cpmaps.leq_cp") / n,
        "lebesgue.decompose_ms_per_op": ms("lebesgue.decompose") / n,
        "lebesgue.oracle_ms_per_op": ms("lebesgue.ac_part_oracle") / n,
        "lebesgue.oracle_parallel_sums_per_op": oracle_ps / n,
        "lebesgue.oracle_converged_share":
            (oracles - raised["lebesgue.ac_part_oracle"]) / oracles if oracles else 0.0,
        "channeldoc.loads_per_op": count["channeldoc.read_doc"] / n,
        "channeldoc.load_ms_per_op": ms("channeldoc.read_doc", "channeldoc.doc_to_channel",
                                         "channeldoc.load_channel") / n,
        "channeldoc.save_ms_per_op": ms("channeldoc.save_channel") / n,
        "channeldoc.bytes_read_per_op": extra["channeldoc.read_doc"] / n,
        "channeldoc.bytes_written_per_op": extra["channeldoc.save_channel"] / n,
        "report.emit_ms_per_op": ms("report.to_json", "report.to_text") / n,
        "report.bytes_per_op": (extra["report.to_json"] + extra["report.to_text"]) / n,
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms_per_op"] = self_ms[layer] / n
    return out


def _has_ancestor(spans, i: int, name: str) -> bool:
    parent = spans[i][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][4]
    return False
