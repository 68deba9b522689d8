"""One benchmark process: set up a workload, time its ops, check every outcome.

Started by run.py, never by hand.  ``--role setup`` stops once set-up is
done, so that run.py can time set-up several times; ``--role main`` goes on
to the timed phase and prints its result as the last line.

The op list is fixed by the seed and by --seconds: ``distinct`` cases, each
run ``passes`` times in the same order, so every count and ``correct_share``
repeat exactly from run to run.  References are computed the first time a
case is checked, between ops and outside every timer.

Times are host-normalized.  A fixed probe (numpy eigh and interpreter work,
about 1 ms) runs before every op and after the last; each op's wall time is
scaled by PROBE_REFERENCE_S over the mean of the probes around it, and
run.py scales set-up by PROBE_REFERENCE_S over the run's median probe time
(``slowness`` in the result).  On a shared host whose speed swings by 1.7x
over seconds to minutes this keeps the figures comparable between runs; the
raw wall times are reported next to them in the run details.
"""

import os
import sys
import time

T0 = time.monotonic()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402  (imports cpmean: part of the set-up time)

IMPORTED = time.monotonic()

MIN_OPS = 100        # so that at least ten samples lie above the p90
WARMUP_CASES = 2


def passes(workload, seconds: int) -> int:
    """Passes over the cases for a run of about `seconds` on the reference host."""
    total = max(MIN_OPS, round(seconds * workload.nominal_ops_per_s))
    return math.ceil(total / workload.distinct)


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of the host from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after) -> float:
    if before is None or after is None or after[1] == before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


PROBE_REFERENCE_S = 1e-3   # normalized times read as on a host where the probe takes 1 ms


class Probe:
    """A fixed task whose time tracks the host's speed: numpy eigh plus interpreter work."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        g = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        self._h = g + g.conj().T
        self.times: list[float] = []

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(3):
            np.linalg.eigh(self._h)
        table = {}
        for i in range(1500):
            table[i] = [i, i * 0.5]
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed


class Run:
    """Outcome counts of one run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.invalid: list[str] = []

    def execute(self, case, index: int, tracer=None) -> float:
        """Run one op, check it outside the timer, and return its wall time.

        A tracer given here records spans of the op only, not of its check.
        """
        error = None
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            outs = self.workload.run(case)
        except Exception as exc:  # anything but a cpmean error is a harness-level failure
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        self.attempted += 1
        ok = False
        if error is None:
            try:
                ok = self.workload.check(case, outs)
            except Exception as exc:
                error = exc
        if error is not None:
            self.invalid.append(f"case {index}: {type(error).__name__}: {error}")
        if not ok:
            self.failed += 1
        return elapsed


def nearest_rank(sorted_values: list[float], q: float) -> float:
    """The q-quantile by nearest rank: with 100 values, the 90th leaves ten above."""
    return sorted_values[math.ceil(q * len(sorted_values)) - 1]


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--role", choices=("setup", "main"), required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    args = p.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    cases = workload.make_cases(rng, args.workdir)
    generated = time.monotonic()
    for case in cases[:WARMUP_CASES]:
        workload.run(case)
    gc.collect()
    ready = time.monotonic()
    print(f"PERFBENCH_READY {ready!r}", flush=True)
    if args.role == "setup":
        return 0

    setup = {"setup.import_s": IMPORTED - T0, "setup.inputs_s": generated - IMPORTED,
             "setup.warmup_s": ready - generated}
    run = Run(workload)
    probe = Probe()
    for _ in range(21):  # the host's speed before the first op, in traced runs too
        probe()
    ticks = cpu_ticks()
    raw = None
    if args.trace:
        metrics = traced_phase(run, cases, args)
    else:
        metrics, raw = timed_phase(run, cases, args.seconds, probe)
    steal = steal_share(ticks, cpu_ticks())
    probe_ms = [t * 1e3 for t in probe.times]
    metrics.update({
        "correct_share": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    if args.trace:
        metrics.update(setup)
        metrics.update({"host.steal_share": steal,
                        "host.calibration_ms": statistics.median(probe_ms),
                        "src.lines": source_lines()})
    info = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "distinct_cases": len(cases), "ops": run.attempted,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "numpy": np.__version__, "blas": blas_version(),
        "host": {"steal_share": steal, "nproc": os.cpu_count(),
                 "probe_ms_quartiles": statistics.quantiles(probe_ms, n=4)},
        "raw": raw,
        "setup": setup, "invalid": run.invalid[:5],
    }
    result = {"valid": not run.invalid, "attempted": run.attempted, "failed": run.failed,
              "slowness": statistics.median(probe.times) / PROBE_REFERENCE_S,
              "metrics": metrics, "info": info}
    print("PERFBENCH_RESULT " + json.dumps(result), flush=True)
    return 0


def timed_phase(run: Run, cases, seconds: int, probe: Probe) -> tuple[dict, dict]:
    """Host-normalized time metrics, and the same from raw wall times."""
    raw, scaled = [], []
    before = probe()
    for _ in range(passes(run.workload, seconds)):
        for i, case in enumerate(cases):
            elapsed = run.execute(case, i)
            after = probe()
            raw.append(elapsed)
            scaled.append(elapsed * 2.0 * PROBE_REFERENCE_S / (before + after))
            before = after
    return time_metrics(scaled), time_metrics(raw)


def time_metrics(times: list[float]) -> dict:
    ordered = sorted(times)
    return {
        "ops_per_s": len(ordered) / math.fsum(ordered),
        "latency_p50_ms": statistics.median(ordered) * 1e3,
        "latency_p90_ms": nearest_rank(ordered, 0.9) * 1e3,
    }


def traced_phase(run: Run, cases, args) -> dict:
    """Each case once untraced and once traced, back to back."""
    import tracing

    tracer = tracing.Tracer()
    plain = traced = 0.0
    for i, case in enumerate(cases):
        plain += run.execute(case, i)
        tracer.install()
        try:
            traced += run.execute(case, i, tracer)
        finally:
            tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans, len(cases))
    metrics["trace.overhead_share"] = traced / plain - 1.0
    out_dir = os.path.join(ROOT, ".perfbench_runs")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    return metrics


def source_lines() -> int:
    src = os.path.join(ROOT, "src", "cpmean")
    total = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                total += sum(1 for _ in fh)
    return total


def blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # the layout of numpy's build report differs between versions
        return "unknown"


if __name__ == "__main__":
    sys.exit(main())
