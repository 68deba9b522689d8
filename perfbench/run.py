"""Benchmark for cpmean: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload lib-means --seed 1 --seconds 12 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.  All
load comes from one process and one client in a closed loop: each op starts
when the previous one has returned.  BLAS is pinned to one thread and
``CPMEAN_DEFAULT_TOL`` is cleared in the environment of every process this
script starts, before any of them imports numpy.

Set-up is timed three times, each in a fresh process from its start to the
moment its first op would be timed (imports, input generation, warm-up); the
last of the three goes on to the timed phase.  ``setup_s`` is their median,
host-normalized by the run's median probe time like the op times (see
worker.py).

With ``--trace 0`` the result holds the end-to-end metrics, with ``--trace
1`` the per-layer metrics of a separate traced run (see tracing.py).  The
script exits non-zero and prints no result if any process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lib-means", "lib-connections", "lib-lebesgue", "cli-docs")
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("correct_share", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
# One BLAS thread; and the same interpreter state in every run: no hash
# randomization, no bytecode written into the checkout.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
          "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CPMEAN_DEFAULT_TOL", None)
    env.update(PINNED)
    return env


def start_worker(role: str, args, workdir: str, deadline: float) -> tuple[float, str]:
    """Run one worker to its end; return (set-up seconds, its stdout)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", workdir]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{role} worker exited with code {proc.returncode}")
    ready = [line for line in out.splitlines() if line.startswith("PERFBENCH_READY ")]
    if not ready:
        raise BenchError(f"{role} worker never reached its first op")
    return float(ready[0].split()[1]) - spawned, out


def measure(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    runs_dir = os.path.join(ROOT, ".perfbench_runs")
    setups = []
    samples = 1 if args.trace else SETUP_SAMPLES
    for k in range(samples):
        role = "main" if k == samples - 1 else "setup"
        workdir = os.path.join(runs_dir, f"work-{os.getpid()}-{k}")
        try:
            setup, out = start_worker(role, args, workdir, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(setup)
    lines = [line for line in out.splitlines() if line.startswith("PERFBENCH_RESULT ")]
    if not lines:
        raise BenchError("main worker printed no result")
    child = json.loads(lines[-1].split(" ", 1)[1])
    child["metrics"]["setup_s"] = statistics.median(setups) / child["slowness"]
    child["info"]["setup_s_raw"] = setups
    return child


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "cpmean", "__init__.py")):
        print(f"error: no cpmean sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        child = measure(args)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        wanted = [(name, unit) for name, unit, _, _ in tracing.PER_LAYER]
    else:
        wanted = END_TO_END
    missing = [name for name, _ in wanted if name not in child["metrics"]]
    if missing:
        print(f"error: metrics missing from the run: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({"perfbench": child["info"]}))
    print(json.dumps({
        "correct": child["valid"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {name: {"value": child["metrics"][name], "unit": unit}
                    for name, unit in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
