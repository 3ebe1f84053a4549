"""dualcat benchmark: one workload, one seed, timed for a fixed number of seconds.

    python3 perfbench/run.py --workload closed_cli --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; dualcat is imported from ``src/``.  The last
line of stdout is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  Every workload runs in a worker process with one thread
(BLAS pools pinned to one).  See README.md for what each figure means.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

WORKLOADS = ("closed_cli", "stationarity", "arclength")
UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "peak_rss_mb": "MB",
}
# Set-up is timed this many times per run (the measuring worker included)
# and reported as the median.
SETUP_SAMPLES = 4
IMPORTTIME_SAMPLES = 3
IMPORTED = {"dualcat": "dualcat", "scipy.integrate": "scipy_integrate", "scipy.interpolate": "scipy_interpolate"}
# Whatever the workload, no worker may outlive the 180 s a run is allowed.
WORKER_TIMEOUT = 150.0

ENV = dict(
    os.environ,
    OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    BLIS_NUM_THREADS="1", VECLIB_MAXIMUM_THREADS="1", NUMEXPR_NUM_THREADS="1",
    PYTHONHASHSEED="0",
)


class BenchError(Exception):
    pass


def start_worker(workload: str, seed: int, mode: str, seconds: float = 0.0, trace_out=None):
    """Start a worker and wait for its ``ready``; returns it with its set-up time."""
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--seconds", repr(seconds)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        finish(proc)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc) -> str:
    """Wait for a worker to end and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out")
    return out


def worker_result(proc) -> dict:
    out = finish(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def import_times() -> dict[str, float]:
    """Cumulative import time in ms of dualcat and its heavy scipy modules.

    Read from ``python -X importtime``; a module dualcat no longer imports
    reads 0.
    """
    samples: dict[str, list[float]] = {name: [] for name in IMPORTED}
    code = "import sys; sys.path.insert(0, 'src'); import dualcat"
    for _ in range(IMPORTTIME_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError("importing dualcat failed")
        seen = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
            if m and m.group(2) in IMPORTED:
                seen[m.group(2)] = int(m.group(1)) / 1e3
        for name in IMPORTED:
            samples[name].append(seen.get(name, 0.0))
    return {f"import.{IMPORTED[n]}_ms": statistics.median(v) for n, v in samples.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_out = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        proc, _ = start_worker(workload, seed, "trace", seconds, trace_out)
        res = worker_result(proc)
        metrics = {**import_times(), **res["metrics"]}
        units = {k: _layer_unit(k) for k in metrics}
    else:
        setups = []
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(workload, seed, "setup")
            finish(proc)
            if proc.returncode != 0:
                raise BenchError(f"set-up worker exited {proc.returncode}")
            setups.append(setup)
        proc, setup = start_worker(workload, seed, "run", seconds)
        setups.append(setup)
        res = worker_result(proc)
        metrics = {"setup_s": statistics.median(setups), **res["metrics"]}
        units = UNITS
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    pcts = ", ".join(f"{k} {v:.4g}" for k, v in res["latency_ms"].items())
    print(f"{res['ops']} measured operations in {res['wall_s']:.2f} s; latency ms: {pcts}", file=sys.stderr)
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
