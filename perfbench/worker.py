"""One benchmark process: import dualcat, build a workload, time it, check it.

Started by ``run.py``, never by hand.  It prints ``ready`` once dualcat is
imported and the workload's inputs are built (the end of set-up), then, in
``run`` and ``trace`` modes, repeats whole rounds of the workload's operations
for the requested seconds, checks every output, and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# latency_tail_ms is this percentile on every workload, leaving at least 70
# samples beyond it.  p99 follows host bursts and spread up to 37% between
# runs of the same code (see README.md).
TAIL_PERCENTILE = 90


def percentile(sorted_vals: list[float], q: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_vals) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def warm_up(workload) -> dict[str, object]:
    """Run one untimed round; its outputs are the ones each key is checked by."""
    outputs: dict[str, object] = {}
    for op in workload.ops:
        try:
            outputs.setdefault(op.key, op.run())
        except Exception as exc:  # a crash is a wrong output, reported by the checks
            outputs.setdefault(op.key, exc)
    return outputs


def measure(workload, seconds: float, outputs: dict[str, object]) -> dict:
    """Time whole rounds until ``seconds`` pass.

    Returns latencies of the measured operations, the wall time, the number
    attempted per key, and which keys gave an output that differs from the
    warm-up output (the checks run later).
    """
    mismatched: set[str] = set()
    lat: list[float] = []
    per_key: dict[str, int] = {}
    start = perf_counter()
    deadline = start + seconds
    while True:
        for op in workload.ops:
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:
                out = exc
            t1 = perf_counter()
            if not op.probe:
                lat.append(t1 - t0)
            per_key[op.key] = per_key.get(op.key, 0) + 1
            if not _same(out, outputs[op.key]):
                mismatched.add(op.key)
        if perf_counter() >= deadline:
            break
    wall = perf_counter() - start
    return {
        "lat": lat, "wall": wall, "start": start, "end": start + wall,
        "per_key": per_key, "outputs": outputs, "mismatched": mismatched,
    }


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return False
    return a == b


def check(workload, m: dict) -> tuple[bool, int, list[str]]:
    """Check each key's output once; every repeat of a key must equal it."""
    probes = {op.key for op in workload.ops if op.probe}
    problems: list[str] = []
    failed = 0
    for key, out in m["outputs"].items():
        if isinstance(out, Exception):
            bad = [f"raised {out!r}"]
        else:
            bad = workload.check(key, out)
        if key in m["mismatched"]:
            problems.append(f"{key}: output changed between repeats")
        elif key in probes:
            failed += m["per_key"].get(key, 0) if bad else 0
        else:
            problems += [f"{key}: {b}" for b in bad]
    return not problems, failed, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dualcat
    except ImportError as exc:
        print(f"worker: cannot import dualcat from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(dualcat.__file__).resolve().parent.parent != src.resolve():
        print(f"worker: dualcat was imported from {dualcat.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer, dualcat)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    outputs = warm_up(workload)
    # Counts made during set-up and warm-up are kept out of the per-op figures.
    counts_before = tracer.counts.copy() if tracer is not None else None
    m = measure(workload, args.seconds, outputs)
    lat = sorted(m["lat"])
    if tracer is None:
        metrics = {
            "ops_per_s": len(lat) / m["wall"],
            "latency_p50_ms": percentile(lat, 50) * 1e3,
            "latency_tail_ms": percentile(lat, TAIL_PERCENTILE) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        # Taken before the checks, whose own calls into dualcat are not part of the run.
        metrics = spans.layer_metrics(tracer, len(lat), (m["start"], m["end"]), counts_before)
        metrics["trace.ops_per_s"] = len(lat) / m["wall"]
        if args.trace_out:
            tracer.dump(args.trace_out)

    correct, failed, problems = check(workload, m)
    result = {
        "correct": correct,
        "attempted": sum(m["per_key"].values()),
        "failed": failed,
        "problems": problems[:10],
        "ops": len(lat),
        "wall_s": m["wall"],
        "latency_ms": {f"p{q}": percentile(lat, q) * 1e3 for q in (50, 90, 95, 99)},
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
