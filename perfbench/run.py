"""The binsys benchmark: one command, run the same way before and after.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; binsys is imported from its src/.  The
last line of stdout is the result JSON; lines before it, starting with
"#", are the human-readable report (environment, per-pass breakdown,
per-layer table).

--trace 0 measures the end-to-end metrics with tracing off: operations
repeat until --seconds have passed (cli-requests also until it has 200
requests), and every output is checked against its golden.  An
operation is one pass of the workload (exhaustive-o3, sampled-o56) or
one request (cli-requests).

--trace 1 does a fixed amount of work with one worker, so that claim
runners stay in this process and call counts repeat exactly: the
workload's trace operations (and its set-up) with the layer tracer
installed, then the same operations again untraced.  The difference is
the tracing overhead.  --seconds does not apply.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
import workloads

SETUP_PROBES = 9


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_parallelism() -> dict:
    """Two CPU-bound tasks in two processes against one task alone."""
    n = 2_000_000
    one = workloads.spin_in_processes(1, n)
    two = workloads.spin_in_processes(2, n)
    return {"one_task_s": round(one, 4), "two_tasks_s": round(two, 4),
            "speedup": round(2 * one / two, 3)}


def environment(binsys) -> dict:
    # The library's own worker-count resolution, while it has one.
    resolve = getattr(binsys.enumeration, "_resolve_workers", None)
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "BINSYS_THREADS": os.environ.get("BINSYS_THREADS"),
        "workers": resolve(None, 1 << 30) if resolve else None,
        "parallelism": measure_parallelism(),
    }


def setup_seconds(args) -> tuple[list[float], list[float]]:
    """Fresh interpreters that only do the workload's set-up: rescaled and unscaled seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    speed = workloads.SpeedRef()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = workloads.run_child(cmd, 120)
        speed.record(t0, time.perf_counter() - t0)
        if proc.returncode:
            raise SystemExit(f"perfbench: set-up probe exited {proc.returncode}")
    return speed.rescaled(), [elapsed for _, elapsed in speed.calls]


def peak_rss_mb() -> float:
    kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
          + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024


def measure(args, work, gate):
    """Run operations for ``--seconds``; each op's calls as (first, last) indexes."""
    ops = []
    walls = []  # unscaled wall time per operation, reference loops included
    parts = {}
    start = time.perf_counter()
    for op in work.ops():
        elapsed = time.perf_counter() - start
        if walls and len(walls) >= work.min_ops:
            if elapsed + statistics.median(walls) > args.seconds:
                break
        if walls and elapsed > 2 * args.seconds:
            break
        t0 = time.perf_counter()
        first = len(gate.speed.calls)
        part = work.run(op, gate)  # the library's default workers
        walls.append(time.perf_counter() - t0)
        ops.append((first, len(gate.speed.calls)))
        for key, value in part.items():
            parts.setdefault(key, []).append(value)
    print(f"# {len(ops)} operations in {time.perf_counter() - start:.2f} s; "
          "unscaled median per operation: " + ", ".join(
              f"{k} {statistics.median(v):.4f} s" for k, v in parts.items()))
    return ops


def timed_run(args, work, gate) -> dict:
    setups, raw_setups = setup_seconds(args)
    work.setup()
    gate.speed = workloads.SpeedRef(work.ref_loops, work.ref_width)
    ops = measure(args, work, gate)
    scaled = gate.speed.rescaled()
    raw = [elapsed for _, elapsed in gate.speed.calls]
    latencies = [sum(scaled[a:b]) for a, b in ops]
    unscaled = [sum(raw[a:b]) for a, b in ops]
    p50, p95 = _quantile(latencies, 50), _quantile(latencies, 95)
    print(f"# {sum(x > p95 for x in latencies)} beyond p95; rescaled p50 {p50 * 1e3:.1f} ms, "
          f"p95 {p95 * 1e3:.1f} ms; unscaled p50 {_quantile(unscaled, 50) * 1e3:.1f} ms, "
          f"p95 {_quantile(unscaled, 95) * 1e3:.1f} ms")
    print("# set-up probes, rescaled (unscaled) s: " + ", ".join(
        f"{t:.4f} ({r:.4f})" for t, r in zip(setups, raw_setups)))
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p95_ms": (p95 * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_run(args, work, gate) -> dict:
    ops = []
    for op in work.ops():
        ops.append(op)
        if len(ops) == work.trace_ops:
            break
    tracer = layers.Tracer()
    restore = layers.install(tracer)
    try:
        work.setup()
        t0 = time.perf_counter()
        for op in ops:
            work.run(op, gate, workers=1, tracer=tracer)
        traced_s = time.perf_counter() - t0
    finally:
        restore()
    t0 = time.perf_counter()
    for op in ops:
        work.run(op, gate, workers=1)
    untraced_s = time.perf_counter() - t0

    metrics = {}
    for name in layers.span_names():
        metrics[f"{name}.calls"] = (tracer.calls[name], "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name], "s")
    for cid in layers.CLAIM_IDS:
        metrics[f"enumeration.claim.{cid}.self_s"] = (tracer.self_s[f"enumeration.claim.{cid}"], "s")
    imports = getattr(work, "import_s", [])
    metrics["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
    for cmd in layers.CLI_COMMANDS:
        metrics[f"cli.main.{cmd}.calls"] = (tracer.calls[f"cli.main.{cmd}"], "count")
        metrics[f"cli.main.{cmd}.self_s"] = (tracer.self_s[f"cli.main.{cmd}"], "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    report_trace(tracer, traced_s, untraced_s, len(ops))
    return metrics


def report_trace(tracer, traced_s, untraced_s, n_ops):
    print(f"# traced run: {n_ops} operation(s) with one worker; traced {traced_s:.3f} s, "
          f"untraced {untraced_s:.3f} s, tracing overhead {traced_s - untraced_s:.3f} s")
    print(f"# {'span':<48} {'calls':>10} {'self_s':>10} {'us/call':>9} {'incl_s':>10}")
    names = [n for n, c in tracer.calls.items() if c and not n.startswith("enumeration.claim.")]
    for name in sorted(names, key=lambda n: -tracer.self_s[n]):
        calls = tracer.calls[name]
        print(f"# {name:<48} {calls:>10} {tracer.self_s[name]:>10.4f} "
              f"{tracer.self_s[name] / calls * 1e6:>9.2f} {tracer.total_s[name]:>10.4f}")
    claims = [n for n, c in tracer.calls.items() if c and n.startswith("enumeration.claim.")]
    if claims:
        print(f"# {'claim, by self time':<48} {'self_s':>10} {'incl_s':>10}")
        for name in sorted(claims, key=lambda n: -tracer.self_s[n]):
            print(f"# {name[len('enumeration.claim.'):]:<48} "
                  f"{tracer.self_s[name]:>10.4f} {tracer.total_s[name]:>10.4f}")
    print("# what each span should move:")
    for layer, fns in layers.LAYERS.items():
        for fn, moves in fns:
            print(f"#   {layer}.{fn}: {moves}")


def parse_args(argv):
    p = argparse.ArgumentParser(description="binsys benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's small inputs")
    p.add_argument("--goldens", default=str(workloads.GOLDENS))
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    binsys = workloads.import_binsys()
    work = workloads.WORKLOADS[args.workload](binsys, args.seed, tiny=args.size == "tiny")
    try:
        if args.setup_probe:
            work.setup()
            return 0
        gate = workloads.Gate(workloads.load_goldens(args.goldens))
        print("# env " + json.dumps(environment(binsys)))
        metrics = (traced_run if args.trace else timed_run)(args, work, gate)
    finally:
        work.close()
    print(f"# error_rate {gate.failed / max(gate.attempted, 1):.4f} "
          f"({gate.failed} of {gate.attempted} operations failed)")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
