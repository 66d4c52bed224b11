"""Benchmark of the QEI simulator: times the program's public drivers end to
end and, in a traced run, per layer.

Usage, from the root of a checkout::

    python3 qeibench/run.py --workload fig-roi --seed 1 --seconds 25 --trace 0

The run is one process with no threads.  After a set-up phase it repeats
cold passes of the workload (see ``bench.py``) until the next pass would
overrun ``--seconds``, at least once.  Untraced passes sample the host's
speed on a timer and rescale each driver call's time to a reference host
speed (see ``hostspeed.py``); each call counts at the mean of its faster
half of passes.  ``--trace 1`` alternates untraced and traced passes, at
least one of each, and reports the medians of the traced passes'
per-layer metrics (see ``spans.py``).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans of traced passes
are written to ``.qeibench_out/`` at exit.  README.md in this directory
documents the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".qeibench_out"

WORKLOAD_NAMES = ("fig-roi", "fig-sweep", "serve-mixed", "recovery")

#: Fresh-interpreter set-up samples per run; setup_s is their median,
#: rescaled to the reference host speed.
SETUP_PROBES = 5


END_TO_END_UNITS = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Printed for a reader with every run, but not in the JSON result: they are
#: zero on a passing run, exist on one workload only, or (the raw host
#: times) swing with the neighbours' load more than any bound (README.md).
REPORTED_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_wall_s": "s",
    "error_rate": "ratio",
    "sim_speedup_geomean": "x",
    "sim_p99_us": "us",
    "sim_availability": "ratio",
}


def clear_switches() -> dict:
    """Drop ambient ``QEI_NO_*`` switches so every run measures the defaults."""
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("QEI_NO_")}
    return cleared


def setup_seconds(workload: str, seed: int):
    """Median spawn-to-exit seconds of fresh interpreters that do only the
    set-up, at the reference host speed and as measured."""
    rescaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        probe = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            check=True,
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        wall = time.perf_counter() - start
        raw.append(wall)
        rescaled.append(wall * hostspeed.REFERENCE_S / float(probe.stdout.split()[-1]))
    return statistics.median(rescaled), statistics.median(raw)


def faster_half(values) -> float:
    """Mean of the faster half of ``values``, the middle one included."""
    values = sorted(values)
    return statistics.fmean(values[: (len(values) + 1) // 2])


def faster_half_calls(passes, calls: int):
    """Summed (wall, cpu) seconds of each driver call over its faster passes.

    ``passes`` holds one list of per-call (wall, cpu) seconds per pass.
    Rescaling to the reference host speed cancels most of the neighbours'
    load, but not all: for seconds at a time a neighbour can slow the
    program more than the kernel, never the reverse by as much.  So the
    slower half of a call's passes is dropped.  Passes cut short by an error
    are left out unless none is complete.
    """
    complete = [times for times in passes if len(times) == calls] or passes
    return tuple(
        sum(faster_half(times[i][k] for times in complete if i < len(times))
            for i in range(max(map(len, complete))))
        for k in (0, 1)
    )


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing: no package at {SRC / 'repro'}", file=sys.stderr)
        return 2
    cleared = clear_switches()
    if cleared:
        print(f"cleared ambient switches: {cleared}")
    setup_s, setup_wall_s = setup_seconds(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import bench
    import spans

    workload = bench.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    expected = bench.expected_digest(bench.load_digests(), workload, args.seed)
    if expected is None:
        print(f"note: no digest recorded for {args.workload} seed {args.seed}; "
              "checking that every pass repeats the first one's outputs")

    passes = []
    traced_spans = []
    speed = hostspeed.HostSpeed()
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = spans.Tracer() if traced else None
        if tracer:
            tracer.install()
        else:
            speed.start()
        t0 = time.perf_counter()
        try:
            outcome = bench.run_pass(workload, inputs, expected)
        finally:
            t1 = time.perf_counter()
            if tracer:
                tracer.uninstall()
            else:
                speed.stop()
        layers = None
        if tracer:
            layers = tracer.metrics(t0, t1)
            layers.update(outcome.counts)
            traced_spans.append(tracer.log.rows())
        passes.append(dict(wall=t1 - t0, outcome=outcome, traced=traced, layers=layers))
        elapsed = time.perf_counter() - start
        if len(passes) > args.trace and elapsed + (t1 - t0) > args.seconds:
            break

    outcomes = [p["outcome"] for p in passes]
    digests = {o.digest for o in outcomes if o.failed < o.attempted}
    if expected is None and len(digests) > 1:
        for o in outcomes:
            o.fail_all(f"passes disagree on their outputs: {sorted(digests)}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for problem in sorted({p for o in outcomes for p in o.problems}):
        print(f"FAILED: {problem}")

    report = {"setup_wall_s": setup_wall_s, "error_rate": failed / attempted}
    for name in REPORTED_UNITS:
        values = [o.sim[name] for o in outcomes if name in o.sim]
        if values:
            report[name] = statistics.median(values)
    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p["layers"] for p in passes if p["traced"]]
        metrics = {
            name: {"value": statistics.median(t[name] for t in traced), "unit": unit}
            for name, unit in spans.PER_LAYER_METRICS
        }
        untraced_wall = statistics.median(p["wall"] for p in plain)
        traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
        metrics["trace.overhead_pct"]["value"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        spans.write_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json", traced_spans)
    else:
        calls = [p["outcome"].call_times for p in plain]
        report["wall_s"], report["cpu_s"] = faster_half_calls(
            [[(end - begin, cpu) for begin, end, cpu in times] for times in calls],
            len(inputs["calls"]),
        )
        wall_ref_s, cpu_ref_s = faster_half_calls(
            [[speed.rescale(*call) for call in times] for times in calls],
            len(inputs["calls"]),
        )
        values = {
            "wall_ref_s": wall_ref_s,
            "cpu_ref_s": cpu_ref_s,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), {attempted} ops attempted, {failed} failed")
    for name, value in report.items():
        print(f"  {name:<28} {value:.6g} {REPORTED_UNITS[name]}")
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
