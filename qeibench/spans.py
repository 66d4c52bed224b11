"""Spans for the traced run: recording, self time, and the layer wrappers.

The benchmark never edits the program.  In a traced pass it replaces
the public entry points of each layer (class attributes and module
functions) with thin wrappers that open a span, call the original and close
the span; :meth:`Tracer.uninstall` puts every original back.  A span records
its name, start, end and parent.  Spans are kept in memory and written out
when the benchmark ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover, so the self times of all spans add up to the time
the top-level spans cover, and ``harness.glue_s`` (the traced wall time
minus that coverage) closes the account.

Memory, NoC and engine work is far too fine-grained to span from outside,
so those layers are measured as counts: ``StatsRegistry.snapshot()`` and
``Engine.events_processed`` are diffed at the outermost span that drives a
simulated machine (a core run, a serving run, a cluster run or drain).
"""

from __future__ import annotations

import collections
import json
import time
from array import array
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis import snapshot as snapshot_mod
from repro.analysis.report import ExperimentResult
from repro.core.accelerator import QeiAccelerator
from repro.faults.chaos import ClusterChaosReport
from repro.faults.history import HistoryRecorder
from repro.serve.cluster import SimulatedCluster
from repro.serve.server import QueryServer
from repro.serve.slo import ServingReport
from repro.system import System
from repro.workloads import QueryWorkload

#: Span name -> the per-layer self-time metric it feeds.
LAYER_OF_SPAN = {
    "workloads.build": "workloads.build_s",
    "workloads.trace": "workloads.trace_s",
    "snapshot.restore": "snapshot.restore_s",
    "snapshot.capture": "snapshot.capture_s",
    "system.init": "system.init_s",
    "mem.warm_llc": "mem.warm_s",
    "cpu.execute": "cpu.execute_s",
    "core.accel": "core.accel_s",
    "serve.server": "serve.server_s",
    "cluster.run": "cluster.run_s",
    "faults.check": "faults.check_s",
    "analysis.report": "analysis.report_s",
}

#: Every per-layer metric the traced run reports, in BENCHMARK.json order.
#: A layer a workload never enters reads zero.
PER_LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("workloads.build_s", "s"),
    ("workloads.build_calls", "count"),
    ("workloads.trace_s", "s"),
    ("workloads.trace_ops", "count"),
    ("snapshot.restore_s", "s"),
    ("snapshot.restore_calls", "count"),
    ("snapshot.capture_s", "s"),
    ("system.init_s", "s"),
    ("cpu.execute_s", "s"),
    ("cpu.runs", "count"),
    ("cpu.baseline_runs", "count"),
    ("cpu.instructions", "count"),
    ("cpu.us_per_instr", "us"),
    ("core.accel_s", "s"),
    ("core.queries", "count"),
    ("core.cee_steps", "count"),
    ("core.steps_per_query", "ratio"),
    ("core.us_per_step", "us"),
    ("core.qst_occupancy_mean", "ratio"),
    ("core.hash_queue_cycles", "cycles"),
    ("mem.warm_s", "s"),
    ("mem.accesses", "count"),
    ("mem.l1_miss_ratio", "ratio"),
    ("mem.llc_hit_ratio", "ratio"),
    ("mem.tlb_miss_ratio", "ratio"),
    ("noc.bytes", "bytes"),
    ("noc.messages", "count"),
    ("sim.events", "count"),
    ("sim.us_per_event", "us"),
    ("serve.server_s", "s"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.fallback_ratio", "ratio"),
    ("cluster.run_s", "s"),
    ("cluster.retries", "count"),
    ("cluster.timeouts", "count"),
    ("cluster.shipped", "count"),
    ("faults.check_s", "s"),
    ("faults.history_ops", "count"),
    ("faults.history_keys", "count"),
    ("faults.inconclusive_keys", "count"),
    ("analysis.report_s", "s"),
    ("harness.glue_s", "s"),
    ("trace.overhead_pct", "%"),
)

#: Trace emitters on QueryWorkload; each returns a Trace or (Trace, ...).
_TRACE_EMITTERS = (
    "baseline_trace",
    "qei_trace",
    "qei_nb_trace",
    "app_trace_baseline",
    "app_trace_qei",
    "app_trace_other_only",
)

#: The accelerator's public calls, plus the engine-event handlers through
#: which a serving loop (which steps the engine itself) runs CEE steps.
#: Handlers a later version lacks are skipped.
_ACCEL_ENTRY_POINTS = (
    "submit",
    "submit_batch",
    "wait_for",
    "drain",
    "_arrive",
    "_drain_queue",
    "_step",
    "_drain_ready",
)


class SpanLog:
    """Spans of one traced pass, stored as parallel arrays."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: List[int] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def rows(self) -> List[Tuple[str, float, float, int]]:
        return list(zip(self.names, self.start, self.end, self.parent))


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(
    spans: Sequence[Tuple[str, float, float, int]],
) -> List[float]:
    """Self time of every span: its duration minus its children's coverage."""
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - _covered(children.get(index, ()), start, end)
        for index, (_, start, end, _) in enumerate(spans)
    ]


def account(
    spans: Sequence[Tuple[str, float, float, int]], lo: float, hi: float
) -> Tuple[Dict[str, float], float]:
    """Self time per span name, and the glue: ``[lo, hi]`` not under any span."""
    per_name: Dict[str, float] = collections.defaultdict(float)
    for (name, _, _, _), own in zip(spans, self_times(spans)):
        per_name[name] += own
    roots = [(start, end) for _, start, end, parent in spans if parent < 0]
    return dict(per_name), (hi - lo) - _covered(roots, lo, hi)


def _trace_len(result) -> int:
    trace = result[0] if isinstance(result, tuple) else result
    return len(trace)


def _stat_sum(stats: Dict[str, float], suffix: str, prefix: str = "") -> float:
    return sum(
        value
        for name, value in stats.items()
        if name.endswith(suffix) and name.startswith(prefix)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Tracer:
    """Installs the layer wrappers and turns one pass's spans into metrics."""

    def __init__(self) -> None:
        self.log = SpanLog()
        self.counts: Dict[str, float] = collections.Counter()
        #: Summed StatsRegistry deltas across the stats boundaries.
        self.stats: Dict[str, float] = collections.Counter()
        #: Inclusive host seconds of the outermost machine-driving spans.
        self.engine_s = 0.0
        self._machine_depth = 0
        self._trace_depth = 0
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attr: str, wrapper_factory) -> None:
        original = owner.__dict__[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def _span(self, name: str, on_result: Optional[Callable] = None):
        log = self.log

        def factory(original):
            def wrapper(*args, **kwargs):
                index = log.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    log.close(index)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

            return wrapper

        return factory

    def _machine_span(self, name: str, machines: Callable, on_result=None):
        """A span that also diffs the simulated machines' stats around it."""
        log = self.log

        def factory(original):
            def wrapper(owner, *args, **kwargs):
                outermost = self._machine_depth == 0
                if outermost:
                    pairs = machines(owner)
                    before = [(s.snapshot(), e.events_processed) for s, e in pairs]
                self._machine_depth += 1
                index = log.open(name)
                try:
                    result = original(owner, *args, **kwargs)
                finally:
                    log.close(index)
                    self._machine_depth -= 1
                if outermost:
                    self.engine_s += log.end[index] - log.start[index]
                    seen = set()
                    for (stats, engine), (snap, events) in zip(pairs, before):
                        self.stats.update(stats.diff(snap))
                        if id(engine) not in seen:
                            seen.add(id(engine))
                            self.counts["sim.events"] += (
                                engine.events_processed - events
                            )
                if on_result is not None:
                    on_result((owner,) + args, kwargs, result)
                return result

            return wrapper

        return factory

    def _trace_span(self):
        log = self.log

        def factory(original):
            def wrapper(*args, **kwargs):
                self._trace_depth += 1
                index = log.open("workloads.trace")
                try:
                    result = original(*args, **kwargs)
                finally:
                    log.close(index)
                    self._trace_depth -= 1
                if self._trace_depth == 0:
                    self.counts["workloads.trace_ops"] += _trace_len(result)
                return result

            return wrapper

        return factory

    def install(self) -> None:
        """Wrap every layer's entry points (see LAYER_OF_SPAN)."""
        counts = self.counts

        def count(metric: str):
            def on_result(args, kwargs, result):
                counts[metric] += 1

            return on_result

        workload_classes = [QueryWorkload]
        for cls in workload_classes:
            workload_classes.extend(
                sub for sub in cls.__subclasses__() if sub not in workload_classes
            )
        for cls in workload_classes:
            if "build" in cls.__dict__:
                self._patch(
                    cls, "build",
                    self._span("workloads.build", count("workloads.build_calls")),
                )
            for attr in _TRACE_EMITTERS:
                if attr in cls.__dict__:
                    self._patch(cls, attr, self._trace_span())

        self._patch(
            snapshot_mod.WorkloadSnapshot, "restore",
            self._span("snapshot.restore", count("snapshot.restore_calls")),
        )
        self._patch(snapshot_mod, "capture", self._span("snapshot.capture"))

        def on_core_run(args, kwargs, result):
            counts["cpu.runs"] += 1
            counts["cpu.instructions"] += result.instructions
            if kwargs.get("port") is None:
                counts["cpu.baseline_runs"] += 1

        self._patch(System, "__init__", self._span("system.init"))
        self._patch(System, "warm_llc", self._span("mem.warm_llc"))
        self._patch(
            System, "run_trace",
            self._machine_span(
                "cpu.execute", lambda s: [(s.stats, s.engine)], on_core_run
            ),
        )
        for attr in _ACCEL_ENTRY_POINTS:
            if attr in QeiAccelerator.__dict__:
                self._patch(QeiAccelerator, attr, self._span("core.accel"))
        self._patch(
            QueryServer, "run",
            self._machine_span(
                "serve.server", lambda s: [(s.system.stats, s.engine)]
            ),
        )
        for attr in ("run", "drain", "drain_replication"):
            self._patch(
                SimulatedCluster, attr,
                self._machine_span(
                    "cluster.run",
                    lambda c: [(n.system.stats, c.engine) for n in c.nodes],
                ),
            )

        def on_check(args, kwargs, verdict):
            counts["faults.history_ops"] += verdict.ops
            counts["faults.history_keys"] += verdict.keys
            counts["faults.inconclusive_keys"] += len(verdict.inconclusive)

        self._patch(HistoryRecorder, "check", self._span("faults.check", on_check))
        self._patch(ExperimentResult, "format", self._span("analysis.report"))
        self._patch(ServingReport, "dump", self._span("analysis.report"))
        self._patch(ClusterChaosReport, "dump", self._span("analysis.report"))

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #

    def metrics(self, lo: float, hi: float) -> Dict[str, float]:
        """Per-layer metrics of the pass that ran in ``[lo, hi]``.

        Counts read from the drivers' outputs (serving, cluster) come from
        the workload's check; ``trace.overhead_pct`` needs the untraced
        passes and is set by the caller.
        """
        per_name, glue = account(self.log.rows(), lo, hi)
        unaccounted = (hi - lo) - glue - sum(per_name.values())
        if abs(unaccounted) > 1e-6 * max(1, len(self.log)):
            raise RuntimeError(f"spans leave {unaccounted:.6f} s of the pass unaccounted")
        out = {name: 0.0 for name, _ in PER_LAYER_METRICS}
        for span_name, metric in LAYER_OF_SPAN.items():
            out[metric] = per_name.get(span_name, 0.0)
        out.update(self.counts)
        out["harness.glue_s"] = glue
        stats = self.stats
        out["cpu.us_per_instr"] = 1e6 * _ratio(out["cpu.execute_s"], out["cpu.instructions"])
        out["core.queries"] = stats.get("qei.queries.completed", 0)
        out["core.cee_steps"] = stats.get("qei.cee.steps", 0)
        out["core.steps_per_query"] = _ratio(out["core.cee_steps"], out["core.queries"])
        out["core.us_per_step"] = 1e6 * _ratio(out["core.accel_s"], out["core.cee_steps"])
        out["core.qst_occupancy_mean"] = _ratio(
            stats.get("qei.qst.occupancy.total", 0),
            stats.get("qei.qst.occupancy.count", 0),
        )
        out["core.hash_queue_cycles"] = stats.get("qei.hash.queue_cycles", 0)
        out["mem.accesses"] = stats.get("mem.accesses", 0)
        l1_misses = _stat_sum(stats, ".l1d.misses")
        out["mem.l1_miss_ratio"] = _ratio(
            l1_misses, l1_misses + _stat_sum(stats, ".l1d.hits")
        )
        llc_hits = _stat_sum(stats, ".hits", "llc.")
        out["mem.llc_hit_ratio"] = _ratio(
            llc_hits, llc_hits + _stat_sum(stats, ".misses", "llc.")
        )
        tlb_misses = _stat_sum(stats, ".mmu.tlb0.misses")
        out["mem.tlb_miss_ratio"] = _ratio(
            tlb_misses, tlb_misses + _stat_sum(stats, ".mmu.tlb0.hits")
        )
        out["noc.bytes"] = stats.get("noc.bytes", 0)
        out["noc.messages"] = stats.get("noc.messages", 0)
        out["sim.us_per_event"] = 1e6 * _ratio(self.engine_s, out["sim.events"])
        return out



def write_spans(path, passes: List[List[Tuple[str, float, float, int]]]) -> None:
    """Write every traced pass's spans as ``[name, start, end, parent]`` rows."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"], "passes": passes}, handle)
