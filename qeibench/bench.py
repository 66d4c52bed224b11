"""The benchmark's four workloads: inputs from a seed, cold passes through
the program's public drivers, and the checks on what they simulated.

Every pass starts cold: :func:`reset_process_memos` empties the in-process
memos (the ROI pair memo, the warm-snapshot registry and the
key-hash caches) and :func:`memo_sizes` proves they are empty, because a
reused process would make ``fig-roi`` almost free on its second pass.  The
on-disk result cache belongs to the CLI; calling the drivers directly never
touches it.

An *op* is the unit the failure count uses: a figure cell (one workload x
scheme ROI pair, or one latency x workload pair), a served request, or a
client request of the recovery drill.  A raised error or a digest mismatch
fails every op of the pass.  In ``recovery`` the ops on keys with lost
acknowledged writes, diverged replicas, a non-linearizable history or an
inconclusive linearizability search fail; inconclusive never passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis import experiments, snapshot
from repro.analysis.experiments import fig7_speedup, fig8_latency_sweep
from repro.datastructs import hashing
from repro.faults import chaos
from repro.faults.history import HistoryRecorder
from repro.serve.cluster import SimulatedCluster
from repro.serve.driver import SCHEME_ORDER, run_serving

#: Simulated clock of the modelled machine, for cycles -> microseconds.
FREQUENCY_HZ = 2.5e9

DIGEST_FILE = Path(__file__).with_name("digests.json")

#: Key of a digest that does not depend on the seed.
ANY_SEED = "*"


@dataclass
class Outcome:
    """What one pass of a workload simulated, and how much of it failed."""

    attempted: int
    failed: int = 0
    digest: Optional[str] = None
    #: The workload's headline simulated results (exact model outputs).
    sim: Dict[str, float] = field(default_factory=dict)
    #: Per-layer counts read from the driver's outputs.
    counts: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    #: (start, end, cpu seconds) of each driver call of the pass, the
    #: bounds read from ``time.perf_counter()``.
    call_times: List[Tuple[float, float, float]] = field(default_factory=list)

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.problems.append(problem)


def digest_of(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


# ---------------------------------------------------------------------- #
# Cold state
# ---------------------------------------------------------------------- #


def _hash_memos():
    return [fn for fn in vars(hashing).values() if hasattr(fn, "cache_clear")]


def reset_process_memos() -> None:
    experiments._PAIR_MEMO.clear()
    snapshot.clear()
    for memo in _hash_memos():
        memo.cache_clear()


def memo_sizes() -> Dict[str, int]:
    """Entries held by every in-process memo the program keeps."""
    return {
        "experiments._PAIR_MEMO": len(experiments._PAIR_MEMO),
        "snapshot._TEMPLATES": len(snapshot._TEMPLATES),
        "snapshot._UNCOPYABLE": len(snapshot._UNCOPYABLE),
        "hashing.lru_caches": sum(m.cache_info().currsize for m in _hash_memos()),
    }


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
#
# A pass is a list of driver calls.  Splitting a figure into one call per
# cell does the same simulated work as one call for the whole figure (the
# memos are shared within a pass and emptied only between passes), and it
# lets run.py weigh each call's time over the passes of a run on its own.


def _merge_rows(outputs: List[dict], key_column: str) -> List[dict]:
    rows: Dict[object, dict] = {}
    for row in outputs:
        rows.setdefault(row[key_column], {}).update(row)
    return list(rows.values())


def _figure(driver: Callable, key_column: str, calls: List[tuple]):
    """Calls of one figure driver, one per cell, and the check of its rows."""

    def inputs(seed: int) -> dict:
        del seed  # the figure drivers seed their workloads with 7 internally
        return dict(calls=calls, ops=len(calls))

    def call(inputs: dict, kwargs) -> dict:
        result = driver(quick=True, **dict(kwargs))
        result.format()
        (row,) = result.rows
        return row

    def check(inputs: dict, outputs: List[dict]) -> Outcome:
        rows = _merge_rows(outputs, key_column)
        cells = [v for row in rows for k, v in row.items() if k != key_column]
        outcome = Outcome(attempted=len(cells), digest=digest_of(rows))
        outcome.sim["sim_speedup_geomean"] = _geomean(cells)
        return outcome

    return inputs, call, check


#: Fig. 7: every paper workload x every scheme, one ROI pair per cell.
_FIG_ROI_CALLS = [
    (("workloads", (name,)), ("schemes", (scheme,)))
    for name in experiments.BENCH_WORKLOADS
    for scheme in experiments.SCHEME_ORDER
]

#: Fig. 8 at the driver's default latencies and workloads.
_FIG_SWEEP_CALLS = [
    (("latencies", (latency,)), ("workloads", (name,)))
    for latency in (50, 100, 200, 400, 800, 2000)
    for name in ("dpdk", "jvm", "rocksdb")
]


#: Serving calls per scheme in a pass, each at its own workload seed.
#: Sharing one seed across the five schemes made a pass's host time a
#: property of that seed's table layout (its software-fallback share moved
#: host time by about 10% between seeds); ten independent seeds average it.
SERVE_SEEDS_PER_SCHEME = 2


def serve_inputs(seed: int) -> dict:
    requests = 2000  # run_serving's default budget
    calls = [
        (scheme, seed * 10 + index * SERVE_SEEDS_PER_SCHEME + k)
        for index, scheme in enumerate(SCHEME_ORDER)
        for k in range(SERVE_SEEDS_PER_SCHEME)
    ]
    return dict(
        calls=calls,
        ops=len(calls) * requests,
        tenants=4,
        requests=requests,
        write_ratio=0.05,
    )


def serve_call(inputs: dict, call):
    scheme, seed = call
    return run_serving(
        scheme,
        tenants=inputs["tenants"],
        requests=inputs["requests"],
        seed=seed,
        write_ratio=inputs["write_ratio"],
    )


def serve_check(inputs: dict, reports) -> Outcome:
    outcome = Outcome(attempted=inputs["ops"], digest=digest_of([r.dump() for r in reports]))
    completed = rejected = fallbacks = failed = 0
    p99 = 0.0
    for report in reports:
        agg = report.aggregate
        completed += agg["completed"]
        refused = agg["rejected"] + agg["deadline_shed"] + agg["breaker_rejected"]
        rejected += refused
        fallbacks += agg["fallbacks"]
        failed += agg["failed"] + agg["result_errors"] + refused
        p99 = max(p99, agg["p99"] / FREQUENCY_HZ * 1e6)
    if failed:
        outcome.failed = min(failed, outcome.attempted)
        outcome.problems.append(f"{failed} requests failed, were refused or answered wrong")
    outcome.sim["sim_p99_us"] = p99
    outcome.counts = {
        "serve.completed": completed,
        "serve.rejected": rejected,
        "serve.fallback_ratio": fallbacks / completed if completed else 0.0,
    }
    return outcome


def recovery_inputs(seed: int) -> dict:
    """The recovery drill at the driver's defaults.

    The drill seed stays at the driver default 7 whatever the benchmark seed
    is: the linearizability checker's cost swings with the seed (0.3 s to
    over 100 s on this 6-node shape over seeds 0-15), so a per-run seed
    would make the host time a property of the seed, not of the code.
    """
    del seed
    return dict(
        calls=["cha-tlb"], ops=400, seed=7, requests=400, nodes=6,
        replication=2, quorum=2, write_ratio=0.5,
    )


@contextlib.contextmanager
def _capture_history():
    """Hold on to the drill's history recorder and the checker's verdict."""
    captured: Dict[str, object] = {}
    attach, check = SimulatedCluster.attach_history, HistoryRecorder.check

    def attach_and_keep(cluster):
        captured["recorder"] = attach(cluster)
        return captured["recorder"]

    def check_and_keep(recorder):
        captured["verdict"] = check(recorder)
        return captured["verdict"]

    SimulatedCluster.attach_history = attach_and_keep
    HistoryRecorder.check = check_and_keep
    try:
        yield captured
    finally:
        SimulatedCluster.attach_history = attach
        HistoryRecorder.check = check


def recovery_call(inputs: dict, scheme: str):
    with _capture_history() as captured:
        report = chaos.run_recovery_chaos(
            scheme,
            seed=inputs["seed"],
            requests=inputs["requests"],
            nodes=inputs["nodes"],
            replication=inputs["replication"],
            quorum=inputs["quorum"],
            write_ratio=inputs["write_ratio"],
            verify=False,
        )
    return report, captured["recorder"], captured["verdict"]


def recovery_check(inputs: dict, outputs) -> Outcome:
    ((report, recorder, verdict),) = outputs
    checks = report.checks
    ops = recorder._ops
    outcome = Outcome(attempted=len(ops), digest=digest_of(report.dump()))
    bad_keys = (
        set(verdict.violations)
        | set(verdict.inconclusive)
        | set(checks["lost_acked_writes"])
        | set(checks["diverged_keys"])
    )
    outcome.failed = sum(1 for op in ops if op.key_pos in bad_keys)
    if bad_keys:
        outcome.problems.append(
            f"{len(bad_keys)} keys failed: {len(verdict.violations)} non-linearizable, "
            f"{len(verdict.inconclusive)} inconclusive, "
            f"{len(checks['lost_acked_writes'])} lost acked writes, "
            f"{len(checks['diverged_keys'])} diverged"
        )
    try:
        chaos._verify_recovery(report)
    except chaos.ChaosError as exc:
        if not outcome.failed:
            outcome.fail_all(str(exc))
    outcome.sim["sim_availability"] = checks["availability"]
    outcome.counts = {
        "cluster.retries": checks["retries"],
        "cluster.timeouts": checks["timeouts"],
        "cluster.shipped": checks["shipped"],
    }
    return outcome


@dataclass(frozen=True)
class Workload:
    name: str
    #: seed -> inputs; ``inputs["calls"]`` lists the driver calls of a pass
    #: and ``inputs["ops"]`` the ops a pass attempts.
    inputs: Callable[[int], dict]
    #: Runs one driver call and returns its output.
    call: Callable[[dict, object], object]
    #: Judges the outputs of a whole pass.
    check: Callable[[dict, list], Outcome]
    #: Whether the inputs, and so the recorded digest, depend on the seed.
    seeded: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig-roi", *_figure(fig7_speedup, "workload", _FIG_ROI_CALLS), seeded=False),
        Workload(
            "fig-sweep", *_figure(fig8_latency_sweep, "latency_cycles", _FIG_SWEEP_CALLS),
            seeded=False,
        ),
        Workload("serve-mixed", serve_inputs, serve_call, serve_check, seeded=True),
        Workload("recovery", recovery_inputs, recovery_call, recovery_check, seeded=False),
    )
}


def load_digests() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGEST_FILE.read_text())


def expected_digest(digests, workload: Workload, seed: int) -> Optional[str]:
    table = digests.get(workload.name, {})
    return table.get(str(seed) if workload.seeded else ANY_SEED)


def run_pass(workload: Workload, inputs: dict, expected: Optional[str]) -> Outcome:
    """One cold pass, timing each driver call.

    Every raised error and every wrong output counts as failed ops; neither
    stops the benchmark.
    """
    reset_process_memos()
    held = {name: size for name, size in memo_sizes().items() if size}
    if held:
        raise RuntimeError(f"process memos survived the reset: {held}")
    times: List[Tuple[float, float, float]] = []
    try:
        outputs = []
        for call in inputs["calls"]:
            start, cpu = time.perf_counter(), time.process_time()
            outputs.append(workload.call(inputs, call))
            times.append((start, time.perf_counter(), time.process_time() - cpu))
        outcome = workload.check(inputs, outputs)
    except Exception as exc:  # the program's failure is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        outcome = Outcome(attempted=inputs["ops"])
        outcome.fail_all(f"{type(exc).__name__}: {exc}")
    if expected is not None and outcome.digest != expected and outcome.failed < outcome.attempted:
        outcome.fail_all(f"output digest {outcome.digest} != recorded {expected}")
    outcome.call_times = times
    return outcome
