"""Chaos harness: infrastructure faults under closed-loop serving load.

``python -m repro chaos`` drives one scaled-down machine with multi-tenant
closed-loop load while a deterministic event schedule kills and recovers
accelerator slices and hot-swaps CFA firmware mid-run.  The contract it
asserts is the ROADMAP's availability story:

* **zero wrong results** — every completed request matches the software
  oracle, whether it ran accelerated, rerouted to a survivor slice, or
  resolved through the software fallback after a ``SLICE_DOWN`` abort;
* **zero hangs** — every admitted request reaches a terminal outcome
  (completion or an explicit deadline shed), i.e. availability is 100%;
* **determinism** — the same seed reproduces a byte-identical report,
  faults included (``--repeats`` re-runs and compares the dumps).

Events fire when the fleet-wide terminal-request count crosses seeded
thresholds — a cycle-free trigger, so the schedule is identical across
runs regardless of how timing shifts as the code evolves.  The timeline is
segmented into phases at every event; the report carries availability and
p99 per phase.

All four drills share one schedule driver (:func:`_drive`), one contract
check (:func:`_verify_contract`) and one determinism re-run; each keeps
only its schedule, its fire actions and its own checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from ..config import ClusterConfig, IntegrationScheme, ServeConfig
from ..core.programs import HashOfListsCfa
from ..core.programs_ext import BPlusTreeCfa
from ..errors import ReproError

#: Event actions (single-machine chaos).
SLICE_FAIL = "slice-fail"
SLICE_RECOVER = "slice-recover"
FIRMWARE_SWAP = "firmware-swap"

#: Event actions (mixed read/write chaos, docs/mutations.md).
RESIZE_START = "resize-start"
RESIZE_COMMIT = "resize-commit"

#: Event actions (cluster chaos; kill/flap/partition mirror the
#: FaultKind.NODE_KILL / NODE_FLAP / NET_PARTITION taxonomy entries).
NODE_KILL = "node-kill"
NODE_FLAP = "node-flap"
NODE_RECOVER = "node-recover"
NET_PARTITION = "net-partition"
NET_HEAL = "net-heal"

#: A flapped node restarts this many cycles after its kill.
FLAP_OUTAGE_CYCLES = 3_000

#: Event actions (recovery chaos; mirror FaultKind.REPLICA_LAG /
#: LOG_TRUNCATE in the fault taxonomy).
REPLICA_LAG = "replica-lag"
LOG_TRUNCATE = "log-truncate"

#: Extra node->node delivery latency a REPLICA_LAG event injects.
REPLICA_LAG_CYCLES = 4_096

#: Post-run drain quantum while replicas converge / catch-up completes.
RECOVERY_DRAIN_CYCLES = 8_192

#: Availability the cluster drills assert in every phase and overall
#: (recorded in each report's ``checks["availability_floor"]``).
CLUSTER_AVAILABILITY_FLOOR = 0.95
RECOVERY_AVAILABILITY_FLOOR = 0.9


class ChaosError(ReproError):
    """The chaos contract was violated (wrong result, hang, lost event)."""


@dataclass
class ChaosEvent:
    """One scheduled infrastructure fault.

    ``trigger`` is the fleet-wide terminal-request count at which the
    event fires; ``home`` identifies the victim slice for fail/recover.
    """

    action: str
    trigger: int
    home: Optional[int] = None
    fired_cycle: Optional[int] = None
    #: SLICE_DOWN aborts caused (slice-fail only).
    aborted: int = 0

    @property
    def label(self) -> str:
        """The name of the phase this event opens."""
        home = "" if self.home is None else f"-{self.home}"
        return self.action + home


@dataclass
class ChaosReport:
    """One chaos run: the event log, the serving report, and the verdicts."""

    scheme: str
    seed: int
    requests: int
    events: List[Dict[str, object]] = field(default_factory=list)
    serving: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------- #
# The shared harness: schedule driver, contract check, determinism re-run
# ---------------------------------------------------------------------- #


def _drive(target, events, actions, settle, after_tick=None):
    """Run ``target``'s (a server's or a cluster's) load under ``events``.

    An event fires through ``actions[event.action]`` once the terminal
    count reaches its trigger, and opens a phase; ``after_tick`` then sees
    the count.  Triggers past the budget (tiny runs) fire after the run,
    each followed by ``settle()``, so the schedule always completes.
    """
    pending = list(events)

    def fire(event) -> None:
        event.fired_cycle = target.engine.now
        actions[event.action](event)
        target.slo.begin_phase(event.label, target.engine.now)

    def on_tick(_) -> None:
        while pending and target.slo.terminal >= pending[0].trigger:
            fire(pending.pop(0))
        if after_tick is not None:
            after_tick(target.slo.terminal)

    run_report = target.run(on_tick=on_tick)
    while pending:
        fire(pending.pop(0))
        settle()
    return run_report


def _verify_contract(report, drill: str, own, *, hangs, floor, availability):
    """Raise :class:`ChaosError` unless ``report`` meets the drill contract.

    Every drill owes zero wrong results, zero hangs, each ``availability``
    value (scope -> fraction) at or above ``floor``, a completed schedule
    and, when it recorded a client history, a linearizable one with no
    inconclusive key.  ``own`` lists the drill's own checks as
    ``(failed, message)`` pairs.
    """
    checks = report.checks
    shared = [
        (checks["result_errors"], f"{checks['result_errors']} wrong results"),
        (hangs, f"{hangs} requests never reached a terminal outcome (hang)"),
        *(
            (value < floor, f"{scope} availability {value:.4f} below the "
             f"{floor:.4f} floor")
            for scope, value in availability.items()
        ),
        (
            any(event["fired_cycle"] is None for event in report.events),
            "schedule did not complete",
        ),
        (
            not checks.get("history_linearizable", True),
            "per-key history is not linearizable (keys "
            f"{checks.get('history_violations')})",
        ),
        (
            checks.get("history_inconclusive", 0),
            f"{checks.get('history_inconclusive')} keys inconclusive (the "
            "checker's state budget ran out)",
        ),
    ]
    problems = [message for failed, message in shared + own if failed]
    if problems:
        raise ChaosError(
            f"{drill} contract violated on {report.scheme}: "
            + "; ".join(problems)
        )


def _deterministic(run: Callable, repeats: int, what: str):
    """``run()``, then ``repeats - 1`` same-seed re-runs that must dump
    byte-identical reports; returns the first report."""
    report = run()
    for _ in range(max(0, repeats - 1)):
        if run().dump() != report.dump():
            raise ChaosError(
                f"{what} is not deterministic: same-seed re-run produced a "
                "different report"
            )
    return report


def _timed(event, requests: int, plan) -> list:
    """``plan``'s ``(action, percent, victims...)`` rows as ``event``s
    triggered at that share of the budget (the n-th no earlier than the
    n-th terminal request), so the schedule scales with run length."""
    return [
        event(action, max(n, requests * percent // 100), *victims)
        for n, (action, percent, *victims) in enumerate(plan, 1)
    ]


def _count(events, *actions) -> int:
    return sum(1 for event in events if event.action in actions)


def _scheme_names(schemes) -> List[str]:
    return [
        IntegrationScheme.parse(s).value
        for s in (schemes or [IntegrationScheme.CHA_TLB.value])
    ]


# ---------------------------------------------------------------------- #
# Single-machine chaos: slice kills, recoveries and a firmware hot-swap
# ---------------------------------------------------------------------- #


def chaos_schedule(homes: List[int], requests: int) -> List[ChaosEvent]:
    """The canonical event schedule: 2 kills, 2 recoveries, 1 hot-swap.

    Victims are the first two accelerator homes (the same home twice for
    single-home schemes — kill, recover, kill again).
    """
    first = homes[0]
    second = homes[1] if len(homes) > 1 else homes[0]
    return _timed(ChaosEvent, requests, [
        (SLICE_FAIL, 15, first),
        (SLICE_RECOVER, 30, first),
        (SLICE_FAIL, 45, second),
        (SLICE_RECOVER, 60, second),
        (FIRMWARE_SWAP, 75),
    ])


class _Machine:
    """One serving machine under closed-loop load and the canonical
    :func:`chaos_schedule`: the setup, fire actions and report shared by
    the single-machine drills."""

    def __init__(self, scheme: str, *, seed: int, requests: int, serve_config):
        from ..serve import ClosedLoopGenerator, build_serving_system

        self.seed = seed
        self.system, self.built = build_serving_system(
            scheme, seed=seed, serve_config=serve_config
        )
        self.scheme = IntegrationScheme.parse(scheme).value
        self.server = self.system.make_server(
            self.built, serve_config, seed=seed
        )
        per_tenant = max(1, requests // serve_config.tenants)
        for tenant in range(serve_config.tenants):
            self.server.attach(
                ClosedLoopGenerator(
                    tenant,
                    config=serve_config,
                    num_requests=per_tenant,
                    num_queries=len(self.built.queries),
                    seed=seed,
                    stats=self.system.stats,
                )
            )
        self.budget = per_tenant * serve_config.tenants
        self.events = chaos_schedule(
            self.system.integration.accelerator_homes(), self.budget
        )
        self.swap_tickets = []
        self.server.slo.begin_phase("baseline", self.system.engine.now)

    def run(self, after_tick=None):
        actions = {
            SLICE_FAIL: self._fail,
            SLICE_RECOVER: lambda event: self.system.recover_slice(event.home),
            FIRMWARE_SWAP: self._swap,
        }
        return _drive(
            self.server, self.events, actions, self.system.engine.run,
            after_tick,
        )

    def _fail(self, event: ChaosEvent) -> None:
        event.aborted = self.system.fail_slice(event.home)

    def _swap(self, event: ChaosEvent) -> None:
        # Live hot-swap: stop pulling new work, push the open bursts
        # through, then quiesce-and-commit; dispatch resumes at commit.
        server = self.server
        server.pause_dispatch()
        server.batcher.flush_all()
        ticket = self.system.update_firmware(
            [BPlusTreeCfa(), HashOfListsCfa()],
            on_complete=lambda upd: server.resume_dispatch(),
        )
        self.swap_tickets.append(ticket)

    def report(self, serving_report, events, checks) -> ChaosReport:
        """The report over ``events``, with ``checks`` added to the
        checks every single-machine drill carries."""
        aggregate = serving_report.aggregate
        return ChaosReport(
            scheme=self.scheme,
            seed=self.seed,
            requests=self.budget,
            events=[dict(vars(event)) for event in events],
            serving={
                "aggregate": aggregate,
                "phases": serving_report.phases,
                "tenants": serving_report.tenants,
                "elapsed_cycles": serving_report.elapsed_cycles,
            },
            checks={
                "result_errors": aggregate["result_errors"],
                "failed": aggregate["failed"],
                "availability": aggregate["availability"],
                "slice_kills": _count(events, SLICE_FAIL),
                "firmware_swaps": len(self.swap_tickets),
                "swap_committed": all(t.done for t in self.swap_tickets),
                "slice_down_aborts": sum(e.aborted for e in events),
                **checks,
            },
        )


def _verify_machine(report: ChaosReport, drill: str, own) -> None:
    checks = report.checks
    _verify_contract(
        report,
        drill,
        [(not checks["swap_committed"], "firmware hot-swap never committed")]
        + own,
        hangs=checks["failed"],
        floor=1.0,
        availability={"aggregate": checks["availability"]},
    )


def run_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    tenants: int = 4,
    verify: bool = True,
) -> ChaosReport:
    """One closed-loop serving run under the canonical chaos schedule."""
    machine = _Machine(
        scheme, seed=seed, requests=requests,
        serve_config=ServeConfig(tenants=tenants),
    )
    serving_report = machine.run()
    firmware = machine.system.firmware
    report = machine.report(
        serving_report,
        machine.events,
        {
            "slice_recoveries": _count(machine.events, SLICE_RECOVER),
            "extension_programs_live": firmware.supports(
                BPlusTreeCfa.TYPE_CODE
            ) and firmware.supports(HashOfListsCfa.TYPE_CODE),
        },
    )
    if verify:
        _verify(report)
    return report


def _verify(report: ChaosReport) -> None:
    live = report.checks["extension_programs_live"]
    _verify_machine(report, "chaos", [
        (not live, "extension programs missing after hot-swap"),
    ])


def run_mutation_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    tenants: int = 4,
    write_ratio: float = 0.5,
    verify: bool = True,
) -> ChaosReport:
    """The mixed read/write chaos run (docs/mutations.md).

    The canonical slice-kill/recover/hot-swap schedule runs unchanged, but
    every tenant issues ``write_ratio`` of its requests as accelerated
    INSERT/UPDATE/DELETE traffic, and one full online hash-table resize is
    driven to completion mid-run: started at 20% of the budget, migrating
    one chunk per terminal request, committed (through the accelerator
    quiesce) the moment the migration drains.  On top of the read-only
    contract the run must show **zero wrong reads** (every read value was
    plausibly visible in the shadow oracle's timeline) and **zero lost or
    phantom updates** (the drained structure equals the oracle's
    sequential final state).
    """
    machine = _Machine(
        scheme, seed=seed, requests=requests,
        serve_config=ServeConfig(tenants=tenants, write_ratio=write_ratio),
    )
    system, server, budget = machine.system, machine.server, machine.budget
    resizer = system.start_resize(
        machine.built.mutable_structure(), chunk_buckets=8
    )
    resize_start = ChaosEvent(RESIZE_START, max(1, budget * 20 // 100))
    resize_commit = ChaosEvent(RESIZE_COMMIT, resize_start.trigger)
    resize = {"stepped_at": -1, "committing": False}

    def commit_resize() -> None:
        # Mirror the firmware hot-swap: stop pulling new work, push the
        # open bursts through, quiesce-and-flip, resume at commit.
        resize["committing"] = True
        server.pause_dispatch()
        server.batcher.flush_all()

        def committed() -> None:
            resize_commit.fired_cycle = system.engine.now
            server.resume_dispatch()

        resizer.commit(on_complete=committed)

    def drive_resize(terminal: int) -> None:
        if resize["committing"]:
            return
        if resize_start.fired_cycle is None:
            if terminal >= resize_start.trigger:
                resize_start.fired_cycle = system.engine.now
                resizer.start()
                server.slo.begin_phase("resize", system.engine.now)
        elif not resizer.finished:
            # One chunk per terminal request: the migration overlaps live
            # reads and writes instead of completing inside one tick.
            if terminal > resize["stepped_at"]:
                resize["stepped_at"] = terminal
                resizer.step()
        else:
            commit_resize()

    serving_report = machine.run(after_tick=drive_resize)
    if resize_commit.fired_cycle is None:
        # Tiny runs can drain the budget before the migration does; finish
        # the protocol so the run always includes one *complete* resize.
        if resize_start.fired_cycle is None:
            resize_start.fired_cycle = system.engine.now
            resizer.start()
        while not resizer.finished:
            resizer.step()
        if not resize["committing"]:
            commit_resize()
        system.engine.run()

    oracle = server._oracle
    report = machine.report(
        serving_report,
        machine.events + [resize_start, resize_commit],
        {
            "write_ratio": write_ratio,
            "reads_checked": oracle.reads_checked,
            "wrong_reads": oracle.wrong_reads,
            "writes_tracked": oracle.writes_tracked,
            "lost_or_phantom": len(server.write_problems or []),
            "write_problems": list(server.write_problems or []),
            "resize_committed": resizer.committed,
        },
    )
    if verify:
        _verify_mutation(report)
    return report


def _verify_mutation(report: ChaosReport) -> None:
    checks = report.checks
    _verify_machine(
        report,
        f"mutation chaos (write_ratio={checks['write_ratio']})",
        [
            (checks["wrong_reads"], f"{checks['wrong_reads']} wrong reads"),
            (
                checks["lost_or_phantom"],
                f"{checks['lost_or_phantom']} lost/phantom updates: "
                + "; ".join(checks["write_problems"][:3]),
            ),
            (not checks["resize_committed"], "online resize never committed"),
        ],
    )


def chaos_experiment(
    *,
    schemes=None,
    seed: int = 7,
    requests: int = 400,
    tenants: int = 4,
    repeats: int = 2,
):
    """Chaos campaign: slice kills, recoveries and a live firmware swap
    under closed-loop load, with a same-seed determinism re-run."""
    from ..analysis.report import ExperimentResult

    scheme_names = _scheme_names(schemes)
    result = ExperimentResult(
        "chaos",
        (
            f"{requests} closed-loop requests x {tenants} tenants under "
            f"2 slice kills + 2 recoveries + 1 firmware hot-swap (seed {seed})"
        ),
        [
            "scheme",
            "phase",
            "admitted",
            "completed",
            "shed",
            "availability",
            "p99",
            "aborts",
            "errors",
        ],
    )

    def add_row(scheme, phase, counts, aborts="", errors="") -> None:
        # ``counts`` is one phase's row or the whole run's aggregate.
        result.add_row(
            scheme=scheme,
            phase=phase,
            admitted=counts["admitted"],
            completed=counts["completed"],
            shed=counts["deadline_shed"],
            availability=counts["availability"],
            p99=counts["p99"],
            aborts=aborts,
            errors=errors,
        )

    for scheme in scheme_names:
        report = _deterministic(
            partial(
                run_chaos, scheme, seed=seed, requests=requests,
                tenants=tenants,
            ),
            repeats,
            f"chaos run on {scheme}",
        )
        for phase in report.serving["phases"]:
            add_row(scheme, phase["name"], phase)
        checks = report.checks
        add_row(
            scheme, "all", report.serving["aggregate"],
            checks["slice_down_aborts"], checks["result_errors"],
        )
    # Mixed read/write phase (docs/mutations.md): the same schedule plus
    # one full online resize, under 95/5 and 50/50 write mixes.
    mixed_scheme = scheme_names[0]
    for label, write_ratio in (("mixed-95/5", 0.05), ("mixed-50/50", 0.5)):
        report = _deterministic(
            partial(
                run_mutation_chaos, mixed_scheme, seed=seed,
                requests=requests, tenants=tenants, write_ratio=write_ratio,
            ),
            repeats,
            f"mutation chaos run on {mixed_scheme}",
        )
        checks = report.checks
        add_row(
            mixed_scheme, label, report.serving["aggregate"],
            checks["slice_down_aborts"],
            checks["wrong_reads"] + checks["lost_or_phantom"],
        )
    result.notes.append(
        "contract: zero wrong results, zero hangs (availability 1.0), "
        "firmware swap commits with extension programs live"
    )
    result.notes.append(
        "mixed phases: accelerated writes under the same schedule plus one "
        "full online resize — zero wrong reads, zero lost/phantom updates "
        "(errors column = wrong reads + lost/phantom)"
    )
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical "
        "chaos reports"
    )
    return result


# ---------------------------------------------------------------------- #
# Cluster chaos: whole-node and network faults over the replicated tier
# ---------------------------------------------------------------------- #


@dataclass
class ClusterChaosEvent:
    """One scheduled cluster-scope fault (or its recovery).

    ``trigger`` is the fleet-wide terminal-request count at which the
    event fires; ``nodes`` lists the victims (one for kill/flap/recover,
    several for a partition, empty for the heal).
    """

    action: str
    trigger: int
    nodes: List[int] = field(default_factory=list)
    fired_cycle: Optional[int] = None
    #: In-flight requests lost to a kill/flap (the LB re-drives them).
    lost: int = 0

    @property
    def label(self) -> str:
        """The name of the phase this event opens."""
        return "-".join([self.action, *map(str, self.nodes)])


@dataclass
class ClusterChaosReport:
    """One cluster-chaos run: events, the cluster report, the verdicts."""

    scheme: str
    seed: int
    nodes: int
    replication: int
    requests: int
    events: List[Dict[str, object]] = field(default_factory=list)
    cluster: Dict[str, object] = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)

    def dump(self) -> str:
        """Canonical JSON (byte-identical across same-seed runs)."""
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"))


def cluster_chaos_schedule(
    nodes: int, requests: int
) -> List[ClusterChaosEvent]:
    """The canonical cluster schedule: a kill, a flap, and a partition.

    Victims are spread deterministically over the fleet: the kill takes
    node 0, the partition isolates the two highest node ids, and the flap
    takes the middle node (stepping to node 1 when the middle falls inside
    the partition set, as it does on tiny fleets).
    """
    if nodes < 4:
        raise ChaosError(
            f"cluster chaos needs at least 4 nodes, got {nodes}"
        )
    partitioned = [nodes - 2, nodes - 1]
    kill_victim = 0
    flap_victim = nodes // 2
    if flap_victim in partitioned or flap_victim == kill_victim:
        flap_victim = 1
    return _timed(ClusterChaosEvent, requests, [
        (NODE_KILL, 15, [kill_victim]),
        (NODE_FLAP, 30, [flap_victim]),
        (NODE_RECOVER, 45, [kill_victim]),
        (NET_PARTITION, 60, partitioned),
        (NET_HEAL, 75),
    ])


class _Fleet:
    """A cluster under a cluster-scope schedule, recording the client
    history: the setup, shared fire actions and report of the cluster drills.

    It probes faster and times out sooner than the library defaults, so
    one run walks victims through the full UP -> SUSPECT -> DOWN -> UP
    lifecycle and failover latency stays near service latency; ``config``
    sets the other ``ClusterConfig`` fields.
    """

    def __init__(
        self, scheme: str, *, seed: int, requests: int, schedule,
        serve_config: ServeConfig, **config,
    ):
        from ..serve.cluster import SimulatedCluster

        self.seed = seed
        self.config = ClusterConfig(
            probe_interval_cycles=1_024,
            probe_timeout_cycles=256,
            request_timeout_cycles=8_192,
            timeout_embargo_cycles=2_048,
            **config,
        )
        self.cluster = SimulatedCluster(
            scheme,
            cluster_config=self.config,
            serve_config=serve_config,
            seed=seed,
            requests=requests,
        )
        self.recorder = self.cluster.attach_history()
        self.budget = self.cluster.requests
        self.events = schedule(self.config.nodes, self.budget)

    def run(self, actions):
        cluster = self.cluster
        return _drive(
            cluster, self.events, actions,
            lambda: cluster.drain(2 * FLAP_OUTAGE_CYCLES),
        )

    def kill(self, event: ClusterChaosEvent) -> None:
        event.lost = self.cluster.fail_node(event.nodes[0])

    def partition(self, event: ClusterChaosEvent) -> None:
        self.cluster.partition(event.nodes)

    def report(self, cluster_report, verdict, checks) -> ClusterChaosReport:
        """The report, with ``checks`` added to the checks every cluster
        drill carries (``verdict`` is the client history's)."""
        fleet = cluster_report.fleet
        phases = cluster_report.phases
        terminal = fleet["completed"] + fleet["failed"] + fleet["giveups"]
        return ClusterChaosReport(
            scheme=self.cluster.scheme,
            seed=self.seed,
            nodes=self.config.nodes,
            replication=self.config.replication,
            requests=self.budget,
            events=[dict(vars(event)) for event in self.events],
            cluster={
                "fleet": fleet,
                "phases": phases,
                "tenants": cluster_report.tenants,
                "node_rows": cluster_report.node_rows,
                "membership_log": cluster_report.membership_log,
                "rebalances": cluster_report.rebalances,
                "elapsed_cycles": cluster_report.elapsed_cycles,
            },
            checks={
                "result_errors": fleet["result_errors"],
                "availability": fleet["availability"],
                "min_phase_availability": min(
                    phase["availability"] for phase in phases
                ),
                "availability_floor": self.config.availability_floor,
                "terminal": terminal,
                "budget": self.budget,
                "issued_resolved": fleet["issued"]
                == fleet["completed"] + fleet["failed"],
                "history_ops": verdict.ops,
                "history_linearizable": verdict.linearizable,
                "history_violations": sorted(verdict.violations),
                "history_inconclusive": len(verdict.inconclusive),
                "lost_inflight": fleet["lost_inflight"],
                "timeouts": fleet["timeouts"],
                "retries": fleet["retries"],
                **checks,
            },
        )


def _verify_fleet(report: ClusterChaosReport, drill: str, own) -> None:
    checks = report.checks
    _verify_contract(
        report,
        drill,
        [(
            not checks["issued_resolved"],
            "issued requests unaccounted for at the LB (hang)",
        )] + own,
        hangs=checks["budget"] - checks["terminal"],
        floor=checks["availability_floor"],
        availability={
            "phase": checks["min_phase_availability"],
            "aggregate": checks["availability"],
        },
    )


def run_cluster_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 10,
    replication: int = 2,
    tenants: int = 4,
    verify: bool = True,
) -> ClusterChaosReport:
    """One cluster run under the canonical kill/flap/partition schedule."""
    fleet = _Fleet(
        scheme,
        seed=seed,
        requests=requests,
        schedule=cluster_chaos_schedule,
        serve_config=ServeConfig(tenants=tenants),
        nodes=nodes,
        replication=replication,
        availability_floor=CLUSTER_AVAILABILITY_FLOOR,
    )
    cluster = fleet.cluster

    def flap(event: ClusterChaosEvent) -> None:
        victim = event.nodes[0]
        event.lost = cluster.fail_node(victim)
        # The flap restarts on a cycle timer (not a request-count
        # trigger): a short outage that may race the DOWN marking.
        cluster.engine.schedule(
            FLAP_OUTAGE_CYCLES, lambda: cluster.recover_node(victim)
        )

    cluster_report = fleet.run({
        NODE_KILL: fleet.kill,
        NODE_FLAP: flap,
        NODE_RECOVER: lambda event: cluster.recover_node(event.nodes[0]),
        NET_PARTITION: fleet.partition,
        NET_HEAL: lambda event: cluster.heal(),
    })
    report = fleet.report(
        cluster_report,
        fleet.recorder.check(),
        {
            "node_kills": _count(fleet.events, NODE_KILL, NODE_FLAP),
            "partitions": _count(fleet.events, NET_PARTITION),
            "membership_transitions": len(cluster_report.membership_log),
        },
    )
    if verify:
        _verify_cluster(report)
    return report


def _verify_cluster(report: ClusterChaosReport) -> None:
    _verify_fleet(report, "cluster chaos", [])


def _cluster_phase_table(name, title, schemes, run, repeats, what):
    """One row per phase plus an "all" row for each scheme's run (re-run
    ``repeats`` times for determinism); returns the table and the
    ``(scheme, report)`` pairs."""
    from ..analysis.report import ExperimentResult

    result = ExperimentResult(
        name,
        title,
        [
            "scheme",
            "phase",
            "issued",
            "completed",
            "failed",
            "giveups",
            "availability",
            "p99",
        ],
    )
    reports = []
    for scheme in _scheme_names(schemes):
        report = _deterministic(
            partial(run, scheme), repeats, f"{what} run on {scheme}"
        )
        # The "all" row reads the fleet totals, which carry no p99.
        for phase in report.cluster["phases"] + [
            dict(report.cluster["fleet"], name="all", p99="")
        ]:
            result.add_row(
                scheme=scheme,
                phase=phase["name"],
                issued=phase["issued"],
                completed=phase["completed"],
                failed=phase["failed"],
                giveups=phase["giveups"],
                availability=phase["availability"],
                p99=phase["p99"],
            )
        reports.append((scheme, report))
    return result, reports


def cluster_chaos_experiment(
    *,
    schemes=None,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 10,
    replication: int = 2,
    tenants: int = 4,
    repeats: int = 2,
):
    """Cluster chaos campaign: node kill, node flap and a network
    partition over the replicated serving tier, with a same-seed
    determinism re-run."""
    result, _ = _cluster_phase_table(
        "cluster-chaos",
        (
            f"{requests} closed-loop requests x {tenants} tenants over "
            f"{nodes} nodes (R={replication}) under 1 node kill + 1 node "
            f"flap + 1 network partition (seed {seed})"
        ),
        schemes,
        partial(
            run_cluster_chaos, seed=seed, requests=requests, nodes=nodes,
            replication=replication, tenants=tenants,
        ),
        repeats,
        "cluster chaos",
    )
    result.notes.append(
        "contract: zero wrong results, zero hangs (every request terminal), "
        f"availability >= floor in every phase; fleet of {nodes} full-"
        "machine nodes on one shared event engine"
    )
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical "
        "cluster chaos reports"
    )
    return result


# ---------------------------------------------------------------------- #
# Recovery chaos: durability of acknowledged writes under crash/recovery
# ---------------------------------------------------------------------- #


def recovery_chaos_schedule(
    nodes: int, requests: int
) -> List[ClusterChaosEvent]:
    """The durability schedule: two crash legs over a mixed write run.

    Leg one exercises incremental replay: the primary-heavy node 0 dies
    mid-mix, a replica lags behind the apply stream, and the recovered
    node rejoins by replaying peers' commit logs (hinted handoff).  Leg
    two exercises gap detection: node 2 dies, its commit log is truncated
    while it is down, and its recovery must detect the ordinal gap and
    full-resync instead of serving a stale history.  A partition of the
    highest node id stretches quorum waits in between.
    """
    if nodes < 4:
        raise ChaosError(
            f"recovery chaos needs at least 4 nodes, got {nodes}"
        )
    return _timed(ClusterChaosEvent, requests, [
        (NODE_KILL, 12, [0]),
        (REPLICA_LAG, 25, [1]),
        (NODE_RECOVER, 40, [0]),
        (NET_PARTITION, 55, [nodes - 1]),
        (NET_HEAL, 70),
        (NODE_KILL, 75, [2]),
        (LOG_TRUNCATE, 82, [2]),
        (NODE_RECOVER, 90, [2]),
    ])


def run_recovery_chaos(
    scheme: str,
    *,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 6,
    replication: int = 2,
    quorum: int = 2,
    tenants: int = 4,
    write_ratio: float = 0.5,
    verify: bool = True,
) -> ClusterChaosReport:
    """One mixed-workload cluster run under the durability schedule.

    The contract (docs/recovery.md): **zero lost acknowledged writes** —
    after every node recovers and replication drains, each written key's
    natural replicas hold one converged value, and that value is among
    the finals some linearization of the recorded client history allows.
    The per-key history itself must be linearizable.
    """
    from ..serve.cluster.membership import NodeState

    fleet = _Fleet(
        scheme,
        seed=seed,
        requests=requests,
        schedule=recovery_chaos_schedule,
        serve_config=ServeConfig(tenants=tenants, write_ratio=write_ratio),
        nodes=nodes,
        replication=replication,
        availability_floor=RECOVERY_AVAILABILITY_FLOOR,
        write_quorum=quorum,
    )
    cluster = fleet.cluster

    def recover_when_down(victim: int) -> None:
        # A dead node restarting before the fleet marks it DOWN would
        # take the plain-restart path and skip catch-up; hold the restart
        # until the failure detector has converged (probe-interval poll,
        # deterministic).
        if (
            not cluster.nodes[victim].alive
            and cluster.membership.state_of(victim) is not NodeState.DOWN
        ):
            cluster.engine.schedule(
                cluster.config.probe_interval_cycles,
                lambda: recover_when_down(victim),
            )
            return
        cluster.recover_node(victim)

    def heal(event: ClusterChaosEvent) -> None:
        cluster.heal()
        # The heal also lifts any standing apply-stream lag.
        for node in range(nodes):
            cluster.inject_replica_lag(node, 0)

    def truncate_log(event: ClusterChaosEvent) -> None:
        # Drop the dead node's entire commit log: recovery must see
        # the ordinal gap (structure version past the log's tail).
        event.lost = cluster.truncate_log(event.nodes[0], 1 << 30)

    cluster_report = fleet.run({
        NODE_KILL: fleet.kill,
        NODE_RECOVER: lambda event: recover_when_down(event.nodes[0]),
        REPLICA_LAG: lambda event: cluster.inject_replica_lag(
            event.nodes[0], REPLICA_LAG_CYCLES
        ),
        NET_PARTITION: fleet.partition,
        NET_HEAL: heal,
        LOG_TRUNCATE: truncate_log,
    })
    # Let deferred restarts land, then let the recoveries catch up and
    # every apply stream drain, before judging convergence (bounded).
    for _ in range(16):
        if all(node.alive for node in cluster.nodes):
            break
        cluster.drain(RECOVERY_DRAIN_CYCLES)
    replication_settled = cluster.drain_replication(RECOVERY_DRAIN_CYCLES)

    verdict = fleet.recorder.check()
    written = fleet.recorder.written_keys()
    finals = cluster.final_values(written)
    diverged = sorted(
        pos for pos, values in finals.items()
        if len(set(values.values())) > 1
    )
    lost_acked = sorted(
        pos
        for pos, values in finals.items()
        if not set(values.values())
        <= verdict.possible_finals.get(pos, frozenset())
    )
    replication_stats = cluster_report.fleet.get("replication", {})
    report = fleet.report(
        cluster_report,
        verdict,
        {
            "write_quorum": quorum,
            "replication_settled": replication_settled,
            "written_keys": len(written),
            "diverged_keys": diverged,
            "lost_acked_writes": lost_acked,
            "write_problems": cluster.write_audit(),
            "recoveries": len(cluster.recoveries),
            "node_kills": _count(fleet.events, NODE_KILL),
            "gaps_detected": replication_stats.get("gaps_detected", 0),
            "resyncs": replication_stats.get("resyncs", 0),
            "hint_overflows": replication_stats.get("hint_overflows", 0),
            "shipped": replication_stats.get("shipped", 0),
            "applies": replication_stats.get("applies", 0),
            "all_nodes_up": all(
                cluster.membership.state_of(node) is NodeState.UP
                for node in range(nodes)
            ),
        },
    )
    if verify:
        _verify_recovery(report)
    return report


def _verify_recovery(report: ClusterChaosReport) -> None:
    checks = report.checks
    _verify_fleet(
        report,
        "recovery chaos",
        [
            (
                not checks["replication_settled"],
                "replication did not settle after the drain",
            ),
            (
                checks["lost_acked_writes"],
                "acknowledged writes lost on keys "
                f"{checks['lost_acked_writes']}",
            ),
            (
                checks["diverged_keys"],
                f"replicas diverged on keys {checks['diverged_keys']}",
            ),
            (
                checks["write_problems"],
                f"shadow-oracle write audit: {checks['write_problems']}",
            ),
            (
                checks["recoveries"] < checks["node_kills"],
                f"only {checks['recoveries']} of {checks['node_kills']} "
                "killed nodes completed catch-up",
            ),
            (not checks["all_nodes_up"], "a node ended the run below UP"),
            (
                checks["gaps_detected"] < 1 or checks["resyncs"] < 1,
                "the truncated-log leg exercised no gap detection / resync "
                f"(gaps={checks['gaps_detected']}, "
                f"resyncs={checks['resyncs']})",
            ),
        ],
    )


def recovery_chaos_experiment(
    *,
    schemes=None,
    seed: int = 7,
    requests: int = 400,
    nodes: int = 6,
    replication: int = 2,
    quorum: int = 2,
    tenants: int = 4,
    repeats: int = 2,
):
    """Durability campaign: crash/recover the primary mid write mix, lag a
    replica, truncate a commit log, and assert zero lost acknowledged
    writes plus a linearizable per-key history, with a same-seed
    determinism re-run."""
    result, reports = _cluster_phase_table(
        "recovery-chaos",
        (
            f"{requests} mixed read/write requests x {tenants} tenants "
            f"over {nodes} nodes (R={replication}, W={quorum}) under 2 "
            "node crashes + replica lag + 1 partition + 1 log truncation "
            f"(seed {seed})"
        ),
        schemes,
        partial(
            run_recovery_chaos, seed=seed, requests=requests, nodes=nodes,
            replication=replication, quorum=quorum, tenants=tenants,
        ),
        repeats,
        "recovery chaos",
    )
    for scheme, report in reports:
        checks = report.checks
        result.notes.append(
            f"{scheme}: {checks['history_ops']} client ops over "
            f"{checks['written_keys']} written keys -- history "
            "linearizable, 0 lost acknowledged writes, 0 diverged "
            f"replicas; {checks['recoveries']} crash recoveries "
            f"({checks['resyncs']} full resyncs after "
            f"{checks['gaps_detected']} detected log gaps)"
        )
    result.notes.append(
        "contract: every write acknowledged at quorum W survives both "
        "crashes; recovered nodes replay peers' commit logs (or full-"
        "resync on a truncated log) before re-entering the ring"
    )
    result.notes.append(
        f"determinism: {repeats} same-seed runs produced byte-identical "
        "recovery chaos reports"
    )
    return result
