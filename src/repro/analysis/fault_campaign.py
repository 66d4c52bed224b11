"""Seeded fault-injection campaign across workloads x integration schemes.

The campaign's invariant — the robustness contract this reproduction makes
about the QEI stack — is that **no hostile input escapes the architecture**:

* every injected fault either aborts with a documented
  :class:`~repro.core.abort.AbortCode` or is provably masked (the query
  completes with the un-faulted oracle's answer);
* every aborted query's software fallback returns the oracle answer within
  the retry budget;
* no Python exception escapes and no query hangs (the CFA watchdog bounds
  every walk);
* the same seed reproduces the identical per-outcome counter vector.

Run it from the shell::

    python -m repro fault-campaign --seed 7 --faults 1000
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import SCHEME_ORDER, IntegrationScheme, small_config
from ..core.abort import AbortCode
from ..core.accelerator import QueryRequest, QueryStatus
from ..core.cfa import RESULT_ABORTED
from ..core.isa import read_result
from ..errors import ReproError
from ..core.cfa import OP_UPDATE
from ..core.header import VERSION_OFFSET
from ..faults import FaultInjector, FaultKind
from ..faults.injector import MASKABLE_KINDS, WRITE_KINDS
from ..system import System
from ..workloads import make_workload
from .report import ExperimentResult

#: Workload sizes for the campaign: small enough that a fault resolves in
#: milliseconds, big enough that structures span several pages and levels.
CAMPAIGN_WORKLOADS: Dict[str, dict] = {
    "dpdk": dict(num_flows=192, num_buckets=128, num_queries=24, zipf=False),
    "jvm": dict(num_objects=192, num_queries=24),
    "rocksdb": dict(num_items=128, num_queries=24),
    "snort": dict(num_keywords=48, payload_bytes=96, num_queries=6),
    "flann": dict(num_tables=3, num_items=96, num_points=6, num_buckets=64),
}

#: CEE step budget for campaign systems: far above any legitimate campaign
#: walk (the longest, snort's 96B Aho-Corasick scan, needs ~1k steps) but
#: small enough that an injected pointer cycle aborts in milliseconds.
CAMPAIGN_WATCHDOG_STEPS = 10_000

#: Non-blocking queries submitted per interrupt-flush event.
FLUSH_BATCH = 4

#: Cycles after the abort at which the "OS" repairs an unmapped page, so
#: the fallback's first retry genuinely fails and the backoff is exercised.
PAGE_REPAIR_DELAY = 100


class CampaignViolation(ReproError):
    """The campaign's robustness invariant was broken."""


@dataclass
class _Target:
    """One (workload, scheme) system under test, built lazily."""

    system: System
    workload: object
    injector: FaultInjector
    nb_result_base: int
    #: StructureMutator, built on first write-path fault (mutation-capable
    #: workloads only).
    mutator: Optional[object] = None
    #: Online resizes committed against this target so far.  Each
    #: RESIZE_STALL fault ends in a committed doubling; unbounded doublings
    #: would dilute the fixed entry population until the injector's bounded
    #: discovery scans stop finding occupied slots, so the handler masks
    #: once the table has grown enough.
    resizes: int = 0


def _build_target(
    workload_name: str, scheme: str, rng: random.Random
) -> _Target:
    cfg = small_config(2)
    cfg = cfg.replace(
        qei=dataclasses.replace(cfg.qei, watchdog_steps=CAMPAIGN_WATCHDOG_STEPS)
    )
    system = System(cfg, scheme)
    workload = make_workload(workload_name, system, **CAMPAIGN_WORKLOADS[workload_name])
    injector = FaultInjector(system.space, rng=rng)
    nb_result_base = system.mem.alloc(16 * FLUSH_BATCH, align=64)
    return _Target(system, workload, injector, nb_result_base)


# --------------------------------------------------------------------- #
# Per-fault protocol
# --------------------------------------------------------------------- #


def _run_memory_fault(
    target: _Target, kind: FaultKind, qidx: int, counts: Dict[str, int]
) -> Optional[str]:
    """Inject one memory-state fault, run the query, enforce the invariant.

    Returns a violation description, or None when the contract held.
    """
    system, wl, injector = target.system, target.workload, target.injector
    oracle = wl.expected[qidx]
    fault = injector.inject(kind, wl.header_addr_for(qidx))
    request = QueryRequest(
        header_addr=wl.header_addr_for(qidx),
        key_addr=wl._query_addrs[qidx],
        blocking=True,
    )
    if kind is FaultKind.PAGE_UNMAP:
        # Leave the damage in place briefly: the first software retry hits
        # the still-missing page and the exponential backoff does real work.
        # The repair event checks the injector's epoch so that, if this
        # fault resolves before the event fires, it cannot heal a later one.
        epoch = injector.epoch

        def repair() -> None:
            if injector.epoch == epoch:
                injector.heal()

        before_retry = lambda: system.engine.schedule(  # noqa: E731
            PAGE_REPAIR_DELAY, repair
        )
    else:
        before_retry = injector.heal
    try:
        outcome = system.fallback.execute(
            request, lambda: wl.software_lookup(qidx), before_retry=before_retry
        )
    finally:
        if injector.armed:
            injector.heal()

    if outcome.accelerated:
        if kind not in MASKABLE_KINDS:
            return (
                f"{kind.value}: header fault must abort, but the query "
                f"completed with {outcome.value!r}"
            )
        if outcome.value == oracle:
            counts["masked"] = counts.get("masked", 0) + 1
            return None
        if kind is FaultKind.KEY_FLIP:
            # Silent data corruption: the only kind allowed to complete
            # with a wrong answer.  The oracle cross-check catches it and
            # the healed software path must agree with the oracle.
            if wl.software_lookup(qidx) != oracle:
                return f"{kind.value}: healed software result disagrees with oracle"
            counts["mismatch-detected"] = counts.get("mismatch-detected", 0) + 1
            return None
        return (
            f"{kind.value}: silent wrong answer {outcome.value!r} "
            f"(oracle {oracle!r})"
        )

    code = outcome.abort_code
    if code not in fault.expected:
        return (
            f"{kind.value}: aborted with {code.name}, expected one of "
            f"{[c.name for c in fault.expected]}"
        )
    if not outcome.resolved:
        return f"{kind.value}: software fallback exhausted its retry budget"
    if outcome.value != oracle:
        return (
            f"{kind.value}: fallback returned {outcome.value!r}, "
            f"oracle {oracle!r}"
        )
    counts[f"abort.{code.name.lower()}"] = (
        counts.get(f"abort.{code.name.lower()}", 0) + 1
    )
    return None


def _run_flush_fault(
    target: _Target, rng: random.Random, counts: Dict[str, int]
) -> Optional[str]:
    """Raise an interrupt with non-blocking queries in flight."""
    system, wl = target.system, target.workload
    space = system.space
    indices = [rng.randrange(len(wl.queries)) for _ in range(FLUSH_BATCH)]
    handles = []
    for j, qidx in enumerate(indices):
        result_addr = target.nb_result_base + 16 * j
        space.write_u64(result_addr, 0)  # RESULT_PENDING
        space.write_u64(result_addr + 8, 0)
        handles.append(
            system.accelerator.submit(
                QueryRequest(
                    header_addr=wl.header_addr_for(qidx),
                    key_addr=wl._query_addrs[qidx],
                    blocking=False,
                    result_addr=result_addr,
                ),
                system.engine.now,
            )
        )
    # Let an arbitrary amount of progress happen: depending on the scheme's
    # submit latency the queries are queued, in the QST mid-walk, or done.
    system.engine.advance(rng.randrange(1, 400))
    finish = system.accelerator.flush()
    system.engine.run(until=max(finish, system.engine.now))

    aborted = 0
    for j, (qidx, handle) in enumerate(zip(indices, handles)):
        if not handle.done:
            # Completed before the flush but its completion event posts
            # later, or still in the submit network (it escaped the flush
            # entirely and will execute normally) — either way, settle it.
            system.accelerator.wait_for(handle)
        oracle = wl.expected[qidx]
        if handle.status is QueryStatus.ABORTED:
            aborted += 1
            if handle.abort_code is not AbortCode.FLUSH:
                return f"flush: aborted handle carries {handle.abort_code.name}"
            status, _, code = read_result(space, target.nb_result_base + 16 * j)
            if status == RESULT_ABORTED and code is not AbortCode.FLUSH:
                return f"flush: result record holds {code.name}, not FLUSH"
            outcome = system.fallback.run_software(
                lambda qi=qidx: wl.software_lookup(qi),
                abort_code=AbortCode.FLUSH,
            )
            if not outcome.resolved or outcome.value != oracle:
                return (
                    f"flush: fallback returned {outcome.value!r}, "
                    f"oracle {oracle!r}"
                )
        elif handle.value != oracle:
            return (
                f"flush: completed query returned {handle.value!r}, "
                f"oracle {oracle!r}"
            )
    key = "abort.flush" if aborted else "masked"
    counts[key] = counts.get(key, 0) + 1
    return None


def _submit_nb_batch(
    target: _Target, rng: random.Random
) -> Tuple[List[int], List]:
    """FLUSH_BATCH non-blocking queries in flight, result records cleared."""
    system, wl = target.system, target.workload
    indices = [rng.randrange(len(wl.queries)) for _ in range(FLUSH_BATCH)]
    handles = []
    for j, qidx in enumerate(indices):
        result_addr = target.nb_result_base + 16 * j
        system.space.write_u64(result_addr, 0)  # RESULT_PENDING
        system.space.write_u64(result_addr + 8, 0)
        handles.append(
            system.accelerator.submit(
                QueryRequest(
                    header_addr=wl.header_addr_for(qidx),
                    key_addr=wl._query_addrs[qidx],
                    blocking=False,
                    result_addr=result_addr,
                ),
                system.engine.now,
            )
        )
    return indices, handles


def _settle_one(
    target: _Target, label: str, qidx: int, handle
) -> Optional[str]:
    """Settle one handle post-fault: SLICE_DOWN -> fallback, else oracle."""
    system, wl = target.system, target.workload
    oracle = wl.expected[qidx]
    if not handle.done:
        system.accelerator.wait_for(handle)
    if handle.status is QueryStatus.ABORTED:
        if handle.abort_code is not AbortCode.SLICE_DOWN:
            return f"{label}: aborted handle carries {handle.abort_code.name}"
        outcome = system.fallback.run_software(
            lambda qi=qidx: wl.software_lookup(qi),
            abort_code=AbortCode.SLICE_DOWN,
        )
        if not outcome.resolved or outcome.value != oracle:
            return (
                f"{label}: fallback returned {outcome.value!r}, "
                f"oracle {oracle!r}"
            )
        return "aborted"
    if handle.value != oracle:
        return (
            f"{label}: completed query returned {handle.value!r}, "
            f"oracle {oracle!r}"
        )
    return None


def _run_slice_fault(
    target: _Target,
    rng: random.Random,
    counts: Dict[str, int],
    *,
    flap: bool,
) -> Optional[str]:
    """Kill a slice with queries in flight; flap recovers it immediately."""
    system = target.system
    label = "slice-flap" if flap else "slice-fail"
    indices, handles = _submit_nb_batch(target, rng)
    system.engine.advance(rng.randrange(1, 400))
    homes = system.integration.accelerator_homes()
    victim = homes[rng.randrange(len(homes))]
    system.fail_slice(victim)
    if flap:
        # Fail/recover inside the same window: queries the kill caught
        # still abort, but routing snaps straight back to the full set.
        system.recover_slice(victim)
    aborted = 0
    try:
        for qidx, handle in zip(indices, handles):
            verdict = _settle_one(target, label, qidx, handle)
            if verdict == "aborted":
                aborted += 1
            elif verdict:
                return verdict
    finally:
        if not flap:
            system.recover_slice(victim)
    # Recovery must restore routing: a blocking probe query on the healed
    # machine has to complete against the oracle.
    probe = rng.randrange(len(target.workload.queries))
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=target.workload.header_addr_for(probe),
            key_addr=target.workload._query_addrs[probe],
            blocking=True,
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    if (
        handle.status is QueryStatus.ABORTED
        or handle.value != target.workload.expected[probe]
    ):
        return f"{label}: post-recovery probe did not match the oracle"
    key = "abort.slice_down" if aborted else "masked"
    counts[key] = counts.get(key, 0) + 1
    return None


def _run_firmware_swap_fault(
    target: _Target, rng: random.Random, counts: Dict[str, int]
) -> Optional[str]:
    """Hot-swap firmware with queries in flight: drain, commit, no aborts."""
    from ..core.programs import HashOfListsCfa
    from ..core.programs_ext import BPlusTreeCfa

    system = target.system
    indices, handles = _submit_nb_batch(target, rng)
    system.engine.advance(rng.randrange(1, 400))
    ticket = system.update_firmware([BPlusTreeCfa(), HashOfListsCfa()])
    system.engine.run()
    if not ticket.done:
        return "firmware-swap: ticket never committed after drain"
    for qidx, handle in zip(indices, handles):
        verdict = _settle_one(target, "firmware-swap", qidx, handle)
        if verdict == "aborted":
            return "firmware-swap: a quiesced query aborted instead of draining"
        if verdict:
            return verdict
    counts["firmware-swap"] = counts.get("firmware-swap", 0) + 1
    return None


def _ensure_mutator(target: _Target):
    """Lazily arm the write path on a mutation-capable target."""
    if target.mutator is None:
        target.system.enable_mutations()
        target.mutator = target.workload.make_mutator()
    return target.mutator


def _present_key(target: _Target, rng: random.Random):
    """A (key, stored value) pair the structure is known to hold."""
    wl = target.workload
    present = [i for i in range(len(wl.queries)) if wl.expected[i] is not None]
    if not present:
        return None, None
    qidx = present[rng.randrange(len(present))]
    return wl.key_for(qidx), wl.expected[qidx]


def _run_write_abort_fault(
    target: _Target, rng: random.Random, counts: Dict[str, int]
) -> Optional[str]:
    """An orphaned seqlock (dead writer, no QST intent) must abort the
    write CFA with VERSION_CONFLICT; the software fallback reclaims the
    lock and applies the mutation."""
    system = target.system
    mutator = _ensure_mutator(target)
    executor = system.mutations()
    key, before = _present_key(target, rng)
    if key is None:
        counts["masked"] = counts.get("masked", 0) + 1
        return None
    lock_addr = mutator.header_addr + VERSION_OFFSET
    version = system.space.read_u64(lock_addr)
    # An odd version with no live QST write intent is exactly what a writer
    # crashed before its single commit store leaves behind.
    system.space.write_u64(lock_addr, version + 1)
    value = 900_000_000 + rng.randrange(1_000_000)
    try:
        handle = executor.submit(mutator, OP_UPDATE, key, value)
        system.accelerator.wait_for(handle)
        if handle.status is not QueryStatus.FAULT:
            return "write-abort: write CFA completed under an orphaned lock"
        if handle.abort_code is not AbortCode.VERSION_CONFLICT:
            return (
                f"write-abort: aborted with {handle.abort_code.name}, "
                "expected VERSION_CONFLICT"
            )
        result = executor.fallback(
            mutator, OP_UPDATE, key, value, code=handle.abort_code
        )
        if result is None or mutator.current(key) != value:
            return "write-abort: reclaiming fallback lost the update"
        if system.space.read_u64(lock_addr) & 1:
            return "write-abort: fallback left the seqlock held"
    finally:
        # Whatever happened, put the key back so later faults (and their
        # read oracle) see the build-time structure.
        if mutator.current(key) != before:
            mutator.software_apply(OP_UPDATE, key, before)
        stuck = system.space.read_u64(lock_addr)
        if stuck & 1:
            system.space.write_u64(lock_addr, stuck + 1)
    counts["write.orphan_reclaimed"] = (
        counts.get("write.orphan_reclaimed", 0) + 1
    )
    return None


def _run_version_storm_fault(
    target: _Target, rng: random.Random, counts: Dict[str, int]
) -> Optional[str]:
    """Reads racing a storm of writer commits either thread a gap between
    bumps (completing with the oracle answer) or abort VERSION_CONFLICT —
    never a torn value."""
    system, wl = target.system, target.workload
    mutator = _ensure_mutator(target)
    lock_addr = mutator.header_addr + VERSION_OFFSET
    indices, handles = _submit_nb_batch(target, rng)
    for _ in range(4):
        system.engine.advance(rng.randrange(20, 160))
        version = system.space.read_u64(lock_addr)
        # Even -> even: each bump is a whole writer win (lock + commit +
        # release collapsed), the worst case for reader re-validation.
        system.space.write_u64(lock_addr, version + 2)
    aborted = 0
    for qidx, handle in zip(indices, handles):
        if not handle.done:
            system.accelerator.wait_for(handle)
        oracle = wl.expected[qidx]
        if handle.status is QueryStatus.FAULT:
            aborted += 1
            if handle.abort_code is not AbortCode.VERSION_CONFLICT:
                return (
                    f"version-storm: faulted with {handle.abort_code.name}, "
                    "expected VERSION_CONFLICT"
                )
            outcome = system.fallback.run_software(
                lambda qi=qidx: wl.software_lookup(qi),
                abort_code=AbortCode.VERSION_CONFLICT,
            )
            if not outcome.resolved or outcome.value != oracle:
                return (
                    f"version-storm: fallback returned {outcome.value!r}, "
                    f"oracle {oracle!r}"
                )
        elif handle.value != oracle:
            return (
                f"version-storm: completed read returned {handle.value!r}, "
                f"oracle {oracle!r}"
            )
    key = "abort.version_conflict" if aborted else "masked"
    counts[key] = counts.get(key, 0) + 1
    return None


def _run_resize_stall_fault(
    target: _Target, rng: random.Random, counts: Dict[str, int]
) -> Optional[str]:
    """Stall an online resize mid-migration: reads keep resolving through
    the watermark routing, writes abort to software, and the migration then
    finishes and commits cleanly."""
    system, wl = target.system, target.workload
    if target.resizes >= 2:
        # The table already doubled twice under this campaign; further
        # doublings only dilute the fixed entry population (breaking the
        # injector's bounded occupied-slot discovery for later faults)
        # without adding coverage.
        counts["masked"] = counts.get("masked", 0) + 1
        return None
    mutator = _ensure_mutator(target)
    executor = system.mutations()
    resizer = system.start_resize(wl.mutable_structure(), chunk_buckets=8)
    resizer.start()
    resizer.step()  # one chunk, then the migration stalls

    # A read during the stall: old-or-new routing, never a wrong value.
    qidx = rng.randrange(len(wl.queries))
    handle = system.accelerator.submit(
        QueryRequest(
            header_addr=wl.header_addr_for(qidx),
            key_addr=wl._query_addrs[qidx],
            blocking=True,
        ),
        system.engine.now,
    )
    system.accelerator.wait_for(handle)
    oracle = wl.expected[qidx]
    if handle.status is QueryStatus.FAULT:
        if handle.abort_code is not AbortCode.VERSION_CONFLICT:
            return (
                f"resize-stall: read faulted with {handle.abort_code.name}"
            )
        outcome = system.fallback.run_software(
            lambda qi=qidx: wl.software_lookup(qi),
            abort_code=AbortCode.VERSION_CONFLICT,
        )
        if not outcome.resolved or outcome.value != oracle:
            return "resize-stall: read fallback disagrees with the oracle"
    elif handle.value != oracle:
        return (
            f"resize-stall: mid-resize read returned {handle.value!r}, "
            f"oracle {oracle!r}"
        )

    # A write during the stall: the CFA refuses (routing is ambiguous for
    # an accelerated store) and software applies through the watermark.
    key, before = _present_key(target, rng)
    violation = None
    if key is not None:
        value = 910_000_000 + rng.randrange(1_000_000)
        whandle = executor.submit(mutator, OP_UPDATE, key, value)
        system.accelerator.wait_for(whandle)
        if whandle.status is not QueryStatus.FAULT:
            violation = "resize-stall: write CFA ran during a live resize"
        elif whandle.abort_code is not AbortCode.VERSION_CONFLICT:
            violation = (
                f"resize-stall: write faulted with "
                f"{whandle.abort_code.name}, expected VERSION_CONFLICT"
            )
        else:
            result = executor.fallback(
                mutator, OP_UPDATE, key, value, code=whandle.abort_code
            )
            if result is None or mutator.current(key) != value:
                violation = "resize-stall: software write lost mid-resize"

    # Un-stall: drain the migration, commit through the quiesce, restore.
    while not resizer.finished:
        resizer.step()
    resizer.commit()
    system.engine.run()
    if not resizer.committed:
        return "resize-stall: migration never committed after the stall"
    if key is not None and mutator.current(key) != before:
        mutator.software_apply(OP_UPDATE, key, before)
    if violation:
        return violation
    probe = rng.randrange(len(wl.queries))
    if wl.software_lookup(probe) != wl.expected[probe]:
        return "resize-stall: post-commit lookup disagrees with the oracle"
    target.resizes += 1
    counts["write.resize_stall"] = counts.get("write.resize_stall", 0) + 1
    return None


# --------------------------------------------------------------------- #
# Campaign driver
# --------------------------------------------------------------------- #


def _run_campaign_pass(
    seed: int,
    faults: int,
    workload_names: Sequence[str],
    schemes: Sequence[str],
) -> Tuple[Dict[str, int], List[str], float]:
    """One full pass; returns (outcome counts, violations, fallback frac)."""
    rng = random.Random(seed)
    targets: Dict[Tuple[str, str], _Target] = {}
    counts: Dict[str, int] = {}
    violations: List[str] = []
    combos = [(w, s) for w in workload_names for s in schemes]

    for _ in range(faults):
        combo = combos[rng.randrange(len(combos))]
        if combo not in targets:
            targets[combo] = _build_target(combo[0], combo[1], rng)
        target = targets[combo]
        kinds = target.injector.kinds_for(target.workload.header_addr_for(0))
        kinds = tuple(kinds) + (
            FaultKind.INTERRUPT_FLUSH,
            FaultKind.SLICE_FAIL,
            FaultKind.SLICE_FLAP,
            FaultKind.FIRMWARE_SWAP,
        )
        if target.workload.supports_mutation():
            kinds = kinds + (
                FaultKind.WRITE_ABORT,
                FaultKind.VERSION_STORM,
                FaultKind.RESIZE_STALL,
            )
        kind = kinds[rng.randrange(len(kinds))]
        try:
            if kind is FaultKind.INTERRUPT_FLUSH:
                violation = _run_flush_fault(target, rng, counts)
            elif kind in (FaultKind.SLICE_FAIL, FaultKind.SLICE_FLAP):
                violation = _run_slice_fault(
                    target, rng, counts, flap=kind is FaultKind.SLICE_FLAP
                )
            elif kind is FaultKind.FIRMWARE_SWAP:
                violation = _run_firmware_swap_fault(target, rng, counts)
            elif kind is FaultKind.WRITE_ABORT:
                violation = _run_write_abort_fault(target, rng, counts)
            elif kind is FaultKind.VERSION_STORM:
                violation = _run_version_storm_fault(target, rng, counts)
            elif kind is FaultKind.RESIZE_STALL:
                violation = _run_resize_stall_fault(target, rng, counts)
            else:
                qidx = rng.randrange(len(target.workload.queries))
                violation = _run_memory_fault(target, kind, qidx, counts)
        except Exception as exc:  # noqa: BLE001 - escaping exceptions ARE the bug
            violation = (
                f"{kind.value} on {combo[0]}/{combo[1]}: escaped "
                f"{type(exc).__name__}: {exc}"
            )
        if violation:
            violations.append(f"{combo[0]}/{combo[1]}: {violation}")

    fractions = [t.system.fallback.fallback_fraction for t in targets.values()]
    fallback_fraction = sum(fractions) / len(fractions) if fractions else 0.0
    return counts, violations, fallback_fraction


def fault_campaign(
    *,
    seed: int = 7,
    faults: int = 1000,
    repeats: int = 2,
    workloads: Optional[Sequence[str]] = None,
    schemes: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Seeded fault campaign: every fault -> abort code + correct fallback."""
    workload_names = list(workloads or CAMPAIGN_WORKLOADS)
    for name in workload_names:
        if name not in CAMPAIGN_WORKLOADS:
            raise CampaignViolation(f"no campaign parameters for workload {name!r}")
    scheme_names = [IntegrationScheme.parse(s).value for s in (schemes or SCHEME_ORDER)]

    vectors: List[Dict[str, int]] = []
    all_violations: List[str] = []
    fallback_fraction = 0.0
    for _ in range(max(1, repeats)):
        counts, violations, fallback_fraction = _run_campaign_pass(
            seed, faults, workload_names, scheme_names
        )
        vectors.append(counts)
        all_violations.extend(violations)

    if all_violations:
        preview = "; ".join(all_violations[:5])
        raise CampaignViolation(
            f"{len(all_violations)} invariant violations, e.g.: {preview}"
        )
    deterministic = all(v == vectors[0] for v in vectors[1:])
    if not deterministic:
        raise CampaignViolation(
            f"seed {seed} did not reproduce the outcome vector: {vectors}"
        )

    result = ExperimentResult(
        experiment="fault-campaign",
        title=(
            f"{faults} injected faults x {len(workload_names)} workloads "
            f"x {len(scheme_names)} schemes (seed {seed})"
        ),
        columns=["outcome", "count", "share"],
    )
    total = sum(vectors[0].values()) or 1
    for outcome in sorted(vectors[0]):
        count = vectors[0][outcome]
        result.add_row(outcome=outcome, count=count, share=count / total)
    result.notes.append(
        "invariant held: every fault -> documented abort code + oracle-"
        "matching software fallback; no escaped exceptions; no hangs"
    )
    result.notes.append(f"mean software-fallback fraction {fallback_fraction:.3f}")
    if repeats > 1:
        result.notes.append(
            f"outcome vector reproduced identically across {repeats} runs"
        )
    return result
