"""Macro-step fusion and warm-system snapshots: bit-identity + plumbing.

Fusion collapses pure-compute CFA transition runs into arithmetic on a
virtual clock (one engine event per memory round-trip); snapshots restore a
deep-copied warm memory image instead of repopulating workloads.  Both are
pure performance work — every observable (ROI cycles, instructions, the
full stats snapshot) must match the unfused / cold-built reference exactly.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis import snapshot
from repro.analysis.experiments import _build, workload_params
from repro.core.accelerator import QeiAccelerator
from repro.sim.engine import Engine
from repro.workloads import run_qei


def _stats_hash(system) -> str:
    payload = json.dumps(sorted(system.stats.snapshot().items()), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run(monkeypatch, workload: str, scheme: str, *, fuse: bool):
    snapshot.clear()
    monkeypatch.setattr(QeiAccelerator, "_fuse", fuse)
    system, wl = _build(workload, scheme, quick=True)
    run = run_qei(system, wl)
    return run, _stats_hash(system), system.engine.events_processed


# --------------------------------------------------------------------- #
# Engine.peek_time / run_horizon
# --------------------------------------------------------------------- #


def test_peek_time_skips_cancelled_and_empties():
    engine = Engine()
    assert engine.peek_time() is None
    first = engine.schedule_at(5, lambda: None)
    engine.schedule_at(9, lambda: None)
    assert engine.peek_time() == 5
    first.cancel()
    assert engine.peek_time() == 9  # cancelled head discarded lazily
    assert engine.pending() == 1


def test_run_horizon_visible_only_inside_bounded_run():
    engine = Engine()
    seen = []
    engine.schedule_at(3, lambda: seen.append(engine.run_horizon))
    assert engine.run_horizon is None
    engine.run(until=10)
    assert seen == [10]
    assert engine.run_horizon is None  # cleared after the run

    engine.schedule_at(12, lambda: seen.append(engine.run_horizon))
    engine.drain()
    assert seen[-1] is None  # unbounded drain exposes no horizon


# --------------------------------------------------------------------- #
# Fusion bit-identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("pair", [("dpdk", "cha-tlb"), ("rocksdb", "core-integrated")])
def test_fusion_matches_unfused_reference(pair, monkeypatch):
    workload, scheme = pair
    fused_run, fused_hash, fused_events = _run(monkeypatch, workload, scheme, fuse=True)
    ref_run, ref_hash, ref_events = _run(monkeypatch, workload, scheme, fuse=False)

    assert fused_run.cycles == ref_run.cycles
    assert fused_run.instructions == ref_run.instructions
    assert fused_run.queries == ref_run.queries
    assert fused_hash == ref_hash
    # The whole point: fewer engine events for the same simulated history.
    assert fused_events < ref_events


# --------------------------------------------------------------------- #
# Warm-system snapshots
# --------------------------------------------------------------------- #


def test_snapshot_restore_is_bit_identical_to_cold_build():
    # Cold reference: with no template held, the build populates from
    # scratch (and captures the template before anything runs on it).
    snapshot.clear()
    cold_sys, cold_wl = _build("dpdk", "cha-tlb", quick=True)
    params = workload_params("dpdk", True)
    assert snapshot.get("dpdk", params) is not None
    cold = run_qei(cold_sys, cold_wl)
    cold_hash = _stats_hash(cold_sys)

    # Snapshot path: later builds restore the captured template.

    for scheme in ("cha-tlb", "cha-notlb"):
        warm_sys, warm_wl = _build("dpdk", scheme, quick=True)
        if scheme == "cha-tlb":
            warm = run_qei(warm_sys, warm_wl)
            assert (warm.cycles, warm.instructions) == (cold.cycles, cold.instructions)
            assert _stats_hash(warm_sys) == cold_hash
        else:
            # Cross-scheme restore from the same template still runs.
            assert run_qei(warm_sys, warm_wl).queries == cold.queries
    snapshot.clear()


def test_snapshot_template_isolated_from_restored_runs():
    snapshot.clear()
    _build("rocksdb", "cha-tlb", quick=True)

    # Run on one restored copy (mutates its mem: result buffers, traces)...
    sys_a, wl_a = _build("rocksdb", "cha-tlb", quick=True)
    first = run_qei(sys_a, wl_a)
    hash_a = _stats_hash(sys_a)

    # ...then restore again: the template must be untouched.
    sys_b, wl_b = _build("rocksdb", "cha-tlb", quick=True)
    second = run_qei(sys_b, wl_b)
    assert (second.cycles, second.instructions) == (first.cycles, first.instructions)
    assert _stats_hash(sys_b) == hash_a
    snapshot.clear()


def test_custom_config_bypasses_snapshots():
    from repro.config import SystemConfig

    snapshot.clear()
    _build("dpdk", "cha-tlb", quick=True, config=SystemConfig())
    assert snapshot.get("dpdk", workload_params("dpdk", True)) is None
    snapshot.clear()
