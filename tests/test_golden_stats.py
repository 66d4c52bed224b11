"""Golden-stats guard: the hot-path optimizations must not change timing.

``golden_stats.json`` was captured from the pre-optimization seed tree.  The
tests replay the same workload/scheme pairs and assert simulated cycle
counts, instruction counts and the *full* stats snapshot (hashed) are
bit-identical — so any micro-optimization that accidentally changes
simulated semantics (an extra TLB fill, a skipped counter, a reordered
event) fails loudly.

Regenerate after an *intentional* semantic change with::

    PYTHONPATH=src python tests/test_golden_stats.py --capture
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).with_name("golden_stats.json")

#: (workload, scheme) pairs covering a sliced scheme and the core scheme.
PAIRS = [
    ("dpdk", "cha-tlb"),
    ("dpdk", "core-integrated"),
    ("rocksdb", "cha-tlb"),
    ("rocksdb", "core-integrated"),
    ("flann", "cha-tlb"),
    ("flann", "core-integrated"),
]

SERVE_CASES = [
    ("cha-tlb", 2, 600, 7),
    ("core-integrated", 2, 600, 7),
]

#: The chaos drills (``dump()`` of one run) and their experiment tables
#: (``format()`` with a same-seed re-run), all on cha-tlb at seed 7.
CHAOS_CASES = {
    "run_chaos": dict(requests=160, tenants=2),
    "run_mutation_chaos": dict(requests=160, tenants=2),
    "run_cluster_chaos": dict(requests=160, nodes=4, tenants=2),
    "run_recovery_chaos": dict(requests=120, nodes=4, tenants=2),
    "chaos_experiment": dict(requests=160, tenants=2, repeats=2),
    "cluster_chaos_experiment": dict(
        requests=160, nodes=4, tenants=2, repeats=2
    ),
    "recovery_chaos_experiment": dict(
        requests=120, nodes=4, tenants=2, repeats=2
    ),
}

#: The paper-figure drivers (``format()`` of one quick run) that compare
#: QEI against a software baseline, at a size that pins every row shape.
FIGURE_CASES = {
    "fig1_profiling": dict(workloads=["dpdk"]),
    "fig7_speedup": dict(workloads=["dpdk"]),
    "fig8_latency_sweep": dict(workloads=["dpdk"], latencies=[50, 2000]),
    "fig9_end_to_end": dict(workloads=["dpdk"]),
    "fig10_tuple_space": dict(tuple_counts=[5]),
    "fig11_instruction_count": dict(workloads=["dpdk"]),
    "fig12_dynamic_power": dict(workloads=["dpdk"]),
}

#: The two configurations every simulated number must agree across: the
#: default, with every hot-path layer on, and the full reference, with the
#: three test seams off — the unfused (``QeiAccelerator._fuse``) generic
#: (``QeiAccelerator._specialize``) interpreter over the un-memoized memory
#: walk (``MemoryHierarchy(fastmem=False)``).  The plain tests below run
#: the default; their ``_in_reference_config`` twins run the reference.
CONFIGS = ("default", "reference")


def _use_config(monkeypatch, config: str) -> None:
    # The accelerator copies its seams and the hierarchy picks its memory
    # path at construction, so patching before the system is built inside
    # the measurement is sufficient.  ``fastmem`` is keyword-only, so the
    # default every System build uses lives in ``__kwdefaults__``.
    from repro.core.accelerator import QeiAccelerator
    from repro.mem.hierarchy import MemoryHierarchy

    on = config == "default"
    monkeypatch.setattr(QeiAccelerator, "_fuse", on)
    monkeypatch.setattr(QeiAccelerator, "_specialize", on)
    monkeypatch.setitem(MemoryHierarchy.__init__.__kwdefaults__, "fastmem", on)


def _snapshot_hash(stats) -> str:
    payload = json.dumps(
        {k: v for k, v in sorted(stats.snapshot().items())}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _measure_pair(workload: str, scheme: str, mutations: bool = False) -> dict:
    from repro.analysis.experiments import _build
    from repro.workloads import run_baseline, run_qei

    sys_b, wl_b = _build(workload, scheme, quick=True)
    if mutations:
        # Loading the write-CFA subsystem (firmware mutation programs,
        # seqlock plumbing) must be invisible to a read-only run: same
        # cycles, same instructions, same full stats snapshot.
        sys_b.enable_mutations()
    baseline = run_baseline(sys_b, wl_b)
    sys_q, wl_q = _build(workload, scheme, quick=True)
    if mutations:
        sys_q.enable_mutations()
    qei = run_qei(sys_q, wl_q)
    return {
        "baseline_cycles": baseline.cycles,
        "baseline_instructions": baseline.instructions,
        "qei_cycles": qei.cycles,
        "qei_instructions": qei.instructions,
        "baseline_stats_sha256": _snapshot_hash(sys_b.stats),
        "qei_stats_sha256": _snapshot_hash(sys_q.stats),
    }


def _measure_serve(scheme: str, tenants: int, requests: int, seed: int) -> dict:
    from repro.serve import serve_experiment

    result = serve_experiment(
        schemes=[scheme], tenants=tenants, requests=requests, seed=seed
    )
    report = result.format().encode()
    return {"report_sha256": hashlib.sha256(report).hexdigest()}


def _measure_chaos(name: str) -> dict:
    from repro.faults import chaos

    driver = getattr(chaos, name)
    if name.endswith("_experiment"):
        text = driver(schemes=["cha-tlb"], seed=7, **CHAOS_CASES[name]).format()
    else:
        text = driver("cha-tlb", seed=7, **CHAOS_CASES[name]).dump()
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def _measure_figure(name: str) -> dict:
    from repro.analysis import experiments

    # Start from an empty ROI memo so each pin computes its own runs
    # whatever figure ran earlier in the process.
    experiments._PAIR_MEMO.clear()
    driver = getattr(experiments, name)
    text = driver(quick=True, **FIGURE_CASES[name]).format()
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def capture() -> dict:
    golden = {"pairs": {}, "serve": {}, "chaos": {}, "figures": {}}
    for workload, scheme in PAIRS:
        golden["pairs"][f"{workload}/{scheme}"] = _measure_pair(workload, scheme)
    for scheme, tenants, requests, seed in SERVE_CASES:
        key = f"{scheme}/t{tenants}/r{requests}/s{seed}"
        golden["serve"][key] = _measure_serve(scheme, tenants, requests, seed)
    for name in CHAOS_CASES:
        golden["chaos"][name] = _measure_chaos(name)
    for name in FIGURE_CASES:
        golden["figures"][name] = _measure_figure(name)
    return golden


def _load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        pytest.skip("golden_stats.json missing; run --capture first")
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("workload,scheme", PAIRS)
def test_roi_pair_matches_golden(workload, scheme):
    golden = _load_golden()["pairs"][f"{workload}/{scheme}"]
    assert _measure_pair(workload, scheme) == golden


@pytest.mark.parametrize("scheme,tenants,requests,seed", SERVE_CASES)
def test_serve_report_matches_golden(scheme, tenants, requests, seed):
    golden = _load_golden()["serve"][f"{scheme}/t{tenants}/r{requests}/s{seed}"]
    assert _measure_serve(scheme, tenants, requests, seed) == golden


@pytest.mark.parametrize("name", list(CHAOS_CASES))
def test_chaos_output_matches_golden(name):
    golden = _load_golden()["chaos"][name]
    assert _measure_chaos(name) == golden


@pytest.mark.parametrize("name", list(FIGURE_CASES))
def test_figure_output_matches_golden(name):
    golden = _load_golden()["figures"][name]
    assert _measure_figure(name) == golden


def test_reference_config_reaches_built_systems(monkeypatch):
    # Guards the twins below: a seam that stopped reaching the built
    # system would silently re-test the default.
    from repro.analysis.experiments import _build

    _use_config(monkeypatch, "reference")
    system, _ = _build("dpdk", "cha-tlb", quick=True)
    assert system.accelerator._fuse is False
    assert system.accelerator._specialize is False
    assert system.hierarchy._fast is None


@pytest.mark.parametrize("workload,scheme", PAIRS)
def test_roi_pair_matches_golden_in_reference_config(workload, scheme, monkeypatch):
    _use_config(monkeypatch, "reference")
    golden = _load_golden()["pairs"][f"{workload}/{scheme}"]
    assert _measure_pair(workload, scheme) == golden


@pytest.mark.parametrize("scheme,tenants,requests,seed", SERVE_CASES)
def test_serve_report_matches_golden_in_reference_config(
    scheme, tenants, requests, seed, monkeypatch
):
    _use_config(monkeypatch, "reference")
    golden = _load_golden()["serve"][f"{scheme}/t{tenants}/r{requests}/s{seed}"]
    assert _measure_serve(scheme, tenants, requests, seed) == golden


def test_chaos_report_identical_across_specialize_modes(monkeypatch):
    # The chaos run covers slice kills, recoveries and a live firmware
    # hot-swap (which forces a compiled-table rebuild via firmware.epoch);
    # its full report must be byte-identical in both configurations.
    from repro.faults.chaos import run_chaos

    dumps = {}
    for config in CONFIGS:
        _use_config(monkeypatch, config)
        dumps[config] = run_chaos(
            "cha-tlb", seed=7, requests=160, tenants=2
        ).dump()
    assert dumps["default"] == dumps["reference"]


def test_recovery_report_identical_across_specialize_modes(monkeypatch):
    # Durability chaos (node crashes + commit-log recovery) under a mixed
    # read/write load: mutation CFAs run through the prebound compiled
    # tier, so the cluster report must match the reference byte for byte.
    from repro.faults.chaos import run_recovery_chaos

    dumps = {}
    for config in CONFIGS:
        _use_config(monkeypatch, config)
        dumps[config] = run_recovery_chaos(
            "cha-tlb", seed=7, requests=120, nodes=4, tenants=2
        ).dump()
    assert dumps["default"] == dumps["reference"]


@pytest.mark.parametrize("workload,scheme", PAIRS)
def test_roi_pair_unchanged_with_mutations_loaded(workload, scheme):
    # Same golden entries as the plain pairs: enabling the mutation
    # subsystem on a read-only run must be bit-invisible.
    golden = _load_golden()["pairs"][f"{workload}/{scheme}"]
    assert _measure_pair(workload, scheme, mutations=True) == golden


if __name__ == "__main__":
    if "--capture" not in sys.argv:
        sys.exit("usage: python tests/test_golden_stats.py --capture")
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")
