"""Drivers reproducing every table and figure of the paper's evaluation.

Each function builds fresh systems, runs the needed simulations and returns
an :class:`~repro.analysis.report.ExperimentResult`.  Pass ``quick=True``
(the default used by the benchmark harness) for scaled-down runs that keep
the shapes but finish in seconds; ``quick=False`` uses the full default
workload sizes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

from ..config import (
    DEFAULT_SCHEME_LATENCIES,
    SCHEME_ORDER,
    IntegrationScheme,
    SchemeLatencyConfig,
    SystemConfig,
)
from ..errors import ConfigurationError
from ..power import DynamicEnergyModel, tab3_configurations
from ..system import System
from ..workloads import make_workload, run_baseline, run_qei
from ..workloads.base import RoiRun
from ..workloads.tuple_space import TupleSpaceWorkload
from . import snapshot
from .report import ExperimentResult

ALL_SCHEMES = [s.value for s in IntegrationScheme]

#: Per-workload parameters for experiment runs: (quick, full).
BENCH_WORKLOADS: Dict[str, Tuple[dict, dict]] = {
    "dpdk": (
        dict(num_flows=4096, num_buckets=2048, num_queries=100),
        dict(num_queries=200),
    ),
    "jvm": (
        dict(num_objects=6000, num_queries=80),
        dict(num_queries=150),
    ),
    "rocksdb": (
        dict(num_items=1500, num_queries=50),
        dict(num_queries=100),
    ),
    "snort": (
        dict(num_keywords=400, payload_bytes=384, num_queries=4),
        dict(num_queries=8),
    ),
    "flann": (
        dict(num_tables=8, num_items=1200, num_points=8, num_buckets=256),
        dict(num_points=12),
    ),
}


def workload_params(name: str, quick: bool) -> dict:
    quick_params, full_params = BENCH_WORKLOADS[name]
    return dict(quick_params if quick else full_params)


def _build(name: str, scheme: str, quick: bool, config: Optional[SystemConfig] = None):
    # Default-config builds reuse the warm-system snapshot (see
    # analysis/snapshot.py): the first build per (name, params) captures a
    # template of the populated memory image; later builds restore it via
    # deepcopy instead of re-running O(dataset) population.  Custom configs
    # always build fresh and capture nothing.
    params = workload_params(name, quick)
    if config is None:
        snap = snapshot.get(name, params)
        if snap is not None:
            return snap.restore(scheme)
    system = System(config, scheme)
    workload = make_workload(name, system, **params)
    if config is None:
        snapshot.capture(name, params, system, workload)
    return system, workload


#: (workload, scheme, quick) -> (ROI run, stats delta around it).  Fig.
#: 7/11/12 all time the exact same deterministic ROI runs on fresh
#: systems, so within one process (one ``repro all`` task) each run happens
#: once and is shared.  The software baseline runs on the core alone and
#: reads neither the scheme nor the device latencies, so each workload has
#: one baseline entry, under ``scheme=None``, shared by every scheme and by
#: fig8's latency sweep.  QEI entries are per scheme and default config
#: only — fig8's custom-latency QEI runs always build fresh.  Systems are
#: not retained (they hold the preallocated cache set tables); only the run
#: results and stats deltas are.
_PAIR_MEMO: Dict[Tuple[str, Optional[str], bool], Tuple[RoiRun, dict]] = {}


def _measured(run: Callable[..., RoiRun], system: System, workload) -> Tuple[RoiRun, dict]:
    before = system.stats.snapshot()
    result = run(system, workload)
    return result, system.stats.diff(before)


def _baseline(
    name: str, scheme: str, quick: bool, config: Optional[SystemConfig] = None
) -> Tuple[RoiRun, dict]:
    """The workload's memoized software baseline and its stats delta.

    The first caller builds it on its own ``scheme`` and ``config``; the
    run is the same on every scheme and device latency (only zero-valued
    ``qei.<scheme>.*`` counters differ), which
    ``tests/test_baseline_memo.py`` pins.
    """
    key = (name, None, quick)
    hit = _PAIR_MEMO.get(key)
    if hit is None:
        system, workload = _build(name, scheme, quick, config)
        hit = _PAIR_MEMO[key] = _measured(run_baseline, system, workload)
    return hit


def _pair_stats(name: str, scheme: str, quick: bool) -> Tuple[RoiRun, RoiRun, dict, dict]:
    """Memoized baseline/QEI ROI pair with stats deltas around each run."""
    baseline, delta_b = _baseline(name, scheme, quick)
    key = (name, scheme, quick)
    hit = _PAIR_MEMO.get(key)
    if hit is None:
        system, workload = _build(name, scheme, quick)
        hit = _PAIR_MEMO[key] = _measured(run_qei, system, workload)
    qei, delta_q = hit
    return baseline, qei, delta_b, delta_q


def _pair(
    name: str, scheme: str, quick: bool, config: Optional[SystemConfig] = None
) -> Tuple[RoiRun, RoiRun]:
    """Software baseline and QEI ROI runs of one (workload, scheme) cell.

    Each run has its own fresh system (fair cold/warm state).  Under a
    custom ``config`` the QEI side builds fresh and is not memoized, while
    the baseline still comes from the per-workload memo — so ``config``
    may differ from the default only in the scheme latencies, which the
    baseline never reads.
    """
    if config is None:
        baseline, qei, _, _ = _pair_stats(name, scheme, quick)
        return baseline, qei
    if replace(config, scheme_latencies=dict(DEFAULT_SCHEME_LATENCIES)) != SystemConfig():
        raise ConfigurationError(
            "an ROI pair config may differ from the default only in"
            " scheme_latencies: the software baseline is memoized per workload"
        )
    baseline, _ = _baseline(name, scheme, quick, config)
    system, workload = _build(name, scheme, quick, config)
    return baseline, run_qei(system, workload)


# --------------------------------------------------------------------- #
# Fig. 1 — share of CPU time spent in query operations
# --------------------------------------------------------------------- #


def fig1_profiling(*, quick: bool = True, workloads: Optional[List[str]] = None) -> ExperimentResult:
    """Percentage of application time spent in data query operations.

    The paper's VTune profiling found 23%-44% across workloads (Fig. 1); we
    attribute cycles by differencing the full application loop against the
    same loop with the query routine removed.
    """
    result = ExperimentResult(
        "Fig. 1",
        "query share of application CPU time",
        ["workload", "app_cycles", "other_cycles", "query_share_pct"],
        notes=["paper reports 23%-44% across workloads"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        system, workload = _build(name, "core-integrated", quick)
        full = run_baseline(system, workload, app=True)
        other_trace = workload.app_trace_other_only()
        system2, workload2 = _build(name, "core-integrated", quick)
        system2.warm_llc()
        other = system2.run_trace(other_trace)
        share = 100.0 * (full.cycles - other.cycles) / full.cycles
        result.add_row(
            workload=name,
            app_cycles=full.cycles,
            other_cycles=other.cycles,
            query_share_pct=share,
        )
    return result


# --------------------------------------------------------------------- #
# Fig. 7 — ROI query speedup per workload per scheme
# --------------------------------------------------------------------- #


def fig7_speedup(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
) -> ExperimentResult:
    """Speedup of lookup operations per integration scheme (Fig. 7)."""
    schemes = schemes or SCHEME_ORDER
    result = ExperimentResult(
        "Fig. 7",
        "ROI query speedup over software baseline",
        ["workload"] + list(schemes),
        notes=[
            "paper: ~8x average, up to 12.7x (CHA-TLB) / 10.4x (Core-integrated);"
            " device schemes trail, worst for short hash-table queries",
        ],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        row = {"workload": name}
        for scheme in schemes:
            baseline, qei = _pair(name, scheme, quick)
            row[scheme] = baseline.cycles / qei.cycles
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Fig. 8 — Device-indirect latency sensitivity
# --------------------------------------------------------------------- #


def _device_latency_config(latency: int) -> SystemConfig:
    """The default config with Device-indirect's data-access latency set."""
    overrides = dict(DEFAULT_SCHEME_LATENCIES)
    overrides[IntegrationScheme.DEVICE_INDIRECT] = SchemeLatencyConfig(300, latency)
    return SystemConfig(scheme_latencies=overrides)


def fig8_latency_sweep(
    *,
    quick: bool = True,
    latencies: Optional[List[int]] = None,
    workloads: Optional[List[str]] = None,
) -> ExperimentResult:
    """Sweep the device interface's data-access latency, 50..2000 cycles."""
    latencies = latencies or [50, 100, 200, 400, 800, 2000]
    names = workloads or ["dpdk", "jvm", "rocksdb"]
    result = ExperimentResult(
        "Fig. 8",
        "Device-indirect speedup vs interface data-access latency",
        ["latency_cycles"] + list(names),
        notes=["paper: non-trivial performance drop as latency grows"],
    )
    for latency in latencies:
        config = _device_latency_config(latency)
        row = {"latency_cycles": latency}
        for name in names:
            baseline, qei = _pair(name, "device-indirect", quick, config)
            row[name] = baseline.cycles / qei.cycles
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Fig. 9 — end-to-end throughput improvement
# --------------------------------------------------------------------- #


def fig9_end_to_end(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
    scheme: str = "core-integrated",
) -> ExperimentResult:
    """Whole-application queries/packets per second improvement (Fig. 9)."""
    result = ExperimentResult(
        "Fig. 9",
        "end-to-end throughput improvement (full application loop)",
        ["workload", "baseline_cycles", "qei_cycles", "improvement_pct"],
        notes=["paper: +36.2% to +66.7%"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        sys_b, wl_b = _build(name, scheme, quick)
        baseline = run_baseline(sys_b, wl_b, app=True)
        sys_q, wl_q = _build(name, scheme, quick)
        qei = run_qei(sys_q, wl_q, app=True)
        improvement = 100.0 * (baseline.cycles / qei.cycles - 1.0)
        result.add_row(
            workload=name,
            baseline_cycles=baseline.cycles,
            qei_cycles=qei.cycles,
            improvement_pct=improvement,
        )
    return result


# --------------------------------------------------------------------- #
# Fig. 10 — tuple-space search with QUERY_NB
# --------------------------------------------------------------------- #


def fig10_tuple_space(
    *,
    quick: bool = True,
    tuple_counts: Optional[List[int]] = None,
    schemes: Optional[List[str]] = None,
) -> ExperimentResult:
    """Non-blocking tuple-space search, 5/10/15 tuples (Fig. 10)."""
    tuple_counts = tuple_counts or [5, 10, 15]
    schemes = schemes or SCHEME_ORDER
    result = ExperimentResult(
        "Fig. 10",
        "tuple-space search speedup with QUERY_NB (poll every 32 packets)",
        ["tuples"] + list(schemes),
        notes=[
            "paper: speedup grows with tuple count; device schemes close the"
            " gap under batched non-blocking queries",
        ],
    )
    packets = 24 if quick else 48
    flows = 256 if quick else 512

    def build(scheme: str, tuples: int):
        system = System(scheme=scheme)
        workload = TupleSpaceWorkload(
            system, num_tuples=tuples, flows_per_tuple=flows,
            num_packets=packets, num_buckets=256,
        )
        workload.build()
        return system, workload

    for tuples in tuple_counts:
        # The software baseline never reaches the accelerator: one run
        # serves every scheme.
        baseline = run_baseline(*build(schemes[0], tuples))
        row = {"tuples": tuples}
        for scheme in schemes:
            sys_q, wl_q = build(scheme, tuples)
            qei = run_qei(
                sys_q, wl_q, non_blocking=True, poll_every=wl_q.nb_poll_every()
            )
            row[scheme] = baseline.cycles / qei.cycles
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Fig. 11 — dynamic instruction count reduction
# --------------------------------------------------------------------- #


def fig11_instruction_count(
    *, quick: bool = True, workloads: Optional[List[str]] = None
) -> ExperimentResult:
    """Dynamic instructions executed by the core in the ROI (Fig. 11)."""
    result = ExperimentResult(
        "Fig. 11",
        "core dynamic instructions in ROI: baseline vs QEI",
        ["workload", "baseline_instructions", "qei_instructions", "reduction_pct"],
        notes=["paper: a significant share of ROI instructions is eliminated"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        baseline, qei = _pair(name, "core-integrated", quick)
        reduction = 100.0 * (1 - qei.instructions / baseline.instructions)
        result.add_row(
            workload=name,
            baseline_instructions=baseline.instructions,
            qei_instructions=qei.instructions,
            reduction_pct=reduction,
        )
    return result


# --------------------------------------------------------------------- #
# Fig. 12 — dynamic power per query
# --------------------------------------------------------------------- #


def fig12_dynamic_power(
    *,
    quick: bool = True,
    workloads: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
) -> ExperimentResult:
    """QEI dynamic consumption per query relative to software (Fig. 12)."""
    schemes = schemes or SCHEME_ORDER
    model = DynamicEnergyModel()
    result = ExperimentResult(
        "Fig. 12",
        "relative dynamic power per query (QEI / software baseline, %)",
        ["workload"] + list(schemes),
        notes=["paper: accelerators cut more than 60% of dynamic power"],
    )
    for name in workloads or list(BENCH_WORKLOADS):
        row = {"workload": name}
        for scheme in schemes:
            baseline, qei, delta_b, delta = _pair_stats(name, scheme, quick)
            ratio = model.relative_dynamic_power(
                baseline.core_result,
                delta_b,
                baseline.queries,
                qei.core_result,
                delta,
                qei.queries,
            )
            row[scheme] = 100.0 * ratio
        result.add_row(**row)
    return result


# --------------------------------------------------------------------- #
# Tables
# --------------------------------------------------------------------- #


def tab1_schemes(config: Optional[SystemConfig] = None) -> ExperimentResult:
    """Integration scheme comparison (Tab. I)."""
    config = config or SystemConfig()
    qualitative = {
        "cha-tlb": ("Low+TLB", "Dedicated", "No", "No", "Good"),
        "cha-notlb": ("Low", "Shared", "No", "No", "Good"),
        "device-direct": ("Medium/High", "Dedicated", "Yes", "No", "Medium"),
        "device-indirect": ("Medium/High", "Dedicated", "Yes", "No", "Medium"),
        "core-integrated": ("Low", "Shared", "No", "No", "Good"),
    }
    result = ExperimentResult(
        "Tab. I",
        "integration scheme comparison",
        [
            "scheme",
            "accel_core_rtt",
            "accel_data_extra",
            "hw_cost",
            "mem_mgmt",
            "noc_hotspot",
            "private_pollution",
            "scalability",
        ],
    )
    for scheme in SCHEME_ORDER:
        latency = config.scheme_latency(scheme)
        cost, mem, hotspot, pollution, scale = qualitative[scheme]
        result.add_row(
            scheme=scheme,
            accel_core_rtt=latency.core_to_accel,
            accel_data_extra=latency.accel_to_data,
            hw_cost=cost,
            mem_mgmt=mem,
            noc_hotspot=hotspot,
            private_pollution=pollution,
            scalability=scale,
        )
    return result


def tab2_config(config: Optional[SystemConfig] = None) -> ExperimentResult:
    """Simulated CPU model configuration (Tab. II)."""
    config = config or SystemConfig()
    core = config.core
    result = ExperimentResult(
        "Tab. II",
        "simulated CPU model configuration",
        ["item", "configuration"],
    )
    result.add_row(item="cores", configuration=f"{config.num_cores} OoO @ {core.frequency_ghz} GHz")
    result.add_row(
        item="caches",
        configuration=(
            f"{core.l1d.associativity}-way {core.l1d.size_bytes // 1024}KB L1D/L1I, "
            f"{core.l2.associativity}-way {core.l2.size_bytes // 1024 // 1024}MB L2, "
            f"{config.llc.associativity}-way "
            f"{config.llc.total_size_bytes // 1024 // 1024}MB LLC "
            f"({config.llc.slices} slices)"
        ),
    )
    result.add_row(
        item="LQ/SQ/ROB",
        configuration=f"{core.load_queue_entries}/{core.store_queue_entries}/{core.rob_entries}",
    )
    result.add_row(
        item="memory",
        configuration=(
            f"{config.dram.channels} channels, "
            f"{config.dram.bandwidth_gbps_per_channel} GB/s each"
        ),
    )
    result.add_row(
        item="QEI",
        configuration=(
            f"{config.qei.alus_per_dpu} ALUs/DPU, "
            f"{config.qei.comparators_per_cha} comparators/CHA, "
            f"{config.qei.comparators_per_device_dpu} comparators/device DPU, "
            f"{config.qei.qst_entries}-entry QST"
        ),
    )
    result.add_row(
        item="NoC",
        configuration=f"{config.noc.width}x{config.noc.height} mesh",
    )
    result.add_row(item="process", configuration=f"{config.process_technology_nm}nm")
    return result


def tab3_area_power() -> ExperimentResult:
    """Area and static power of the three QEI configurations (Tab. III)."""
    paper = {
        "QEI-10": (0.1752, 10.8984),
        "QEI-10+TLB": (0.5730, 30.9049),
        "QEI-240": (1.0901, 20.8764),
    }
    result = ExperimentResult(
        "Tab. III",
        "QEI area and static power (model vs paper)",
        [
            "configuration",
            "area_mm2",
            "paper_area_mm2",
            "static_mw",
            "paper_static_mw",
        ],
    )
    for config in tab3_configurations():
        paper_area, paper_power = paper[config.name]
        result.add_row(
            configuration=config.name,
            area_mm2=config.area_mm2,
            paper_area_mm2=paper_area,
            static_mw=config.static_power_mw,
            paper_static_mw=paper_power,
        )
    return result
