"""The ``python -m repro serve`` experiment driver.

Builds one scaled-down machine per integration scheme, fronts it with the
multi-tenant :class:`~repro.serve.server.QueryServer`, drives a seeded load
(open-loop Poisson by default, closed-loop on request) and reports
per-tenant p50/p95/p99 latency, throughput, admission rejections and the
software-fallback fraction.  Identical seeds and configurations reproduce
byte-identical stats dumps (``tests/test_determinism.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from ..config import SCHEME_ORDER, IntegrationScheme, ServeConfig, small_config
from ..system import System
from ..workloads import make_workload
from .loadgen import ClosedLoopGenerator, OpenLoopGenerator
from .server import MODE_BATCHED, QueryServer
from .slo import ServingReport

#: Serving-tier workload sizes: big enough to span pages and spread across
#: LLC slices, small enough that a multi-scheme sweep finishes in seconds.
SERVE_WORKLOADS: Dict[str, dict] = {
    "dpdk": dict(num_flows=1024, num_buckets=512, num_queries=128),
    "jvm": dict(num_objects=512, num_queries=96),
    "rocksdb": dict(num_items=256, num_queries=64),
}

#: Cores in the scaled-down serving machine.
SERVE_CORES = 4


def build_serving_system(
    scheme: str,
    *,
    seed: int,
    serve_config: ServeConfig,
    workload: str = "dpdk",
    watchdog_steps: Optional[int] = None,
):
    """One scaled-down machine plus a built workload, LLC warm."""
    if workload not in SERVE_WORKLOADS:
        names = ", ".join(sorted(SERVE_WORKLOADS))
        raise ValueError(
            f"no serving parameters for workload {workload!r}; "
            f"expected one of {names}"
        )
    config = small_config(SERVE_CORES).replace(serve=serve_config)
    if watchdog_steps is not None:
        config = config.replace(
            qei=dataclasses.replace(config.qei, watchdog_steps=watchdog_steps)
        )
    system = System(config, scheme)
    built = make_workload(
        workload, system, seed=seed, **SERVE_WORKLOADS[workload]
    )
    system.warm_llc()
    return system, built


def run_serving(
    scheme: str,
    *,
    tenants: int = 4,
    requests: int = 2000,
    seed: int = 7,
    mode: str = MODE_BATCHED,
    closed_loop: bool = False,
    offered_load: Optional[float] = None,
    workload: str = "dpdk",
    serve_config: Optional[ServeConfig] = None,
    watchdog_steps: Optional[int] = None,
    write_ratio: float = 0.0,
) -> ServingReport:
    """One complete serving run; ``requests`` is the fleet-wide budget.

    ``write_ratio`` > 0 turns the run into a mixed read/write workload
    (docs/mutations.md): that fraction of each tenant's requests becomes
    accelerated INSERT/UPDATE/DELETE traffic on the workload's structure.
    """
    if serve_config is None:
        serve_config = ServeConfig(
            tenants=tenants,
            offered_load=offered_load or ServeConfig.offered_load,
            write_ratio=write_ratio,
        )
    system, built = build_serving_system(
        scheme,
        seed=seed,
        serve_config=serve_config,
        workload=workload,
        watchdog_steps=watchdog_steps,
    )
    server = QueryServer(system, built, serve_config, mode=mode, seed=seed)
    per_tenant = max(1, requests // serve_config.tenants)
    for tenant in range(serve_config.tenants):
        if closed_loop:
            generator = ClosedLoopGenerator(
                tenant,
                config=serve_config,
                num_requests=per_tenant,
                num_queries=len(built.queries),
                seed=seed,
                stats=system.stats,
            )
        else:
            generator = OpenLoopGenerator(
                tenant,
                rate=serve_config.offered_load,
                num_requests=per_tenant,
                num_queries=len(built.queries),
                seed=seed,
                stats=system.stats,
                write_ratio=serve_config.write_ratio_of(tenant),
            )
        server.attach(generator)
    return server.run()


def serve_experiment(
    *,
    schemes: Optional[Sequence[str]] = None,
    tenants: int = 4,
    requests: int = 2000,
    seed: int = 7,
    closed_loop: bool = False,
    workload: str = "dpdk",
):
    """The CLI verb: serving reports across integration schemes."""
    from ..analysis.report import ExperimentResult

    scheme_names = [
        IntegrationScheme.parse(s).value for s in (schemes or SCHEME_ORDER)
    ]
    result = ExperimentResult(
        "serve",
        (
            f"{requests} requests x {tenants} tenants, "
            f"{'closed' if closed_loop else 'open'}-loop, "
            f"workload {workload} (seed {seed})"
        ),
        [
            "scheme",
            "tenant",
            "completed",
            "rejected",
            "fallback_frac",
            "p50",
            "p95",
            "p99",
            "qps",
            "slo_met",
        ],
    )
    for scheme in scheme_names:
        report = run_serving(
            scheme,
            tenants=tenants,
            requests=requests,
            seed=seed,
            closed_loop=closed_loop,
            workload=workload,
        )
        for row in report.tenants:
            result.add_row(
                scheme=scheme,
                tenant=row["tenant"],
                completed=row["completed"],
                rejected=row["rejected"],
                fallback_frac=row["fallback_fraction"],
                p50=row["p50"],
                p95=row["p95"],
                p99=row["p99"],
                qps=row["qps"],
                slo_met="yes" if row["slo_met"] else "NO",
            )
        aggregate = report.aggregate
        result.add_row(
            scheme=scheme,
            tenant="all",
            completed=aggregate["completed"],
            rejected=aggregate["rejected"],
            fallback_frac=aggregate["fallback_fraction"],
            p50=aggregate["p50"],
            p95=aggregate["p95"],
            p99=aggregate["p99"],
            qps=aggregate["qps"],
            slo_met=(
                f"{aggregate['tenants_meeting_slo']}/{tenants}"
            ),
        )
    result.notes.append(
        "latency is end-to-end (arrival -> result), including admission "
        "queueing, batching delay and software-fallback retries"
    )
    result.notes.append(
        "identical seeds reproduce byte-identical serving stats dumps"
    )
    return result
