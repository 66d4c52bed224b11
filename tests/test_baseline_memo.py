"""The per-workload software-baseline memo of the figure drivers.

Fig. 7/8/11/12 share one software-baseline ROI run per workload.  That is
sound only because the baseline never reaches the accelerator, so the
integration scheme and the device latency cannot change it; the first test
pins that invariance, the others pin what the memo runs and refuses.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import small_config
from repro.analysis import experiments, snapshot
from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.workloads import run_baseline


@pytest.fixture
def memo(monkeypatch):
    """An empty ROI memo for this test only."""
    fresh = {}
    monkeypatch.setattr(experiments, "_PAIR_MEMO", fresh)
    return fresh


def _baseline_view(scheme, config=None):
    system, workload = experiments._build("dpdk", scheme, True, config)
    run, delta = experiments._measured(run_baseline, system, workload)
    return {
        "cycles": run.cycles,
        "instructions": run.instructions,
        "values": run.values,
        "core_result": repr(run.core_result),
        "stats": {k: v for k, v in delta.items() if v},
    }


def test_baseline_is_identical_on_every_scheme_and_device_latency():
    views = [_baseline_view(scheme) for scheme in experiments.SCHEME_ORDER]
    views.append(
        _baseline_view("device-indirect", experiments._device_latency_config(2000))
    )
    assert views[0]["cycles"] > 0 and views[0]["stats"]
    for view in views[1:]:
        assert view == views[0]


def test_figures_share_one_baseline_run_per_workload(memo, monkeypatch):
    calls = []

    def counted(system, workload, **kwargs):
        calls.append(system.scheme.value)
        return run_baseline(system, workload, **kwargs)

    monkeypatch.setattr(experiments, "run_baseline", counted)
    experiments.fig7_speedup(workloads=["dpdk"])
    experiments.fig8_latency_sweep(workloads=["dpdk"], latencies=[50, 2000])
    experiments.fig11_instruction_count(workloads=["dpdk"])
    experiments.fig12_dynamic_power(workloads=["dpdk"])
    assert calls == [experiments.SCHEME_ORDER[0]]
    assert set(memo) == {("dpdk", None, True)} | {
        ("dpdk", scheme, True) for scheme in experiments.SCHEME_ORDER
    }


def test_latency_sweep_builds_its_own_baseline_without_a_snapshot(memo):
    snapshot.clear()
    baseline, qei = experiments._pair(
        "dpdk", "device-indirect", True, experiments._device_latency_config(2000)
    )
    assert baseline.cycles > 0 and qei.cycles > 0
    # Only the baseline is memoized, and the custom-config builds kept no
    # warm-system template alive.
    assert list(memo) == [("dpdk", None, True)]
    assert not snapshot._TEMPLATES


@pytest.mark.parametrize(
    "config",
    [
        small_config(4),
        replace(SystemConfig(), core=replace(SystemConfig().core, rob_entries=64)),
    ],
    ids=["num_cores", "core"],
)
def test_pair_refuses_a_config_the_baseline_memo_cannot_share(memo, config):
    with pytest.raises(ConfigurationError, match="scheme_latencies"):
        experiments._pair("dpdk", "device-indirect", True, config)
    assert not memo
