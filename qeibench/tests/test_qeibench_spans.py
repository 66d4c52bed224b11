"""Self-time arithmetic and wrapper installation of the traced run.

Run with ``python3 -m pytest qeibench/tests``.
"""

import time

import pytest

import spans
from repro.core.accelerator import QeiAccelerator
from repro.analysis import snapshot
from repro.system import System


def test_self_time_subtracts_nested_children():
    rows = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 5.0, 9.0, 0),
        ("d", 6.0, 7.0, 2),
        ("a", 11.0, 12.0, -1),
    ]
    assert spans.self_times(rows) == [3.0, 3.0, 3.0, 1.0, 1.0]
    per_name, glue = spans.account(rows, -1.0, 13.0)
    assert per_name == {"a": 4.0, "b": 3.0, "c": 3.0, "d": 1.0}
    assert glue == 3.0  # [-1, 0], [10, 11] and [12, 13]
    assert sum(per_name.values()) + glue == 14.0


def test_child_coverage_is_a_union_clipped_to_the_parent():
    rows = [
        ("p", 0.0, 10.0, -1),
        ("x", 2.0, 6.0, 0),
        ("y", 4.0, 8.0, 0),
        ("z", 9.0, 12.0, 0),
    ]
    assert spans.self_times(rows)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorded_spans_and_glue_account_for_the_wall_time():
    log = spans.SpanLog()

    def leaf():
        index = log.open("leaf")
        time.sleep(0.002)
        log.close(index)

    def outer():
        index = log.open("outer")
        leaf()
        time.sleep(0.001)
        leaf()
        log.close(index)

    lo = time.perf_counter()
    outer()
    time.sleep(0.001)
    leaf()
    hi = time.perf_counter()
    rows = log.rows()
    assert [(name, parent) for name, _, _, parent in rows] == [
        ("outer", -1), ("leaf", 0), ("leaf", 0), ("leaf", -1),
    ]
    per_name, glue = spans.account(rows, lo, hi)
    assert glue > 0.0009
    assert sum(per_name.values()) + glue == pytest.approx(hi - lo, abs=1e-9)
    assert per_name["leaf"] >= 0.006


def test_uninstall_restores_every_original():
    originals = (
        System.__dict__["run_trace"],
        QeiAccelerator.__dict__["wait_for"],
        snapshot.__dict__["capture"],
    )
    tracer = spans.Tracer()
    tracer.install()
    assert System.__dict__["run_trace"] is not originals[0]
    tracer.uninstall()
    assert (
        System.__dict__["run_trace"],
        QeiAccelerator.__dict__["wait_for"],
        snapshot.__dict__["capture"],
    ) == originals
