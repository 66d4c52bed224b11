"""Cold state, failure accounting, host-speed rescaling and the missing-program
exit of the harness.

Run with ``python3 -m pytest qeibench/tests``.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bench
import hostspeed
import run
from repro.analysis.experiments import fig7_speedup
from repro.errors import WorkloadError

BENCH_DIR = Path(bench.__file__).resolve().parent


def test_memos_are_empty_at_the_start_of_a_pass():
    fig7_speedup(quick=True, workloads=["rocksdb"], schemes=["cha-tlb"])
    held = bench.memo_sizes()
    assert held["experiments._PAIR_MEMO"] and held["snapshot._TEMPLATES"], held
    assert held["hashing.lru_caches"], held
    bench.reset_process_memos()
    assert not any(bench.memo_sizes().values()), bench.memo_sizes()


def test_every_pass_starts_cold():
    seen = []

    def call(inputs, cell):
        seen.append(dict(bench.memo_sizes()))
        fig7_speedup(quick=True, workloads=["rocksdb"], schemes=["cha-tlb"])
        return cell

    fake = bench.Workload(
        "fake", lambda seed: dict(calls=[1], ops=1), call,
        lambda inputs, outputs: bench.Outcome(attempted=1), seeded=False,
    )
    for _ in range(2):
        assert bench.run_pass(fake, fake.inputs(0), None).failed == 0
    assert seen == [{k: 0 for k in seen[0]}] * 2


def test_known_bad_recovery_run_counts_failed_ops():
    # 4-node W=2 fleets lose acknowledged writes at 300 requests, seed 7,
    # and the history is not linearizable: a known defect of the program.
    inputs = dict(bench.recovery_inputs(0), nodes=4, requests=300, ops=300)
    outcome = bench.run_pass(bench.WORKLOADS["recovery"], inputs, None)
    assert outcome.attempted == 300
    assert 0 < outcome.failed <= outcome.attempted
    assert any("lost acked writes" in p for p in outcome.problems)


def _fake(call):
    return bench.Workload(
        "fake", lambda seed: dict(calls=[0, 1], ops=7), call,
        lambda inputs, outputs: bench.Outcome(attempted=7, digest=bench.digest_of(outputs)),
        seeded=False,
    )


def test_digest_mismatch_fails_every_op():
    fake = _fake(lambda inputs, cell: cell)
    good = bench.digest_of([0, 1])
    assert bench.run_pass(fake, fake.inputs(0), good).failed == 0
    outcome = bench.run_pass(fake, fake.inputs(0), "0" * 64)
    assert outcome.failed == outcome.attempted == 7
    assert "digest" in outcome.problems[0]


def test_raised_error_fails_every_op_without_aborting():
    def broken(inputs, cell):
        if cell:
            raise WorkloadError("query 3 returned 9, software reference says 4")
        return cell

    outcome = bench.run_pass(_fake(broken), _fake(broken).inputs(0), None)
    assert outcome.failed == outcome.attempted == 7
    assert "WorkloadError" in outcome.problems[0]
    assert len(outcome.call_times) == 1


def test_ambient_switches_are_cleared_and_recorded(monkeypatch):
    monkeypatch.setenv("QEI_NO_FUSION", "1")
    monkeypatch.setenv("QEI_NO_SNAPSHOT", "1")
    assert run.clear_switches() == {"QEI_NO_FUSION": "1", "QEI_NO_SNAPSHOT": "1"}
    assert not any(k.startswith("QEI_NO_") for k in os.environ)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "recovery",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_each_call_takes_the_mean_of_its_faster_half_of_passes():
    assert run.faster_half([4.0, 1.0, 3.0, 2.0]) == 1.5
    assert run.faster_half([5.0, 1.0, 3.0]) == 2.0
    passes = [[(3.0, 2.5), (1.0, 0.9)], [(2.0, 1.5), (4.0, 3.0)],
              [(5.0, 4.5), (2.0, 1.0)], [(9.0, 9.0)]]
    assert run.faster_half_calls(passes, 2) == pytest.approx((2.5 + 1.5, 2.0 + 0.95))
    assert run.faster_half_calls([[(9.0, 9.0)]], 2) == (9.0, 9.0)


def _speed(samples):
    speed = hostspeed.HostSpeed()
    speed.ends = [end for end, _, _ in samples]
    speed.samples = [(wall, cpu) for _, wall, cpu in samples]
    return speed


def test_rescale_takes_out_the_samples_and_divides_by_the_host_speed():
    ref = hostspeed.REFERENCE_S
    # Three samples inside the call at half the reference speed, one outside;
    # the last inside was off its core for as long again as it ran.
    speed = _speed([(0.5, 2 * ref, 2 * ref), (1.0, 2 * ref, 2 * ref),
                    (1.5, 4 * ref, 2 * ref), (9.0, ref, ref)])
    wall, cpu = speed.rescale(0.0, 2.0, 1.5)
    assert wall == pytest.approx((2.0 - 8 * ref) / 2)
    assert cpu == pytest.approx((1.5 - 6 * ref) / 2)


def test_a_short_call_borrows_the_nearest_samples():
    ref = hostspeed.REFERENCE_S
    speed = _speed([(0.0, ref, ref), (1.0, 4 * ref, 4 * ref), (1.1, 4 * ref, 4 * ref),
                    (1.2, 4 * ref, 4 * ref), (5.0, ref, ref)])
    assert speed.rescale(1.15, 1.17, 0.02) == pytest.approx((0.005, 0.005))
    with pytest.raises(RuntimeError):
        hostspeed.HostSpeed().rescale(0.0, 1.0, 1.0)


def test_samples_are_taken_while_the_program_runs():
    speed = hostspeed.HostSpeed()
    speed.start()
    try:
        start, cpu = time.perf_counter(), time.process_time()
        while time.perf_counter() - start < 0.2:
            hostspeed.kernel()
        end = time.perf_counter()
    finally:
        speed.stop()
    assert len(speed.samples) >= 5
    assert all(wall > 0 for wall, _ in speed.samples)
    wall, _ = speed.rescale(start, end, time.process_time() - cpu)
    assert wall > 0
