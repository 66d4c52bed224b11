"""Parallel experiment runner: shard, fan out, merge deterministically.

The figure experiments are embarrassingly parallel — every (workload,
scheme) pair builds its own :class:`~repro.system.System` and runs with
fixed seeds — so the runner shards row-per-workload experiments into one
task per workload and fans tasks out over a ``multiprocessing`` pool.  Rows
are re-merged in the serial iteration order, so output is byte-identical to
a serial run regardless of worker count or completion order (there is a
golden test for exactly that).

Tasks are (experiment name, kwargs) pairs resolved against
:mod:`~repro.analysis.registry` inside the worker, which keeps them
picklable and the per-task seeds explicit: everything that varies is in the
kwargs, nothing depends on scheduling.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from .report import ExperimentResult
from .rescache import ResultCache


@dataclass(frozen=True)
class Task:
    """One unit of work: run ``EXPERIMENTS[name](**kwargs)``."""

    #: Experiment whose rows this task contributes to (output grouping).
    experiment: str
    name: str
    kwargs: Dict[str, Any] = field(default_factory=dict)


def plan_tasks(
    names: Sequence[str], kwargs_for: Dict[str, Dict[str, Any]]
) -> List[Task]:
    """Shard ``names`` into tasks; row-per-workload experiments split."""
    from .registry import ROW_PER_WORKLOAD
    from .experiments import BENCH_WORKLOADS

    tasks: List[Task] = []
    for name in names:
        kwargs = dict(kwargs_for.get(name, {}))
        if name in ROW_PER_WORKLOAD:
            workloads = kwargs.pop("workloads", None) or list(BENCH_WORKLOADS)
            for workload in workloads:
                shard = dict(kwargs, workloads=[workload])
                tasks.append(Task(name, name, shard))
        else:
            tasks.append(Task(name, name, kwargs))
    return tasks


def execute_task(task: Task) -> ExperimentResult:
    """Run one task in the current process."""
    from .registry import EXPERIMENTS

    driver = EXPERIMENTS[task.name]
    return driver(**task.kwargs)


def merge_shards(experiment: str, shards: List[ExperimentResult]) -> ExperimentResult:
    """Concatenate row shards (already in serial order) into one result."""
    if len(shards) == 1:
        return shards[0]
    first = shards[0]
    merged = ExperimentResult(
        first.experiment, first.title, first.columns, notes=list(first.notes)
    )
    for shard in shards:
        merged.rows.extend(shard.rows)
    return merged


def run_tasks(
    tasks: Sequence[Task],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> List[ExperimentResult]:
    """Execute ``tasks`` and return one merged result per experiment.

    Results are grouped by ``task.experiment`` preserving first-appearance
    order; with ``jobs > 1`` cache misses run on a fork-server pool.  The
    cache (when given) is consulted before fan-out and updated after.
    """
    results: List[Optional[ExperimentResult]] = [None] * len(tasks)
    misses: List[int] = []
    if cache is not None:
        for i, task in enumerate(tasks):
            hit = cache.get(task.name, task.kwargs)
            if hit is not None:
                results[i] = hit
            else:
                misses.append(i)
    else:
        misses = list(range(len(tasks)))

    if misses:
        if jobs > 1 and len(misses) > 1:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # platforms without fork
                context = multiprocessing.get_context()
            with context.Pool(min(jobs, len(misses))) as pool:
                fresh = pool.map(execute_task, [tasks[i] for i in misses])
        else:
            fresh = [execute_task(tasks[i]) for i in misses]
        for i, result in zip(misses, fresh):
            results[i] = result
            if cache is not None:
                cache.put(tasks[i].name, tasks[i].kwargs, result)

    # Group shards per experiment, preserving first-appearance order.
    order: List[str] = []
    shards: Dict[str, List[ExperimentResult]] = {}
    for task, result in zip(tasks, results):
        if task.experiment not in shards:
            shards[task.experiment] = []
            order.append(task.experiment)
        shards[task.experiment].append(result)
    return [merge_shards(name, shards[name]) for name in order]
