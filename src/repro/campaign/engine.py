"""Campaign orchestration: cache lookup, execution, resume, aggregation.

:func:`run_campaign` is the single entry point the experiment table (and
so the runner) and the benchmarks share.  It expands a
:class:`~repro.campaign.spec.SweepSpec` (or takes an explicit task list),
serves whatever the :class:`~repro.campaign.store.ResultStore` already
holds, executes the remainder on a :mod:`repro.campaign.executor`
(persisting each result as it completes, so an interrupted campaign
resumes for free), and returns the rows re-ordered into task-submission
order — making the output a pure function of the task list, independent
of worker count, scheduling, and how many runs it took to finish the
sweep.

Every run also produces a :class:`CampaignTelemetry`: the per-phase time
breakdown (queue-wait / dispatch / compute / result-transfer) summed over
the executed tasks, plus the worker-side metric snapshots merged into the
coordinator's :mod:`repro.obs` registry.  Telemetry is pure measurement —
rows are bit-identical with tracing on or off, at any ``jobs`` — and when
span tracing is enabled the engine emits one ``campaign.task`` span per
task (phase attributes attached) under a ``campaign.run`` root, which is
what ``python -m repro.obs report`` rolls up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import repro.obs as obs
from repro.campaign.executor import TaskFailure, TaskTelemetry, make_executor
from repro.campaign.spec import SweepSpec, Task
from repro.campaign.store import ResultStore
from repro.errors import SimulationError

__all__ = [
    "CampaignFailed",
    "CampaignProgress",
    "CampaignResult",
    "CampaignTelemetry",
    "TaskFailure",
    "last_campaign_telemetry",
    "run_campaign",
]


class CampaignFailed(SimulationError):
    """Some tasks of a campaign produced no rows; every other task finished.

    Raised by :func:`run_campaign` after the whole sweep has run, so every
    completed task is already persisted and a rerun executes only the
    failed ones.  ``failures`` lists the :class:`TaskFailure` records in
    task-submission order.
    """

    def __init__(self, failures: Sequence[TaskFailure], total: int):
        super().__init__(
            f"{len(failures)} of {total} tasks failed: {failures[0].describe()}"
        )
        self.failures = list(failures)


@dataclass(frozen=True)
class CampaignProgress:
    """One progress event: a task just completed (or was served from cache)."""

    done: int
    total: int
    task: Task
    from_cache: bool
    #: Submission-to-receipt wall time of this task (store-lookup time for
    #: cache hits).  Measurement only — never part of the result rows.
    wall_s: float = 0.0
    #: The task produced no rows (see :class:`TaskFailure`).
    failed: bool = False


ProgressCallback = Callable[[CampaignProgress], None]


@dataclass
class CampaignTelemetry:
    """Aggregate run telemetry: where the campaign's wall time went.

    All fields are measurements (host-monotonic seconds / merged metric
    snapshots); nothing here influences task results.  The four phase
    sums cover executed tasks only — cache hits never enter a worker.
    """

    #: Wall time of the whole :func:`run_campaign` call.
    wall_s: float = 0.0
    #: Summed submission-to-receipt wall time of the executed tasks.
    task_wall_s: float = 0.0
    #: Summed store-lookup time of the tasks served from cache.
    cache_wall_s: float = 0.0
    queue_wait_s: float = 0.0
    dispatch_s: float = 0.0
    compute_s: float = 0.0
    transfer_s: float = 0.0
    #: Distinct executor batches the executed tasks rode in (equals the
    #: executed-task count at ``jobs=1``, where every task is its own
    #: size-1 batch).
    batches: int = 0
    #: Worker-side metric snapshots merged across all executed tasks
    #: (empty at ``jobs=1``, where increments land in the coordinator's
    #: process registry directly).
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Failed tasks and pool rebuilds after a worker death; both zero on
    #: a clean run.
    degraded: int = 0
    worker_crashes: int = 0

    @property
    def overhead_fraction(self) -> float:
        """Fraction of executed-task wall time spent outside compute."""
        if self.task_wall_s <= 0.0:
            return 0.0
        return (self.queue_wait_s + self.dispatch_s + self.transfer_s) / self.task_wall_s

    def absorb(self, task_telemetry: TaskTelemetry) -> None:
        """Fold one executed task's telemetry into the run totals."""
        self.task_wall_s += task_telemetry.wall_s
        self.queue_wait_s += task_telemetry.queue_wait_s
        self.dispatch_s += task_telemetry.dispatch_s
        self.compute_s += task_telemetry.compute_s
        self.transfer_s += task_telemetry.transfer_s


@dataclass
class CampaignResult:
    """Completed campaign: per-task rows plus execution accounting."""

    tasks: Sequence[Task]
    rows_by_hash: Dict[str, List[Dict[str, Any]]]
    executed: int
    cached: int
    telemetry: CampaignTelemetry = field(default_factory=CampaignTelemetry)

    @property
    def total(self) -> int:
        """Number of distinct tasks in the campaign."""
        return len(self.rows_by_hash)

    def rows(self) -> List[Dict[str, Any]]:
        """All result rows flattened in task-submission order."""
        out: List[Dict[str, Any]] = []
        for task in self.tasks:
            out.extend(self.rows_by_hash[task.task_hash])
        return out

    def rows_for(self, task: Task) -> List[Dict[str, Any]]:
        """The rows one task produced."""
        try:
            return self.rows_by_hash[task.task_hash]
        except KeyError:
            raise SimulationError(f"task {task.describe()} is not part of this campaign")


# The telemetry of the most recent run_campaign call in this process.
# Kept so callers one level removed from the CampaignResult (the
# experiment table returns ResultTables) can still report the run breakdown.
_last_telemetry: Optional[CampaignTelemetry] = None


def last_campaign_telemetry() -> Optional[CampaignTelemetry]:
    """Telemetry of this process's most recent campaign run, if any."""
    return _last_telemetry


def _set_last_telemetry(telemetry: CampaignTelemetry) -> None:
    """Record the just-finished run's telemetry (coordinator process only)."""
    global _last_telemetry
    _last_telemetry = telemetry


def run_campaign(
    work: Union[SweepSpec, Iterable[Task]],
    store: Union[ResultStore, str, Path, None] = None,
    jobs: int = 1,
    progress: Optional[ProgressCallback] = None,
) -> CampaignResult:
    """Run a sweep to completion and return its rows in deterministic order.

    Parameters
    ----------
    work:
        A :class:`SweepSpec` (expanded in grid order) or an explicit task
        iterable.  Duplicate tasks execute once, but their rows appear
        once per occurrence in :meth:`CampaignResult.rows`.
    store:
        Optional :class:`ResultStore` (or a directory path for one).
        Completed tasks are persisted as they finish; on the next run
        they are served from disk instead of re-executed.
    jobs:
        Worker processes; ``1`` runs serially in-process.  The result is
        bit-identical for every value because each task derives all of
        its randomness from its own parameters.
    progress:
        Optional callback invoked once per task completion, cache hits
        and failures included, with a :class:`CampaignProgress` event.

    Raises
    ------
    CampaignFailed
        After the whole sweep has run, when any task produced no rows
        (see :mod:`repro.campaign.executor` for the failure policy).  The
        completed tasks are already in the store.
    """
    if isinstance(work, SweepSpec):
        tasks = work.expand()
    else:
        tasks = list(work)
    unique: List[Task] = []
    seen = set()
    for task in tasks:
        if not isinstance(task, Task):
            raise SimulationError(f"campaign work must be Task objects, got {type(task).__name__}")
        if task.task_hash not in seen:
            seen.add(task.task_hash)
            unique.append(task)

    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)

    telemetry = CampaignTelemetry()
    run_begin = obs.monotonic()
    with obs.span("campaign.run", tasks=len(unique), jobs=jobs) as run_span:
        rows_by_hash: Dict[str, List[Dict[str, Any]]] = {}
        pending: List[Task] = []
        cache_walls: Dict[str, float] = {}
        for task in unique:
            cached_rows = None
            if store is not None:
                lookup_begin = obs.monotonic()
                cached_rows = store.get(task)
                cache_walls[task.task_hash] = obs.monotonic() - lookup_begin
            if cached_rows is not None:
                rows_by_hash[task.task_hash] = cached_rows
            else:
                pending.append(task)
        cached = len(unique) - len(pending)

        done = 0
        total = len(unique)

        def emit(task: Task, from_cache: bool, wall_s: float, failed: bool = False) -> None:
            nonlocal done
            done += 1
            if progress is not None:
                progress(
                    CampaignProgress(
                        done=done,
                        total=total,
                        task=task,
                        from_cache=from_cache,
                        wall_s=wall_s,
                        failed=failed,
                    )
                )

        for task in unique:
            if task.task_hash in rows_by_hash:
                wall_s = cache_walls.get(task.task_hash, 0.0)
                telemetry.cache_wall_s += wall_s
                now = obs.monotonic()
                obs.emit_span(
                    "campaign.task",
                    now - wall_s,
                    now,
                    task=task.describe(),
                    cached=True,
                )
                emit(task, from_cache=True, wall_s=wall_s)

        batch_indices: "set[int]" = set()

        def on_result(
            task: Task, rows: List[Dict[str, Any]], task_telemetry: TaskTelemetry
        ) -> None:
            # Streaming results path: completed batches land here while
            # other batches are still computing in the pool, so the
            # store write and progress emission below overlap worker
            # compute instead of serialising after the sweep.
            rows_by_hash[task.task_hash] = rows
            if store is not None:
                store.put(task, rows)
            telemetry.absorb(task_telemetry)
            batch_indices.add(task_telemetry.batch_index)
            telemetry.batches = len(batch_indices)
            if task_telemetry.metrics:
                obs.merge_metrics(task_telemetry.metrics)
                _merge_into(telemetry.metrics, task_telemetry.metrics)
            obs.emit_span(
                "campaign.task",
                task_telemetry.submitted_s,
                task_telemetry.received_s,
                task=task.describe(),
                cached=False,
                queue_wait_s=task_telemetry.queue_wait_s,
                dispatch_s=task_telemetry.dispatch_s,
                compute_s=task_telemetry.compute_s,
                transfer_s=task_telemetry.transfer_s,
                batch=task_telemetry.batch_index,
                batch_size=task_telemetry.batch_size,
            )
            emit(task, from_cache=False, wall_s=task_telemetry.wall_s)

        failures: Dict[str, TaskFailure] = {}

        def on_failure(failure: TaskFailure) -> None:
            # Never persisted: the next run re-executes exactly this task.
            failures[failure.task.task_hash] = failure
            now = obs.monotonic()
            obs.emit_span(
                "campaign.failed",
                now,
                now,
                task=failure.task.describe(),
                kind=failure.kind,
                message=failure.message,
            )
            emit(failure.task, from_cache=False, wall_s=0.0, failed=True)

        if pending:
            telemetry.worker_crashes = make_executor(jobs).run(pending, on_result, on_failure)
        telemetry.degraded = len(failures)
        run_span.set(
            executed=len(pending) - len(failures),
            cached=cached,
            batches=telemetry.batches,
            failed=len(failures),
        )

    telemetry.wall_s = obs.monotonic() - run_begin
    _set_last_telemetry(telemetry)
    if failures:
        ordered = [failures[task.task_hash] for task in pending if task.task_hash in failures]
        raise CampaignFailed(ordered, total)
    return CampaignResult(
        tasks=tuple(tasks),
        rows_by_hash=rows_by_hash,
        executed=len(pending),
        cached=cached,
        telemetry=telemetry,
    )


def _merge_into(
    accumulated: Dict[str, Dict[str, Any]], snapshot: Dict[str, Dict[str, Any]]
) -> None:
    """Accumulate one worker snapshot into the campaign's merged metrics."""
    registry = obs.MetricsRegistry()
    registry.merge(accumulated)
    registry.merge(snapshot)
    accumulated.clear()
    accumulated.update(registry.snapshot())
