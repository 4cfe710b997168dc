"""Campaign orchestration: cache lookup, execution, resume, aggregation.

:func:`run_campaign` is the single entry point the experiments, the CLI,
and the benchmarks share.  It expands a :class:`~repro.campaign.spec.SweepSpec`
(or takes an explicit task list), serves whatever the
:class:`~repro.campaign.store.ResultStore` already holds, executes the
remainder on a :mod:`repro.campaign.executor` (persisting each result as
it completes, so an interrupted campaign resumes for free), and returns
the rows re-ordered into task-submission order — making the output a
pure function of the task list, independent of worker count, scheduling,
and how many runs it took to finish the sweep.

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
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import repro.obs as obs
from repro.campaign.executor import TaskFailure, TaskTelemetry, make_executor
from repro.campaign.spec import SweepSpec, Task
from repro.campaign.store import ResultStore
from repro.errors import ConfigurationError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - the runtime import would be circular
    from repro.faults.chaos import ChaosPlan

__all__ = [
    "CampaignProgress",
    "CampaignResult",
    "CampaignTelemetry",
    "RunPolicy",
    "TaskFailure",
    "last_campaign_telemetry",
    "reset_run_policy",
    "run_campaign",
    "set_run_policy",
]


@dataclass(frozen=True)
class RunPolicy:
    """Resilience knobs one :func:`run_campaign` call runs under.

    The process-wide default (see :func:`set_run_policy`) lets the CLI
    arm retries/timeouts for the figure sweeps without threading new
    keyword arguments through the experiment table; explicit
    ``run_campaign`` keywords override it field by field.

    * ``retries`` — re-queue attempts per failed task / crash-lost batch;
    * ``task_timeout_s`` — per-task wall-clock budget (``None`` = off);
    * ``backoff_s`` — base of the exponential re-queue backoff;
    * ``degrade`` — when ``True``, tasks that exhaust their budget become
      structured :class:`TaskFailure` rows on the result instead of
      aborting the sweep;
    * ``chaos`` — optional :class:`~repro.faults.chaos.ChaosPlan`
      injecting worker crashes / slow tasks / store-object corruption
      (testing only; results stay bit-identical because every task's rows
      are a pure function of its parameters).
    """

    retries: int = 0
    task_timeout_s: Optional[float] = None
    backoff_s: float = 0.05
    degrade: bool = False
    chaos: Optional["ChaosPlan"] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if self.task_timeout_s is not None and self.task_timeout_s <= 0.0:
            raise ConfigurationError("task_timeout_s must be positive (or None)")
        if self.backoff_s < 0.0:
            raise ConfigurationError("backoff_s must be >= 0")


#: Process-wide default policy; plain historical behaviour unless the
#: CLI (or a test) installs something else via :func:`set_run_policy`.
_run_policy = RunPolicy()


def set_run_policy(policy: RunPolicy) -> RunPolicy:
    """Install the default :class:`RunPolicy`; returns the previous one."""
    global _run_policy
    previous = _run_policy
    _run_policy = policy
    return previous


def reset_run_policy() -> None:
    """Restore the plain (no-retry, no-timeout, fail-fast) default policy."""
    global _run_policy
    _run_policy = RunPolicy()


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
    #: The task exhausted its retry budget and was surrendered (degraded
    #: runs only — fail-fast runs abort instead of reporting this).
    failed: bool = False

    def format(self) -> str:
        """Render as the one-line form the CLI prints."""
        width = len(str(self.total))
        origin = "failed" if self.failed else ("cached" if self.from_cache else "ran")
        wall = (
            f"{self.wall_s * 1e3:.1f}ms" if self.wall_s < 1.0 else f"{self.wall_s:.2f}s"
        )
        return (
            f"[{self.done:{width}d}/{self.total}] {origin:6s} "
            f"{self.task.describe()} ({wall})"
        )


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
    #: Resilience accounting (see :class:`RunPolicy`): re-queued batches,
    #: per-task timeout expiries, tasks surrendered as failures, and pool
    #: rebuilds after a worker death.  All zero on a clean run.
    retried: int = 0
    timeouts: int = 0
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

    def summary(self) -> str:
        """One-line phase breakdown for the CLI's stderr summary."""
        batches = f" in {self.batches} batches" if self.batches else ""
        return (
            f"phases over {self.task_wall_s:.3f}s of executed-task wall time{batches}: "
            f"queue-wait {self.queue_wait_s:.3f}s, dispatch {self.dispatch_s:.3f}s, "
            f"compute {self.compute_s:.3f}s, transfer {self.transfer_s:.3f}s "
            f"(executor overhead {self.overhead_fraction * 100.0:.1f}%)"
        )

    def resilience_summary(self) -> str:
        """Deterministic one-line retry/timeout/degradation account."""
        return (
            f"{self.retried} retried, {self.timeouts} timed out, "
            f"{self.degraded} degraded, {self.worker_crashes} worker crashes"
        )


@dataclass
class CampaignResult:
    """Completed campaign: per-task rows plus execution accounting."""

    tasks: Sequence[Task]
    rows_by_hash: Dict[str, List[Dict[str, Any]]]
    executed: int
    cached: int
    telemetry: CampaignTelemetry = field(default_factory=CampaignTelemetry)
    #: Tasks surrendered after exhausting their retry budget (degraded
    #: runs only).  Their hashes are absent from ``rows_by_hash`` and
    #: never persisted, so a rerun re-executes exactly these tasks.
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Number of distinct tasks in the campaign."""
        return len(self.rows_by_hash)

    def rows(self) -> List[Dict[str, Any]]:
        """All result rows flattened in task-submission order.

        Failed tasks (degraded runs) contribute no rows — consult
        :attr:`failures` / :meth:`failure_rows` for their record.
        """
        out: List[Dict[str, Any]] = []
        for task in self.tasks:
            out.extend(self.rows_by_hash.get(task.task_hash, []))
        return out

    def failure_rows(self) -> List[Dict[str, Any]]:
        """Structured failure records in task-submission order."""
        by_hash = {failure.task.task_hash: failure for failure in self.failures}
        out = []
        for task in self.tasks:
            failure = by_hash.get(task.task_hash)
            if failure is None:
                continue
            out.append(
                {
                    "task": failure.task.describe(),
                    "task_hash": failure.task.task_hash,
                    "kind": failure.kind,
                    "attempts": failure.attempts,
                    "message": failure.message,
                }
            )
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
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
    batch_size: Optional[int] = None,
    retries: Optional[int] = None,
    task_timeout_s: Optional[float] = None,
    backoff_s: Optional[float] = None,
    degrade: Optional[bool] = None,
    chaos: Optional["ChaosPlan"] = None,
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
    resume:
        When ``False``, stored results are ignored (and overwritten):
        every task re-executes.
    progress:
        Optional callback invoked once per task completion, cache hits
        included, with a :class:`CampaignProgress` event.
    batch_size:
        Tasks per executor batch when ``jobs > 1``; ``None`` (the
        default) derives a size that gives every worker several batches.
        Purely a scheduling knob — rows are bit-identical at any value.
    retries / task_timeout_s / backoff_s / degrade / chaos:
        Resilience knobs; each defaults to the process-wide
        :class:`RunPolicy` (see :func:`set_run_policy`) when ``None``.
        With ``degrade`` on, tasks that exhaust their retry budget land
        in :attr:`CampaignResult.failures` instead of aborting the run —
        and because failures are never persisted, a later run heals them
        from the store.  All of these are scheduling-only: the rows of
        every task that completes are bit-identical whatever the knobs.
    """
    policy = _run_policy
    retries = policy.retries if retries is None else retries
    task_timeout_s = policy.task_timeout_s if task_timeout_s is None else task_timeout_s
    backoff_s = policy.backoff_s if backoff_s is None else backoff_s
    degrade = policy.degrade if degrade is None else degrade
    chaos = policy.chaos if chaos is None else chaos
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
            if store is not None and resume:
                lookup_begin = obs.monotonic()
                cached_rows = store.get(task)
                cache_walls[task.task_hash] = obs.monotonic() - lookup_begin
            else:
                cached_rows = None
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
                if chaos is not None and chaos.should_corrupt(task.task_hash):
                    # Chaos injection: mangle the just-persisted object.
                    # This run's rows are already in memory, so the sweep
                    # is unaffected; the *next* run quarantines the
                    # object and recomputes — the healing path under test.
                    store.corrupt_object(task.task_hash)
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

        failures: List[TaskFailure] = []

        def on_failure(failure: TaskFailure) -> None:
            # Graceful degradation: the task exhausted its retry budget.
            # Record it (never persist it — the next run re-executes it
            # from the store's point of view) and keep the sweep going.
            failures.append(failure)
            now = obs.monotonic()
            obs.emit_span(
                "campaign.degraded",
                now,
                now,
                task=failure.task.describe(),
                kind=failure.kind,
                attempts=failure.attempts,
                message=failure.message,
            )
            emit(failure.task, from_cache=False, wall_s=0.0, failed=True)

        if pending:
            executor = make_executor(
                jobs,
                batch_size=batch_size,
                retries=retries,
                task_timeout_s=task_timeout_s,
                backoff_s=backoff_s,
                chaos=chaos,
            )
            stats = executor.run(pending, on_result, on_failure if degrade else None)
            telemetry.retried = stats.retried
            telemetry.timeouts = stats.timeouts
            telemetry.degraded = stats.degraded
            telemetry.worker_crashes = stats.worker_crashes
        run_span.set(
            executed=len(pending) - len(failures),
            cached=cached,
            batches=telemetry.batches,
            failed=len(failures),
        )

    telemetry.wall_s = obs.monotonic() - run_begin
    _set_last_telemetry(telemetry)
    return CampaignResult(
        tasks=tuple(tasks),
        rows_by_hash=rows_by_hash,
        executed=len(pending) - len(failures),
        cached=cached,
        telemetry=telemetry,
        failures=failures,
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
