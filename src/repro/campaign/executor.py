"""Task executors: in-process serial and batched ``multiprocessing`` pools.

Both executors implement the same protocol — ``run(tasks, on_result,
on_failure=None)`` calls ``on_result(task, rows, telemetry)`` once per
completed task — and both produce bit-identical results for the same
task list, because every task carries its own seed and shares no state
with its siblings.  The engine (:mod:`repro.campaign.engine`) re-orders
completions back into submission order, so callers never observe
scheduling.

The parallel path is *batched*: tasks shard into :class:`TaskBatch`
units — contiguous slices of the submission order, sized
``ceil(n_tasks / (BATCHES_PER_WORKER * jobs))`` — and each batch is one
pool round-trip.  A warm :class:`concurrent.futures.ProcessPoolExecutor`
stays alive for the whole run; the worker loops
:func:`repro.campaign.tasks.run_task` over its batch so the per-task
process round-trips that made fig-sized sweeps *slower* under ``--jobs``
(0.84x at 4 workers before this rework) disappear into one dispatch,
one queue transit, and one result transfer per batch.

**Resilience.**  Both executors support bounded retry with exponential
backoff, per-task wall-clock timeouts, and graceful degradation:

* a task that raises a :class:`~repro.errors.ReproError` (or exceeds
  ``task_timeout_s``) is recorded as a *failure* inside its batch — the
  rest of the batch still completes and is delivered;
* failed tasks are re-queued (alone, as a fresh batch) up to
  ``retries`` times, after ``backoff_s * 2**attempt`` seconds of
  seeded-jitter backoff;
* a worker process that dies (broken pool) costs only the batches that
  were in flight: the pool is rebuilt and those batches re-queued at
  the next attempt, surfacing as :class:`~repro.errors.WorkerCrashError`
  only once their retry budget is spent;
* with an ``on_failure`` callback the run *degrades* instead of
  raising: exhausted tasks become :class:`TaskFailure` records and the
  sweep completes.  Without one, the first exhausted failure re-raises
  (the pre-resilience behaviour).

Retries, backoff, and timeouts are pure scheduling — a task's rows are
a function of its parameters alone, so a row produced on attempt 3 is
bit-identical to one produced on attempt 0.  The optional
:class:`~repro.faults.chaos.ChaosPlan` injects deterministic worker
crashes and slow tasks for testing these paths; see
:mod:`repro.faults.chaos`.

The :class:`TaskTelemetry` handed to ``on_result`` is pure measurement —
it never feeds back into rows or seeds.  Batch-level costs (dispatch,
queue-wait, result transfer) are amortised evenly across the batch's
members while compute is stamped per task in the worker, so the four
phases still tile each task's reported wall time exactly and batch walls
sum to the true batch interval.  The cross-process timestamp arithmetic
is sound because every stamp comes from
:func:`repro.obs.clock.monotonic` (``CLOCK_MONOTONIC`` is host-wide).

:class:`SerialExecutor` runs everything in the calling process and is
what tests and ``--jobs 1`` use; :class:`ProcessExecutor` fans batches
out over the pool.  The ``fork`` start method is preferred when the
platform offers it (workers inherit already-registered task kinds);
under ``spawn`` the workers re-import the builtin task modules via the
pool initializer, so builtin kinds work everywhere and custom kinds need
only live in an importable module.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import repro.obs as obs
from repro.campaign.spec import Task
from repro.campaign.tasks import _ensure_builtins, run_task
from repro.errors import ConfigurationError, ReproError, SimulationError, WorkerCrashError
from repro.obs import metrics_snapshot, monotonic, reset_metrics
from repro.utils.rng import make_rng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.chaos import ChaosPlan

__all__ = [
    "BATCHES_PER_WORKER",
    "ExecutorStats",
    "ProcessExecutor",
    "SerialExecutor",
    "TaskBatch",
    "TaskFailure",
    "TaskTelemetry",
    "make_executor",
]

#: Oversubscription factor: tasks shard into ~this many batches per
#: worker, so stragglers rebalance while round-trips stay amortised.
BATCHES_PER_WORKER = 4

#: Upper bound on one backoff pause, whatever the attempt count.
_BACKOFF_CAP_S = 5.0

_OBS_RETRIES = obs.counter("executor.retries", "failed batches re-queued for another attempt")
_OBS_TIMEOUTS = obs.counter("executor.timeouts", "tasks that exceeded their wall-clock timeout")
_OBS_DEGRADED = obs.counter(
    "executor.degraded", "tasks surrendered as failure records after exhausting retries"
)
_OBS_WORKER_CRASHES = obs.counter(
    "executor.worker_crashes", "pool rebuilds after a worker process died"
)


@dataclass(frozen=True)
class TaskTelemetry:
    """Where one executed task's wall time went, plus its worker metrics.

    All timestamps are host-wide monotonic seconds.  The four phases tile
    the interval ``[submitted_s, received_s]`` exactly:

    * ``dispatch_s`` — the coordinator's ``submit`` call (serialising the
      batch into the pool's work queue), amortised over the batch;
    * ``queue_wait_s`` — this task's share of the wait until the worker
      began the batch, plus the worker-side gap before this task;
    * ``compute_s`` — ``run_task`` itself, stamped per task in the worker;
    * ``transfer_s`` — this task's share of the result's pickle-pipe
      transit + the coordinator's completion-loop latency.

    For batched execution the batch-level phases are divided evenly over
    the batch's members and each task's ``[submitted_s, received_s]``
    interval is synthesised around its worker compute stamps, so per-task
    walls still tile exactly and the batch's walls sum to the true
    submit-to-receipt interval.  ``metrics`` is the worker registry's
    per-task snapshot (empty for the serial executor, whose increments
    land in the coordinator's registry directly).  ``batch_index`` /
    ``batch_size`` identify the batch the task rode in (serial tasks are
    their own size-1 batch).
    """

    submitted_s: float
    received_s: float
    dispatch_s: float
    queue_wait_s: float
    compute_s: float
    transfer_s: float
    metrics: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    batch_index: int = 0
    batch_size: int = 1

    @property
    def wall_s(self) -> float:
        """Submission-to-receipt wall time of the task."""
        return self.received_s - self.submitted_s


@dataclass(frozen=True)
class TaskFailure:
    """One task surrendered after its retry budget ran out.

    ``kind`` is ``"error"`` (the task raised a :class:`ReproError`),
    ``"timeout"`` (it exceeded the per-task wall-clock budget), or
    ``"crash"`` (its worker process died).  ``attempts`` counts every
    execution attempt, including the final failed one.  Failures are
    never persisted to the result store, so a later run re-executes
    exactly the failed tasks.
    """

    task: Task
    kind: str
    message: str
    attempts: int

    def describe(self) -> str:
        """One-line form for progress output and failure tables."""
        plural = "s" if self.attempts != 1 else ""
        return (
            f"{self.task.describe()} failed ({self.kind} after "
            f"{self.attempts} attempt{plural}): {self.message}"
        )


@dataclass
class ExecutorStats:
    """Resilience accounting for one ``run()`` call (measurement only)."""

    retried: int = 0
    timeouts: int = 0
    degraded: int = 0
    worker_crashes: int = 0


OnResult = Callable[[Task, List[Dict[str, Any]], TaskTelemetry], None]
OnFailure = Callable[[TaskFailure], None]


@dataclass(frozen=True)
class TaskBatch:
    """One pool round-trip: a contiguous slice of the submission order."""

    index: int
    tasks: Tuple[Task, ...]

    def __len__(self) -> int:
        return len(self.tasks)


class _TaskTimeout(Exception):
    """Internal: a task ran past its wall-clock budget (never escapes)."""


def _alarm_handler(signum: int, frame: Any) -> None:
    raise _TaskTimeout()


def _run_task_guarded(
    task: Task, task_timeout_s: Optional[float], chaos: Optional["ChaosPlan"]
) -> List[Dict[str, Any]]:
    """``run_task`` under an optional SIGALRM wall-clock budget.

    The interval timer only works from a main thread on a POSIX host;
    elsewhere the timeout silently degrades to "no budget" rather than
    failing the task.  Chaos slow-downs sleep *inside* the alarm window
    so an injected slow task is indistinguishable from a genuinely slow
    one.  Raises :class:`_TaskTimeout` on expiry.
    """
    delay = chaos.slow_delay(task.task_hash) if chaos is not None else 0.0
    armed = (
        task_timeout_s is not None
        and task_timeout_s > 0.0
        and hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )
    if not armed:
        if delay > 0.0:
            time.sleep(delay)
        return run_task(task)
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    assert task_timeout_s is not None  # narrowed by ``armed``
    signal.setitimer(signal.ITIMER_REAL, task_timeout_s)
    try:
        if delay > 0.0:
            time.sleep(delay)
        return run_task(task)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _backoff_delay(backoff_s: float, attempt: int, rng: Any) -> float:
    """Exponential backoff with deterministic jitter (timing only).

    The jitter draw comes from a seeded generator so chaos tests pace
    identically run to run, but the value never touches task results —
    it only spaces out re-submissions.
    """
    if backoff_s <= 0.0:
        return 0.0
    base = min(backoff_s * (2.0**attempt), _BACKOFF_CAP_S)
    return float(base * (1.0 + 0.25 * rng.random()))


class SerialExecutor:
    """Execute tasks one after another in the calling process.

    Supports the same resilience knobs as :class:`ProcessExecutor`
    (bounded retry with backoff, per-task timeouts, degradation via
    ``on_failure``, chaos slow-downs) minus the crash injection — there
    is no worker process to kill.  The defaults reproduce the historical
    behaviour: no retries, no timeout, first failure raises.
    """

    jobs = 1

    def __init__(
        self,
        retries: int = 0,
        task_timeout_s: Optional[float] = None,
        backoff_s: float = 0.05,
        chaos: Optional["ChaosPlan"] = None,
    ):
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if task_timeout_s is not None and task_timeout_s <= 0.0:
            raise ConfigurationError("task_timeout_s must be positive (or None)")
        if backoff_s < 0.0:
            raise ConfigurationError("backoff_s must be >= 0")
        self.retries = retries
        self.task_timeout_s = task_timeout_s
        self.backoff_s = backoff_s
        self.chaos = chaos

    def run(
        self,
        tasks: Sequence[Task],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
    ) -> ExecutorStats:
        stats = ExecutorStats()
        backoff_rng = make_rng(self.chaos.seed if self.chaos is not None else 0, "backoff")
        for index, task in enumerate(tasks):
            for attempt in range(self.retries + 1):
                begin = monotonic()
                try:
                    rows = _run_task_guarded(task, self.task_timeout_s, self.chaos)
                except (ReproError, _TaskTimeout) as error:
                    timed_out = isinstance(error, _TaskTimeout)
                    if timed_out:
                        stats.timeouts += 1
                        _OBS_TIMEOUTS.inc()
                        assert self.task_timeout_s is not None  # alarm implies budget
                        message = f"task exceeded its {self.task_timeout_s:.3f}s budget"
                    else:
                        message = str(error)
                    if attempt < self.retries:
                        stats.retried += 1
                        _OBS_RETRIES.inc()
                        pause = _backoff_delay(self.backoff_s, attempt, backoff_rng)
                        now = monotonic()
                        obs.emit_span(
                            "campaign.retry",
                            now,
                            now,
                            task=task.describe(),
                            attempt=attempt + 1,
                            delay_s=pause,
                            reason="timeout" if timed_out else "error",
                        )
                        if pause > 0.0:
                            time.sleep(pause)
                        continue
                    failure = TaskFailure(
                        task=task,
                        kind="timeout" if timed_out else "error",
                        message=message,
                        attempts=attempt + 1,
                    )
                    if on_failure is not None:
                        stats.degraded += 1
                        _OBS_DEGRADED.inc()
                        on_failure(failure)
                        break
                    if timed_out:
                        raise SimulationError(failure.describe()) from None
                    raise
                end = monotonic()
                on_result(
                    task,
                    rows,
                    TaskTelemetry(
                        submitted_s=begin,
                        received_s=end,
                        dispatch_s=0.0,
                        queue_wait_s=0.0,
                        compute_s=end - begin,
                        transfer_s=0.0,
                        batch_index=index,
                        batch_size=1,
                    ),
                )
                break
        return stats


def _worker_init() -> None:
    """Pool initializer: make the builtin task kinds resolvable."""
    _ensure_builtins()


#: Per-task worker measurement: compute start/finish stamps plus the
#: worker registry's per-task metric snapshot.
_TaskRun = Tuple[float, float, Dict[str, Dict[str, Any]]]

#: One failed task inside a batch: (position, kind, message).
_TaskFault = Tuple[int, str, str]

#: What one worker batch invocation sends back: (batch index, rows per
#: task, runs, faults).
_BatchResult = Tuple[int, List[List[Dict[str, Any]]], List[_TaskRun], List[_TaskFault]]


def _execute_batch(
    batch: TaskBatch,
    attempt: int = 0,
    task_timeout_s: Optional[float] = None,
    chaos: Optional["ChaosPlan"] = None,
) -> _BatchResult:
    """Top-level worker entry point (must be picklable).

    Loops ``run_task`` over the batch so its tasks share one process
    round-trip.  The worker's metrics registry is reset before each task
    so every returned snapshot is that task's delta — fork-started
    workers inherit the coordinator's counter values, which must not be
    re-merged — and compute is stamped per task so batch telemetry can
    amortise only the true batch-level overheads.

    A task that raises a :class:`ReproError` or exceeds
    ``task_timeout_s`` becomes a ``(position, kind, message)`` fault
    entry (with an empty rows placeholder, so positions stay aligned);
    the remaining tasks in the batch still execute.  Injected chaos
    crashes fire *between* tasks.  The rows return over the pool's pickle
    pipe.
    """
    rows_per_task: List[List[Dict[str, Any]]] = []
    runs: List[_TaskRun] = []
    faults: List[_TaskFault] = []
    crash_at = -1
    if chaos is not None and chaos.should_crash(batch.index, attempt):
        crash_at = chaos.crash_position(batch.index, attempt, len(batch.tasks))
    for position, task in enumerate(batch.tasks):
        if position == crash_at:
            os._exit(13)  # simulated hard worker death (chaos injection)
        reset_metrics()
        started_s = monotonic()
        try:
            rows: List[Dict[str, Any]] = _run_task_guarded(task, task_timeout_s, chaos)
        except _TaskTimeout:
            assert task_timeout_s is not None  # the alarm only arms with a budget
            faults.append(
                (position, "timeout", f"task exceeded its {task_timeout_s:.3f}s budget")
            )
            rows = []
        except ReproError as error:
            faults.append((position, "error", str(error)))
            rows = []
        finished_s = monotonic()
        rows_per_task.append(rows)
        runs.append((started_s, finished_s, metrics_snapshot()))
    return batch.index, rows_per_task, runs, faults


class ProcessExecutor:
    """Execute tasks in batches on a warm pool of ``jobs`` workers.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).
    max_in_flight:
        How many *batches* may be submitted to the pool at once; bounding
        it keeps completion callbacks (store writes, progress) flowing
        during very large sweeps instead of after full submission.
        ``None`` (the default) means ``4 * jobs``; explicit values must
        be positive.
    batch_size:
        Tasks per batch.  ``None`` derives
        ``ceil(n_tasks / (BATCHES_PER_WORKER * jobs))`` at run time;
        explicit values must be positive (``1`` reproduces the old
        one-round-trip-per-task behaviour).
    start_method:
        Optional :mod:`multiprocessing` start method override (``"fork"``
        or ``"spawn"``); ``None`` prefers ``fork`` where available.
    retries:
        How many times a failed task (or a crash-lost batch) may be
        re-queued before it is surrendered.  ``0`` (the default) keeps
        the historical fail-fast behaviour.
    task_timeout_s:
        Per-task wall-clock budget enforced in the worker via an
        interval timer; ``None`` disables it.
    backoff_s:
        Base of the exponential re-queue backoff (seconds); attempt
        ``n`` waits ``backoff_s * 2**n`` plus deterministic jitter.
    chaos:
        Optional :class:`~repro.faults.chaos.ChaosPlan` injecting
        worker crashes and slow tasks (testing).
    """

    def __init__(
        self,
        jobs: int,
        max_in_flight: Optional[int] = None,
        batch_size: Optional[int] = None,
        start_method: Optional[str] = None,
        retries: int = 0,
        task_timeout_s: Optional[float] = None,
        backoff_s: float = 0.05,
        chaos: Optional["ChaosPlan"] = None,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if max_in_flight is not None and max_in_flight < 1:
            raise ConfigurationError(
                "max_in_flight must be >= 1 (or None for the 4*jobs default)"
            )
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(
                "batch_size must be >= 1 (or None to derive from the task count)"
            )
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if task_timeout_s is not None and task_timeout_s <= 0.0:
            raise ConfigurationError("task_timeout_s must be positive (or None)")
        if backoff_s < 0.0:
            raise ConfigurationError("backoff_s must be >= 0")
        self.jobs = jobs
        self.max_in_flight = 4 * jobs if max_in_flight is None else max_in_flight
        self.batch_size = batch_size
        self.start_method = start_method
        self.retries = retries
        self.task_timeout_s = task_timeout_s
        self.backoff_s = backoff_s
        self.chaos = chaos

    def _context(self) -> Any:
        methods = multiprocessing.get_all_start_methods()
        if self.start_method is not None:
            if self.start_method not in methods:
                raise ConfigurationError(
                    f"start method {self.start_method!r} is unavailable here; "
                    f"this platform offers: {', '.join(methods)}"
                )
            return multiprocessing.get_context(self.start_method)
        return multiprocessing.get_context("fork" if "fork" in methods else "spawn")

    def shard(self, tasks: Sequence[Task]) -> List[TaskBatch]:
        """Slice the submission order into worker-sized batches."""
        if not tasks:
            return []
        size = self.batch_size
        if size is None:
            size = max(1, math.ceil(len(tasks) / (BATCHES_PER_WORKER * self.jobs)))
        return [
            TaskBatch(index=index, tasks=tuple(tasks[offset: offset + size]))
            for index, offset in enumerate(range(0, len(tasks), size))
        ]

    def _make_pool(self, batches: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=min(self.jobs, max(1, batches)),
            mp_context=self._context(),
            initializer=_worker_init,
        )

    def run(
        self,
        tasks: Sequence[Task],
        on_result: OnResult,
        on_failure: Optional[OnFailure] = None,
    ) -> ExecutorStats:
        stats = ExecutorStats()
        batches = self.shard(list(tasks))
        if not batches:
            return stats
        backoff_rng = make_rng(self.chaos.seed if self.chaos is not None else 0, "backoff")
        # Batches awaiting submission / backoff-delayed re-queues; every
        # entry is paired with its attempt count so retry budgets follow
        # a batch through pool rebuilds.
        ready: Deque[Tuple[TaskBatch, int]] = deque((batch, 0) for batch in batches)
        delayed: List[Tuple[float, TaskBatch, int]] = []
        in_flight: Dict["Future[_BatchResult]", Tuple[TaskBatch, int]] = {}
        stamps: Dict["Future[_BatchResult]", Tuple[float, float]] = {}
        delivered = 0
        pool = self._make_pool(len(batches))
        try:
            while ready or delayed or in_flight:
                try:
                    now = monotonic()
                    if delayed:
                        due = [entry for entry in delayed if entry[0] <= now]
                        delayed = [entry for entry in delayed if entry[0] > now]
                        ready.extend((batch, attempt) for _, batch, attempt in due)
                    while ready and len(in_flight) < self.max_in_flight:
                        batch, attempt = ready.popleft()
                        submitted_s = monotonic()
                        future = pool.submit(
                            _execute_batch,
                            batch,
                            attempt,
                            self.task_timeout_s,
                            self.chaos,
                        )
                        stamps[future] = (submitted_s, monotonic())
                        in_flight[future] = (batch, attempt)
                    if not in_flight:
                        # Only backoff-delayed batches remain: pause until
                        # the earliest is due, then loop to release it.
                        pause = min(entry[0] for entry in delayed) - monotonic()
                        if pause > 0.0:
                            time.sleep(pause)
                        continue
                    timeout = None
                    if delayed:
                        wake = min(entry[0] for entry in delayed)
                        timeout = max(0.0, wake - monotonic())
                    done, _ = wait(
                        list(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        batch, attempt = in_flight[future]
                        # The future stays in the in-flight map until its
                        # result is consumed, so a broken-pool error here
                        # re-queues this batch along with the others.
                        _, rows_per_task, runs, faults = future.result()
                        del in_flight[future]
                        submitted_s, dispatched_s = stamps.pop(future)
                        received_s = monotonic()
                        delivered += _deliver_batch(
                            batch,
                            rows_per_task,
                            runs,
                            submitted_s,
                            dispatched_s,
                            received_s,
                            on_result,
                            skip={position for position, _, _ in faults},
                        )
                        if faults:
                            timeouts = sum(1 for _, kind, _ in faults if kind == "timeout")
                            stats.timeouts += timeouts
                            if timeouts:
                                _OBS_TIMEOUTS.inc(timeouts)
                            retry_batch = TaskBatch(
                                index=batch.index,
                                tasks=tuple(
                                    batch.tasks[position] for position, _, _ in faults
                                ),
                            )
                            self._requeue(
                                retry_batch,
                                attempt,
                                faults[0][1],
                                faults[0][2],
                                delayed,
                                stats,
                                on_failure,
                                backoff_rng,
                                faults=faults,
                                source=batch,
                            )
                except BrokenProcessPool:
                    pool = self._recover_crash(
                        pool,
                        in_flight,
                        stamps,
                        delayed,
                        stats,
                        on_failure,
                        delivered,
                        backoff_rng,
                    )
        # repro: allow[API001] reason=deterministic teardown on any failure (worker crashes outside the repro.errors taxonomy, KeyboardInterrupt): cancel queued batches, stop the pool, drain stamps, then re-raise unchanged
        except BaseException:
            self._abort(pool, in_flight, stamps)
            raise
        pool.shutdown(wait=True)
        return stats

    def _requeue(
        self,
        batch: TaskBatch,
        attempt: int,
        kind: str,
        message: str,
        delayed: List[Tuple[float, TaskBatch, int]],
        stats: ExecutorStats,
        on_failure: Optional[OnFailure],
        backoff_rng: Any,
        faults: Optional[List[_TaskFault]] = None,
        source: Optional[TaskBatch] = None,
    ) -> None:
        """Schedule a failed batch for another attempt — or surrender it.

        Within budget, the batch re-queues after an exponential-backoff
        pause (a ``campaign.retry`` trace event marks it).  Out of
        budget, each task becomes a :class:`TaskFailure` handed to
        ``on_failure``; without a handler the first failure re-raises as
        the pre-resilience behaviour did.
        """
        if attempt < self.retries:
            stats.retried += 1
            _OBS_RETRIES.inc()
            pause = _backoff_delay(self.backoff_s, attempt, backoff_rng)
            now = monotonic()
            obs.emit_span(
                "campaign.retry",
                now,
                now,
                batch=batch.index,
                tasks=len(batch.tasks),
                attempt=attempt + 1,
                delay_s=pause,
                reason=kind,
            )
            delayed.append((now + pause, batch, attempt + 1))
            return
        per_task = (
            faults
            if faults is not None
            else [(position, kind, message) for position in range(len(batch.tasks))]
        )
        failures = [
            TaskFailure(
                task=(source or batch).tasks[position],
                kind=fault_kind,
                message=fault_message,
                attempts=attempt + 1,
            )
            for position, fault_kind, fault_message in per_task
        ]
        if on_failure is not None:
            for failure in failures:
                stats.degraded += 1
                _OBS_DEGRADED.inc()
                on_failure(failure)
            return
        first = failures[0]
        if first.kind == "error":
            # Preserve the historical contract: the worker's ReproError
            # message propagates verbatim to the caller.
            raise SimulationError(first.message)
        raise SimulationError(first.describe())

    def _recover_crash(
        self,
        pool: ProcessPoolExecutor,
        in_flight: Dict["Future[_BatchResult]", Tuple[TaskBatch, int]],
        stamps: Dict["Future[_BatchResult]", Tuple[float, float]],
        delayed: List[Tuple[float, TaskBatch, int]],
        stats: ExecutorStats,
        on_failure: Optional[OnFailure],
        delivered: int,
        backoff_rng: Any,
    ) -> ProcessPoolExecutor:
        """Rebuild the pool after a worker died; re-queue the lost batches.

        Every in-flight batch is charged one attempt (the pool cannot
        say which worker held which batch), and a fresh pool replaces the
        broken one.  A batch whose budget is spent raises
        :class:`WorkerCrashError` — or degrades into per-task ``"crash"``
        failures when ``on_failure`` is set.
        """
        stats.worker_crashes += 1
        _OBS_WORKER_CRASHES.inc()
        lost = list(in_flight.values())
        in_flight.clear()
        stamps.clear()
        pool.shutdown(wait=False, cancel_futures=True)
        for batch, attempt in lost:
            if attempt >= self.retries and on_failure is None:
                raise WorkerCrashError(
                    f"worker process died running batch {batch.index} "
                    f"(attempt {attempt + 1} of {self.retries + 1}); "
                    f"{delivered} tasks had completed and are persisted",
                    batch_index=batch.index,
                    completed=delivered,
                )
        for batch, attempt in lost:
            self._requeue(
                batch,
                attempt,
                "crash",
                "worker process died mid-batch",
                delayed,
                stats,
                on_failure,
                backoff_rng,
            )
        return self._make_pool(max(1, len(lost)))

    @staticmethod
    def _abort(
        pool: ProcessPoolExecutor,
        in_flight: Dict["Future[_BatchResult]", Tuple[TaskBatch, int]],
        stamps: Dict["Future[_BatchResult]", Tuple[float, float]],
    ) -> None:
        """Deterministic teardown after a failure mid-sweep.

        Cancels every queued batch, waits for running ones to finish (a
        worker cannot be interrupted mid-task), and drains the in-flight
        and stamp maps — so a crashed sweep leaves no abandoned futures
        and a store whose already-persisted tasks resume cleanly on the
        next run.
        """
        pool.shutdown(wait=True, cancel_futures=True)
        in_flight.clear()
        stamps.clear()


def _deliver_batch(
    batch: TaskBatch,
    rows_per_task: List[List[Dict[str, Any]]],
    runs: List[_TaskRun],
    submitted_s: float,
    dispatched_s: float,
    received_s: float,
    on_result: OnResult,
    skip: Optional[Set[int]] = None,
) -> int:
    """Emit per-task results with phases that tile each task's wall.

    Batch-level costs are amortised evenly: ``dispatch`` (submit call),
    the wait until the worker began the first task, and the post-compute
    transfer (pickle-pipe transit + completion-loop latency) are
    each divided by the batch size.  Worker-side gaps between consecutive
    tasks (metric snapshotting, loop overhead) land in the following
    task's queue-wait.  Each task's ``[submitted_s, received_s]`` is
    synthesised around its own compute stamps so the four phases tile it
    exactly and the batch's walls telescope to the true batch interval.
    Positions in ``skip`` (failed tasks awaiting retry) are excluded from
    delivery but still advance the timeline; returns the delivered count.
    """
    if len(rows_per_task) != len(batch.tasks) or len(runs) != len(batch.tasks):
        raise ConfigurationError(
            f"batch {batch.index} returned {len(rows_per_task)} row lists / "
            f"{len(runs)} runs for {len(batch.tasks)} tasks"
        )
    skipped = skip or set()
    count = len(batch.tasks)
    dispatch_share = (dispatched_s - submitted_s) / count
    queue_share = (runs[0][0] - dispatched_s) / count
    transfer_share = (received_s - runs[-1][1]) / count
    previous_finish = runs[0][0]
    delivered = 0
    for position, (task, (started_s, finished_s, snapshot), rows) in enumerate(
        zip(batch.tasks, runs, rows_per_task)
    ):
        queue_wait_s = queue_share + (started_s - previous_finish)
        previous_finish = finished_s
        if position in skipped:
            continue
        delivered += 1
        on_result(
            task,
            rows,
            TaskTelemetry(
                submitted_s=started_s - queue_wait_s - dispatch_share,
                received_s=finished_s + transfer_share,
                dispatch_s=dispatch_share,
                queue_wait_s=queue_wait_s,
                compute_s=finished_s - started_s,
                transfer_s=transfer_share,
                metrics=snapshot,
                batch_index=batch.index,
                batch_size=count,
            ),
        )
    return delivered


def make_executor(
    jobs: int,
    batch_size: Optional[int] = None,
    retries: int = 0,
    task_timeout_s: Optional[float] = None,
    backoff_s: float = 0.05,
    chaos: Optional["ChaosPlan"] = None,
) -> Union[SerialExecutor, ProcessExecutor]:
    """Executor for a worker count: serial at 1, a batched pool above."""
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if jobs == 1:
        return SerialExecutor(
            retries=retries,
            task_timeout_s=task_timeout_s,
            backoff_s=backoff_s,
            chaos=chaos,
        )
    return ProcessExecutor(
        jobs,
        batch_size=batch_size,
        retries=retries,
        task_timeout_s=task_timeout_s,
        backoff_s=backoff_s,
        chaos=chaos,
    )
