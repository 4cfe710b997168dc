"""Task executors: in-process serial and batched ``multiprocessing`` pools.

Both executors implement the same protocol — ``run(tasks, on_result,
on_failure)`` calls ``on_result(task, rows, telemetry)`` once per
completed task and ``on_failure(failure)`` once per failed one — and
both produce bit-identical results for the same task list, because every
task carries its own seed and shares no state with its siblings.  The
engine (:mod:`repro.campaign.engine`) re-orders completions back into
submission order, so callers never observe scheduling.

The parallel path is *batched*: tasks shard into :class:`TaskBatch`
units — contiguous slices of the submission order, sized
``ceil(n_tasks / (BATCHES_PER_WORKER * jobs))`` — and each batch is one
pool round-trip.  The worker runs its batch's tasks itself, so the
per-task process round-trips that made fig-sized sweeps *slower* under
``--jobs`` (0.84x at 4 workers before this rework) disappear into one
dispatch, one queue transit, and one result transfer per batch.

**Stacks.**  Both executors run consecutive tasks of a kind that has a
stack runner (``lifetime-cell``) as one
:func:`repro.campaign.tasks.run_stack` call, and every other task
through :func:`repro.campaign.tasks.run_task`
(:func:`repro.campaign.tasks.task_stacks` draws the line).  A stack that
raises a :class:`~repro.errors.ReproError` runs again task by task, so
only the failing task fails.

**One warm pool per process.**  The
:class:`concurrent.futures.ProcessPoolExecutor` of ``jobs`` workers lives
for the process, not for one ``run``: successive sweeps reuse its
workers, their imports and their pure memos.  The pool is reused while
its key is unchanged — ``jobs``, the start method, the obs trace path
and the contents of every registry a worker resolves by name (task
kinds, encoder plugins and their aliases, fault models) — because forked
workers inherit all of these at start-up.  When the key changes (say
:func:`~repro.campaign.tasks.register_task` ran, or tracing was
enabled), the idle pool is joined and a fresh one forked.  At
interpreter exit :mod:`concurrent.futures` joins the pool, and an idle
worker whose coordinator has gone without that (``os._exit``,
``SIGKILL``) ends itself within :data:`_ORPHAN_POLL_S` seconds.

**Failures.**  One fixed policy, with no knob:

* a task that raises a :class:`~repro.errors.ReproError` fails as
  ``"error"`` and is never retried — its rows are a pure function of its
  parameters, so a retry would raise again.  The rest of its batch still
  runs and is delivered;
* a worker process that dies (broken pool) costs only the batches that
  were in flight: the pool is rebuilt and those batches re-run once.
  If a worker dies again while a re-run batch is in flight, that batch's
  tasks fail as ``"crash"``;
* every other task always runs to completion.

Any other error mid-sweep — a callback that raises, a batch the pool
cannot pickle, ``KeyboardInterrupt`` — discards the pool: queued batches
are cancelled, the workers are killed and the next sweep forks a fresh
pool.  The error propagates unchanged.

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
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

import repro.obs as obs
from repro.campaign.spec import Task
from repro.campaign.tasks import (
    _ensure_builtins,
    available_task_kinds,
    run_stack,
    run_task,
    task_stacks,
)
from repro.coding.registry import encoder_plugins
from repro.errors import ConfigurationError, ReproError
from repro.faults.registry import available_fault_models
from repro.obs import metrics_snapshot, monotonic, reset_metrics
from repro.utils.blas import set_blas_threads

__all__ = [
    "BATCHES_PER_WORKER",
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
    """One task that produced no rows.

    ``kind`` is ``"error"`` (the task raised a :class:`ReproError`) or
    ``"crash"`` (a worker died while its batch ran, and again on the
    batch's one re-run).
    Failures are never persisted to the result store, so a later run
    re-executes exactly the failed tasks.
    """

    task: Task
    kind: str
    message: str

    def describe(self) -> str:
        """One-line form for progress output and error messages."""
        return f"{self.task.describe()} failed ({self.kind}): {self.message}"


OnResult = Callable[[Task, List[Dict[str, Any]], TaskTelemetry], None]
OnFailure = Callable[[TaskFailure], None]


@dataclass(frozen=True)
class TaskBatch:
    """One pool round-trip: a contiguous slice of the submission order."""

    index: int
    tasks: Tuple[Task, ...]

    def __len__(self) -> int:
        return len(self.tasks)


class SerialExecutor:
    """Execute tasks one stack after another in the calling process."""

    jobs = 1

    def run(self, tasks: Sequence[Task], on_result: OnResult, on_failure: OnFailure) -> int:
        """Run every task; returns the worker crashes survived (always 0)."""
        for index, (task, (rows, error, begin, end, _)) in enumerate(
            zip(tasks, _run_stacks(tasks, isolate=False))
        ):
            if error is not None:
                on_failure(TaskFailure(task=task, kind="error", message=error))
                continue
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
        return 0


#: One task's run: rows, the message of the ReproError it raised (or
#: None), compute start/finish stamps and its metrics snapshot.
_TaskRun = Tuple[List[Dict[str, Any]], Optional[str], float, float, Dict[str, Dict[str, Any]]]


def _run_stacks(tasks: Sequence[Task], isolate: bool) -> Iterator[_TaskRun]:
    """Run ``tasks`` in order, each stack of :func:`task_stacks` as one call.

    Yields one run per task.  A stack's compute interval is split evenly
    over its tasks and its metrics go with its first task, so per-task
    compute and merged metrics still add up to what ran.  A stack that
    raises a :class:`ReproError` runs again task by task, so only the
    failing task fails and the others get their own rows.  With
    ``isolate`` the metrics registry is reset before each run and the
    snapshot taken after it is that run's delta (the worker's case);
    without, metrics land in the registry directly, those of an
    abandoned stack included, and snapshots are empty.
    """
    for stack in task_stacks(tasks):
        if len(stack) > 1:
            if isolate:
                reset_metrics()
            started_s = monotonic()
            try:
                results = run_stack(stack)
            except ReproError:
                results = None
            if results is not None:
                finished_s = monotonic()
                snapshot = metrics_snapshot() if isolate else {}
                bounds = [
                    started_s + (finished_s - started_s) * position / len(stack)
                    for position in range(len(stack))
                ] + [finished_s]
                for position, rows in enumerate(results):
                    yield (
                        rows,
                        None,
                        bounds[position],
                        bounds[position + 1],
                        snapshot if position == 0 else {},
                    )
                continue
        for task in stack:
            if isolate:
                reset_metrics()
            started_s = monotonic()
            rows: List[Dict[str, Any]] = []
            error = None
            try:
                rows = run_task(task)
            except ReproError as failure:
                error = str(failure)
            finished_s = monotonic()
            yield rows, error, started_s, finished_s, metrics_snapshot() if isolate else {}


#: Seconds between an idle worker's checks that its coordinator lives.
_ORPHAN_POLL_S = 0.25


def _worker_init() -> None:
    """Pool initializer: make the builtin task kinds resolvable, pin BLAS,
    and end the worker once its coordinator is gone.

    ``jobs`` workers each running a BLAS thread per CPU oversubscribe the
    host, and RCC's small coset GEMMs are fastest single-threaded anyway.
    The coordinator's own BLAS threading is left alone.

    A warm pool's workers wait on the call queue between sweeps.  Under
    fork every sibling holds that queue's write end, so a coordinator
    that ends without joining the pool would leave them waiting forever;
    a daemon thread watches the parent pid instead.  The parent is the
    coordinator, or under ``forkserver`` the fork server, which ends
    with it.
    """
    _ensure_builtins()
    set_blas_threads(1)
    if multiprocessing.parent_process() is not None:
        threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),), daemon=True).start()


def _exit_when_orphaned(parent_pid: int) -> None:
    """End this worker once it has been re-parented away from ``parent_pid``."""
    while os.getppid() == parent_pid:
        time.sleep(_ORPHAN_POLL_S)
    os._exit(0)


#: Per-task worker measurement: compute start/finish stamps plus the
#: worker registry's per-task metric snapshot.
_TaskStamps = Tuple[float, float, Dict[str, Dict[str, Any]]]

#: What one worker batch invocation sends back: (rows per task, stamps,
#: ``{position: error message}`` of the tasks that raised).
_BatchResult = Tuple[List[List[Dict[str, Any]]], List[_TaskStamps], Dict[int, str]]


def _execute_batch(batch: TaskBatch) -> _BatchResult:
    """Top-level worker entry point (must be picklable).

    Runs the batch's tasks, a stack of consecutive stackable tasks at a
    time (:func:`_run_stacks`), so its tasks share one process
    round-trip.  The worker's metrics registry is reset before each run
    so every returned snapshot is a delta — fork-started workers inherit
    the coordinator's counter values, which must not be re-merged — and
    compute is stamped per task so batch telemetry can amortise only the
    true batch-level overheads.  A task that raises a
    :class:`ReproError` leaves an empty rows placeholder (positions stay
    aligned) and its message; the remaining tasks still execute.
    """
    rows_per_task: List[List[Dict[str, Any]]] = []
    runs: List[_TaskStamps] = []
    errors: Dict[int, str] = {}
    for position, (rows, error, started_s, finished_s, snapshot) in enumerate(
        _run_stacks(batch.tasks, isolate=True)
    ):
        if error is not None:
            errors[position] = error
        rows_per_task.append(rows)
        runs.append((started_s, finished_s, snapshot))
    return rows_per_task, runs, errors


_CRASHED_TWICE = "a worker died running its batch, then again on the re-run"

#: An in-flight batch: the batch, whether it is already a crash re-run,
#: and its submit-call start/end stamps.
_InFlight = Tuple[TaskBatch, bool, float, float]

#: The process's warm pool as ``(key, pool, registered)``, or None: the
#: key it was forked under, and the registry entries whose ids the key
#: holds (kept alive so that no new entry can reuse one of those ids).
_warm_pool: Optional[Tuple[Tuple[Any, ...], ProcessPoolExecutor, Tuple[Any, ...]]] = None


def _forget_pool() -> None:
    """Empty the slot: after a crash or an abort, and in a forked child
    (a pool worker included), which owns none of its parent's pool."""
    global _warm_pool
    _warm_pool = None


if hasattr(os, "register_at_fork"):  # POSIX; platforms without fork never copy the slot
    os.register_at_fork(after_in_child=_forget_pool)


class ProcessExecutor:
    """Execute tasks in batches on the process's warm pool of ``jobs`` workers.

    Parameters
    ----------
    jobs:
        Worker process count (>= 1).
    batch_size:
        Tasks per batch.  ``None`` derives
        ``ceil(n_tasks / (BATCHES_PER_WORKER * jobs))`` at run time;
        explicit values must be positive (``1`` reproduces the old
        one-round-trip-per-task behaviour).
    start_method:
        Optional :mod:`multiprocessing` start method override (``"fork"``
        or ``"spawn"``); ``None`` prefers ``fork`` where available.
    """

    def __init__(
        self,
        jobs: int,
        batch_size: Optional[int] = None,
        start_method: Optional[str] = None,
    ):
        if jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(
                "batch_size must be >= 1 (or None to derive from the task count)"
            )
        self.jobs = jobs
        self.batch_size = batch_size
        self.start_method = start_method

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

    def _pool(self) -> ProcessPoolExecutor:
        """The process's warm pool, or a fresh one if its key has changed.

        The key is everything a worker takes from the coordinator when it
        starts: ``jobs``, the start method, the trace path and the identity
        of every entry of the task kind, encoder and fault-model registries
        (builtins loaded first, so loading them later does not count as a
        change).  An idle pool with another key is joined before the new
        one forks.
        """
        global _warm_pool
        context = self._context()
        registered = (*available_task_kinds(), *encoder_plugins(), *available_fault_models())
        key = (
            self.jobs,
            context.get_start_method(),
            obs.trace_path(),
            tuple(map(id, registered)),
        )
        if _warm_pool is not None:
            warm_key, pool, _ = _warm_pool
            if warm_key == key:
                return pool
            pool.shutdown(wait=True)
        pool = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=context, initializer=_worker_init
        )
        _warm_pool = (key, pool, registered)
        return pool

    def run(self, tasks: Sequence[Task], on_result: OnResult, on_failure: OnFailure) -> int:
        """Run every task; returns how many times a dead worker broke the pool."""
        batches = self.shard(list(tasks))
        if not batches:
            return 0
        crashes = 0
        # Batches still to submit, each with whether it is a crash re-run.
        queue: Deque[Tuple[TaskBatch, bool]] = deque((batch, False) for batch in batches)
        in_flight: Dict["Future[_BatchResult]", _InFlight] = {}
        pool = self._pool()
        try:
            while queue or in_flight:
                try:
                    while queue:
                        # A broken pool refuses the submit, so the batch
                        # stays queued for the rebuilt pool.
                        batch, rerun = queue[0]
                        submitted_s = monotonic()
                        future = pool.submit(_execute_batch, batch)
                        in_flight[future] = (batch, rerun, submitted_s, monotonic())
                        queue.popleft()
                    done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                    for future in done:
                        # The future stays in the in-flight map until its
                        # result is consumed, so a broken-pool error here
                        # re-runs this batch along with the others.
                        rows_per_task, runs, errors = future.result()
                        batch, _, submitted_s, dispatched_s = in_flight.pop(future)
                        _deliver_batch(
                            batch,
                            rows_per_task,
                            runs,
                            submitted_s,
                            dispatched_s,
                            monotonic(),
                            on_result,
                            skip=set(errors),
                        )
                        for position, message in errors.items():
                            on_failure(TaskFailure(batch.tasks[position], "error", message))
                except BrokenProcessPool:
                    crashes += 1
                    _OBS_WORKER_CRASHES.inc()
                    lost = list(in_flight.values())
                    in_flight.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    _forget_pool()
                    pool = self._pool()
                    for batch, rerun, _, _ in lost:
                        if not rerun:
                            queue.append((batch, True))
                            continue
                        for task in batch.tasks:
                            on_failure(TaskFailure(task, "crash", _CRASHED_TWICE))
        # repro: allow[API001] reason=deterministic teardown on any failure (KeyboardInterrupt, an exception raised by a callback, a batch the pool cannot pickle): discard the pool, then re-raise unchanged
        except BaseException:
            self._abort(pool, in_flight)
            raise
        return crashes

    @staticmethod
    def _abort(
        pool: ProcessPoolExecutor, in_flight: Dict["Future[_BatchResult]", _InFlight]
    ) -> None:
        """Discard the pool after a failure mid-sweep, without waiting on it.

        Cancels every queued batch, kills the pool's workers (a batch still
        running is cut short: its tasks were never delivered, so they
        re-run on resume), drops the pool from the process slot so the
        next sweep forks a fresh one, and drains the in-flight map.  It
        never joins the pool's manager thread: after a batch fails to
        pickle in the feeder thread, that thread can wait forever for a
        result that will not come.
        """
        workers = list((pool._processes or {}).values())
        _forget_pool()
        pool.shutdown(wait=False, cancel_futures=True)
        for worker in workers:
            worker.kill()
        for worker in workers:
            worker.join()
        in_flight.clear()


def _deliver_batch(
    batch: TaskBatch,
    rows_per_task: List[List[Dict[str, Any]]],
    runs: List[_TaskStamps],
    submitted_s: float,
    dispatched_s: float,
    received_s: float,
    on_result: OnResult,
    skip: Set[int],
) -> None:
    """Emit per-task results with phases that tile each task's wall.

    Batch-level costs are amortised evenly: ``dispatch`` (submit call),
    the wait until the worker began the first task, and the post-compute
    transfer (pickle-pipe transit + completion-loop latency) are
    each divided by the batch size.  Worker-side gaps between consecutive
    tasks (metric snapshotting, loop overhead) land in the following
    task's queue-wait.  Each task's ``[submitted_s, received_s]`` is
    synthesised around its own compute stamps so the four phases tile it
    exactly and the batch's walls telescope to the true batch interval.
    Positions in ``skip`` (failed tasks) are not delivered but still
    advance the timeline.  A warm worker can begin the batch before the
    submit call returns; dispatch then ends where the batch began.
    """
    if len(rows_per_task) != len(batch.tasks) or len(runs) != len(batch.tasks):
        raise ConfigurationError(
            f"batch {batch.index} returned {len(rows_per_task)} row lists / "
            f"{len(runs)} runs for {len(batch.tasks)} tasks"
        )
    count = len(batch.tasks)
    dispatched_s = min(dispatched_s, runs[0][0])
    dispatch_share = (dispatched_s - submitted_s) / count
    queue_share = (runs[0][0] - dispatched_s) / count
    transfer_share = (received_s - runs[-1][1]) / count
    previous_finish = runs[0][0]
    for position, (task, (started_s, finished_s, snapshot), rows) in enumerate(
        zip(batch.tasks, runs, rows_per_task)
    ):
        queue_wait_s = queue_share + (started_s - previous_finish)
        previous_finish = finished_s
        if position in skip:
            continue
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


def make_executor(jobs: int) -> Union[SerialExecutor, ProcessExecutor]:
    """Executor for a worker count: serial at 1, a batched pool above."""
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    return SerialExecutor() if jobs == 1 else ProcessExecutor(jobs)
