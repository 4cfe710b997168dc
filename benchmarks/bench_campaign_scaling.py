"""Campaign-engine benchmark: worker scaling, determinism, cached resume.

Runs a fig9-sized sweep (benchmarks × five techniques through the real
energy simulator) three ways and checks the engine's contracts:

* **determinism** — the rows at ``jobs=N`` are bit-identical to the
  serial rows, and stay bit-identical when served from the store;
* **caching** — a second run against the same store executes zero tasks;
* **scaling** — batched dispatch plus warm workers must make the pool
  *pay for itself*: ``speedup > 1`` is enforced on any multi-core
  host, with a floor on top that is near-linear at ``PARALLEL_JOBS``
  cores.  Each side's time is the median of ``TIMED_RUNS`` alternating
  serial and parallel runs, so one run slowed by host noise cannot
  decide the gate.
  The executor overhead fraction (queue-wait + dispatch + transfer as
  a share of task wall time, from the run telemetry) is reported and
  recorded alongside the speedup so regressions show up as a number,
  not a vibe.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_campaign_scaling.py

or under pytest to enforce the contracts::

    PYTHONPATH=src python -m pytest benchmarks/bench_campaign_scaling.py -q
"""

from __future__ import annotations

import os
import shutil
import statistics
import tempfile
from typing import List, Optional, Tuple

from repro import obs
from repro.campaign import ResultStore, run_campaign
from repro.campaign.engine import CampaignResult, CampaignTelemetry, last_campaign_telemetry
from repro.campaign.spec import Task
from repro.sim.energy_sim import benchmark_energy_tasks

#: Sweep size: 5 benchmarks x 5 techniques = 25 tasks, a couple of
#: seconds of serial work — enough per-task weight for pool overheads to
#: amortise, small enough to run on every invocation.
BENCHMARKS = ("lbm", "mcf", "bwaves", "xalancbmk", "xz")
WRITEBACKS = 100
ROWS = 96
NUM_COSETS = 256
SEED = 2022
PARALLEL_JOBS = 4
#: Timed runs per side, serial and parallel alternating.
TIMED_RUNS = 5

#: Speedup floors by available core count; the multi-core floor is
#: intentionally below linear to absorb pool startup and scheduler
#: noise, but always above 1.0 — a pool that loses to serial is the
#: regression this benchmark exists to catch.
def _speedup_floor(cores: int) -> float:
    if cores >= PARALLEL_JOBS:
        return 2.0
    if cores >= 2:
        return 1.1
    return 0.0  # single-core host: report only


def _sweep_tasks() -> List[Task]:
    return benchmark_energy_tasks(
        benchmarks=BENCHMARKS,
        num_cosets=NUM_COSETS,
        writebacks_per_benchmark=WRITEBACKS,
        rows=ROWS,
        seed=SEED,
    )


def _timed_run(tasks: List[Task], jobs: int) -> Tuple[float, CampaignResult]:
    """Run the sweep once at ``jobs`` (no store); return its wall seconds and result."""
    start = obs.monotonic()
    result = run_campaign(tasks, jobs=jobs)
    return obs.monotonic() - start, result


def measure() -> Tuple[float, float, List[dict], List[dict], Optional[CampaignTelemetry]]:
    """Time the sweep at jobs=1 and jobs=PARALLEL_JOBS (no store).

    Runs ``TIMED_RUNS`` serial/parallel pairs and returns the median
    serial and parallel wall times, the last run's rows of each side,
    and the last parallel run's :class:`CampaignTelemetry` (per-phase
    executor breakdown at batch granularity).
    """
    tasks = _sweep_tasks()
    serial_times, parallel_times = [], []
    for _ in range(TIMED_RUNS):
        serial_s, serial = _timed_run(tasks, 1)
        serial_times.append(serial_s)
        parallel_s, parallel = _timed_run(tasks, PARALLEL_JOBS)
        parallel_times.append(parallel_s)
    return (
        statistics.median(serial_times),
        statistics.median(parallel_times),
        serial.rows(),
        parallel.rows(),
        last_campaign_telemetry(),
    )


def test_campaign_scaling_determinism_and_cache() -> None:
    serial_s, parallel_s, serial_rows, parallel_rows, telemetry = measure()

    # Contract 1: bit-identical rows at any worker count.
    assert serial_rows == parallel_rows, "jobs=4 rows differ from the serial path"

    # Contract 2: a repeated run against a store executes zero tasks and
    # serves the identical rows.
    tasks = _sweep_tasks()
    store_dir = tempfile.mkdtemp(prefix="campaign-bench-")
    try:
        store = ResultStore(store_dir)
        first = run_campaign(tasks, store=store, jobs=PARALLEL_JOBS)
        assert first.executed == len(tasks)
        second = run_campaign(tasks, store=store, jobs=PARALLEL_JOBS)
        assert second.executed == 0 and second.cached == len(tasks)
        assert second.rows() == serial_rows, "cached rows differ from the serial path"
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)

    # Contract 3: the pool pays for itself (speedup > 1) and approaches
    # linear where the hardware allows it.
    cores = os.cpu_count() or 1
    floor = _speedup_floor(cores)
    speedup = serial_s / parallel_s if parallel_s else 0.0
    print(
        f"\ncampaign scaling (median of {TIMED_RUNS}): serial {serial_s:.2f}s, "
        f"jobs={PARALLEL_JOBS} {parallel_s:.2f}s, speedup {speedup:.2f}x on {cores} core(s)"
    )
    if telemetry is not None:
        print(
            f"executor overhead: {telemetry.overhead_fraction * 100.0:.1f}% of "
            f"task wall time outside compute, {telemetry.batches} batches"
        )
    if floor:
        assert speedup > 1.0, (
            f"jobs={PARALLEL_JOBS} is a slowdown ({speedup:.2f}x) on {cores} cores"
        )
        assert speedup >= floor, (
            f"jobs={PARALLEL_JOBS} speedup is {speedup:.2f}x on {cores} cores; "
            f"floor is {floor}x"
        )


def main() -> None:
    tasks = _sweep_tasks()
    print(
        f"campaign scaling benchmark: {len(tasks)} tasks "
        f"({len(BENCHMARKS)} benchmarks x 5 techniques, {WRITEBACKS} writebacks); "
        f"median of {TIMED_RUNS} alternating runs per side"
    )
    serial_s, parallel_s, serial_rows, parallel_rows, telemetry = measure()
    identical = "bit-identical" if serial_rows == parallel_rows else "DIFFERENT (bug!)"
    cores = os.cpu_count() or 1
    print(f"{'jobs':>6} {'seconds':>9} {'tasks/s':>9}")
    print(f"{1:>6} {serial_s:>9.2f} {len(tasks) / serial_s:>9.2f}")
    print(f"{PARALLEL_JOBS:>6} {parallel_s:>9.2f} {len(tasks) / parallel_s:>9.2f}")
    print(f"speedup: {serial_s / parallel_s:.2f}x on {cores} core(s); rows {identical}")
    overhead_fraction = None
    batches = None
    if telemetry is not None:
        overhead_fraction = telemetry.overhead_fraction
        batches = telemetry.batches
        print(
            f"executor overhead: {overhead_fraction * 100.0:.1f}% of task wall "
            f"time outside compute ({batches} batches)"
        )

    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_util import write_bench_json

    write_bench_json(
        "campaign_scaling",
        config={"tasks": len(tasks), "parallel_jobs": PARALLEL_JOBS},
        results={
            "serial_tasks_per_s": len(tasks) / serial_s,
            "parallel_tasks_per_s": len(tasks) / parallel_s,
            "speedup": serial_s / parallel_s,
            "rows_bit_identical": serial_rows == parallel_rows,
            "executor_overhead_fraction": overhead_fraction,
            "batches": batches,
        },
    )


if __name__ == "__main__":
    main()
