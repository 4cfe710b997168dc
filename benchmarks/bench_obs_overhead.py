"""Disabled-mode telemetry overhead: the <2% floor on the replay engine.

The :mod:`repro.obs` layer stays importable and registered on every hot
path; what must be (nearly) free is its *disabled* mode — counters
bumped at wave granularity and ``obs.span`` returning its shared no-op.
This benchmark measures that cost directly: it replays the same
RCC workload as ``bench_trace_replay.py`` twice, once with the
real module-level ``_OBS_*`` handles (telemetry disabled, the shipping
configuration) and once with true no-op stand-ins swapped into the
instrumented modules, and gates the relative slowdown under
``OVERHEAD_FLOOR`` (2%).

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

or under pytest to enforce the floor::

    PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py -q
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Tuple

from repro import obs
from repro.pcm.endurance import EnduranceModel
from repro.sim.harness import TechniqueSpec, build_controller
from repro.traces.synthetic import generate_trace
from repro.utils.blas import set_blas_threads
from repro.utils.rng import derive_seed

ROWS = 48
TRACE_WRITEBACKS = 400
SEED = derive_seed(11, "lifetime-lbm")
#: Writes per replay — the path carrying the wave counters, the span
#: call, and the candidate-counting cost kernels.
MEASURE_WRITES = 4_000
#: Replays per timed unit: longer units average out short host hiccups.
UNIT_REPLAYS = 2
#: Back-to-back (real, null) timing pairs; the median per-pair ratio is
#: the reported overhead, which cancels host-speed drift between pairs.
PAIRS = 15

#: Maximum tolerated slowdown of the disabled telemetry layer relative
#: to true no-op handles.
OVERHEAD_FLOOR = 0.02

class _NullSpan:
    """Bare context manager mimicking the disabled-span interface."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None

    def set(self, **attrs: object) -> "_NullSpan":
        del attrs
        return self


_NULL_CONTEXT = _NullSpan()


def _null_span(name: str, **attrs: object) -> _NullSpan:
    """Stand-in for ``obs.span`` with the cheapest possible disabled path."""
    del name, attrs
    return _NULL_CONTEXT


def _instrumented_modules() -> List[object]:
    """Every replay-path module that binds ``_OBS_*`` handles.

    ``tests/obs/test_obs_overhead_modules.py`` fails when a module that a
    stacked lifetime replay runs binds a handle and is missing here.
    """
    import repro.coding.base as coding_base
    import repro.coding.cost as coding_cost
    import repro.coding.rcc as coding_rcc
    import repro.core.vcc as core_vcc
    import repro.crypto.counter_mode as counter_mode
    import repro.memctrl.controller as controller

    return [coding_base, coding_cost, coding_rcc, core_vcc, counter_mode, controller]


def swap_null_handles() -> Callable[[], None]:
    """Replace every ``_OBS_*`` module handle with a no-op stand-in.

    Returns the undo function.  The swap relies on the instrumentation
    convention that hot-path modules bind their handles as module globals
    named ``_OBS_*`` (and reference them through the module, never via
    locals), which is exactly what makes this measurement possible.
    """
    saved: List[Tuple[object, str, object]] = []
    for module in _instrumented_modules():
        for attr in dir(module):
            if not attr.startswith("_OBS_"):
                continue
            value = getattr(module, attr)
            saved.append((module, attr, value))
            if isinstance(value, obs.Histogram):
                replacement: object = obs.NULL_HISTOGRAM
            elif isinstance(value, obs.Gauge):
                replacement = obs.NULL_GAUGE
            elif isinstance(value, obs.Counter):
                replacement = obs.NULL_COUNTER
            else:  # the span factory
                replacement = _null_span
            setattr(module, attr, replacement)

    def restore() -> None:
        for module, attr, value in saved:
            setattr(module, attr, value)

    return restore


def _prepare() -> Tuple[object, object]:
    """A fresh controller and the trace it replays (untimed set-up)."""
    trace = generate_trace(
        "lbm",
        num_writebacks=TRACE_WRITEBACKS,
        memory_lines=ROWS,
        line_bits=512,
        word_bits=64,
        seed=derive_seed(SEED, "trace"),
    )
    controller = build_controller(
        TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=16),
        rows=ROWS,
        endurance_model=EnduranceModel(mean_writes=1e9, coefficient_of_variation=0.2),
        seed=SEED,
        encrypt=True,
    )
    return controller, trace


def _replay(controller, trace) -> None:
    replay = controller.replay_trace(
        trace, repetitions=-(-MEASURE_WRITES // len(trace)), max_writes=MEASURE_WRITES
    )
    assert replay.writes == MEASURE_WRITES


def _replay_once() -> None:
    _replay(*_prepare())


def _time_once() -> float:
    """CPU seconds of ``UNIT_REPLAYS`` replays; their set-up is untimed.

    The calling thread's CPU time, with BLAS pinned to that thread by
    :func:`measure`, leaves out the time the host runs other processes
    in place of this one, which wall time would count.
    """
    prepared = [_prepare() for _ in range(UNIT_REPLAYS)]
    start = time.thread_time()
    for controller, trace in prepared:
        _replay(controller, trace)
    return time.thread_time() - start


def measure() -> Tuple[float, float, float]:
    """Paired timing: (median real seconds, median null seconds, overhead).

    Host speed on shared runners drifts by tens of percent over the
    course of a measurement — far more than the effect being measured —
    so absolute best-of-N times are useless here.  Instead each of the
    ``PAIRS`` repetitions times the real disabled handles and the null
    stand-ins back to back (alternating which goes first to cancel
    cache/ordering bias) and the overhead is the **median of the
    per-pair ratios**: within one pair the two runs are adjacent in
    time, so drift between pairs divides out.  Each run is the thread
    CPU time of ``UNIT_REPLAYS`` replays with BLAS on one thread, so
    preemption by other processes does not enter it.
    """
    assert not obs.tracing_enabled(), "overhead must be measured with tracing off"
    set_blas_threads(1)
    reals: List[float] = []
    nulls: List[float] = []
    ratios: List[float] = []
    _replay_once()  # warm caches once outside the timed region
    for pair in range(PAIRS):
        restore = swap_null_handles()
        try:
            if pair % 2 == 0:
                restore()
                real_s = _time_once()
                restore = swap_null_handles()
                null_s = _time_once()
            else:
                null_s = _time_once()
                restore()
                real_s = _time_once()
                restore = swap_null_handles()
        finally:
            restore()
        reals.append(real_s)
        nulls.append(null_s)
        ratios.append(real_s / null_s)
    return _median(reals), _median(nulls), _median(ratios) - 1.0


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def test_disabled_overhead_floor() -> None:
    real_s, null_s, overhead = measure()
    cores = os.cpu_count() or 1
    print(
        f"\nobs disabled-mode overhead: median real {real_s * 1e3:.1f}ms, "
        f"median null {null_s * 1e3:.1f}ms, paired overhead "
        f"{overhead * 100.0:+.2f}% on {cores} core(s)"
    )
    if cores >= 2:
        assert overhead < OVERHEAD_FLOOR, (
            f"disabled telemetry costs {overhead * 100.0:.2f}% on the replay "
            f"engine; floor is {OVERHEAD_FLOOR * 100.0:.0f}%"
        )


def main() -> None:
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_util import write_bench_json

    print(
        f"obs overhead benchmark: {UNIT_REPLAYS} x {MEASURE_WRITES} replayed writes per "
        f"timed unit, {PAIRS} pairs, {ROWS} rows, rcc-16, telemetry disabled vs null handles"
    )
    real_s, null_s, overhead = measure()
    writes = UNIT_REPLAYS * MEASURE_WRITES
    print(f"{'mode':24s} {'median s':>10} {'writes/s':>10}")
    print(f"{'real handles (disabled)':24s} {real_s:>10.3f} {writes / real_s:>10.0f}")
    print(f"{'null handles':24s} {null_s:>10.3f} {writes / null_s:>10.0f}")
    print(
        f"disabled-mode overhead (median paired ratio): "
        f"{overhead * 100.0:+.2f}% (floor {OVERHEAD_FLOOR * 100.0:.0f}%)"
    )
    write_bench_json(
        "obs_overhead",
        config={
            "rows": ROWS,
            "measure_writes": MEASURE_WRITES,
            "unit_replays": UNIT_REPLAYS,
            "pairs": PAIRS,
            "overhead_floor": OVERHEAD_FLOOR,
        },
        results={
            "real_median_s": real_s,
            "null_median_s": null_s,
            "overhead_fraction": overhead,
        },
    )


if __name__ == "__main__":
    main()
