"""Trace-replay benchmark: batched engine vs. the per-write scalar path.

Runs a Fig. 11-sized lifetime cell (the unencoded baseline that anchors
every lifetime figure) through the scalar ``write_line`` loop and through
:meth:`repro.memctrl.controller.MemoryController.replay_trace`, and checks
the engine's contracts:

* **parity** — every per-write accounting value of the replay is
  bit-identical to the scalar path, for an identity encoder
  (``unencoded``, which skips only the encode call) and a coding one
  (``rcc``);
* **throughput** — the replay engine sustains at least ``3x`` the scalar
  lifetime-cell throughput.  The floor is enforced only on hosts with a
  spare core (``os.cpu_count() >= 2``, mirroring
  ``bench_campaign_scaling.py``); single-core hosts report the
  measurement for tracking.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_trace_replay.py

or under pytest to enforce the contracts::

    PYTHONPATH=src python -m pytest benchmarks/bench_trace_replay.py -q
"""

from __future__ import annotations

import os
from typing import Tuple

from repro import obs
from repro.pcm.endurance import EnduranceModel
from repro.sim.harness import TechniqueSpec, build_controller
from repro.traces.synthetic import generate_trace
from repro.utils.rng import derive_seed

#: Lifetime-cell geometry (matches LifetimeStudyConfig defaults) with an
#: endurance high enough that the memory survives the whole measurement.
ROWS = 48
TRACE_WRITEBACKS = 400
SEED = derive_seed(11, "lifetime-lbm")
MEASURE_WRITES = 12_000
PARITY_WRITES = 400

#: Replay throughput floor relative to the scalar path.  Single-threaded
#: work, but shared single-core hosts are too noisy to gate on.
SPEEDUP_FLOOR = 3.0


def _controller(spec: TechniqueSpec, mean_endurance: float = 1e9):
    return build_controller(
        spec,
        rows=ROWS,
        endurance_model=EnduranceModel(
            mean_writes=mean_endurance, coefficient_of_variation=0.2
        ),
        seed=SEED,
        encrypt=True,
    )


def _trace():
    return generate_trace(
        "lbm",
        num_writebacks=TRACE_WRITEBACKS,
        memory_lines=ROWS,
        line_bits=512,
        word_bits=64,
        seed=derive_seed(SEED, "trace"),
    )


def _drive_scalar(controller, trace, total: int):
    results = []
    while len(results) < total:
        for record in trace:
            results.append(controller.write_line(record.address, list(record.words)))
            if len(results) >= total:
                break
    return results


def _assert_parity(spec: TechniqueSpec, total: int) -> None:
    trace = _trace()
    scalar = _drive_scalar(_controller(spec, mean_endurance=60), trace, total)
    replay = _controller(spec, mean_endurance=60).replay_trace(
        trace, repetitions=-(-total // len(trace)), max_writes=total
    )
    assert replay.writes == len(scalar)
    for index, line in enumerate(scalar):
        assert line.address == replay.addresses[index]
        assert line.row_index == replay.row_indices[index]
        assert line.data_energy_fj == replay.data_energy_fj[index]
        assert line.aux_energy_fj == replay.aux_energy_fj[index]
        assert line.cells_changed == replay.cells_changed[index]
        assert line.bits_changed == replay.bits_changed[index]
        assert line.saw_cells == replay.saw_cells[index]
        assert list(line.saw_bits_per_word) == list(replay.saw_bits_per_word[index])
        assert line.newly_stuck_cells == replay.newly_stuck_cells[index]


def measure(spec: TechniqueSpec, total: int) -> Tuple[float, float]:
    """Writes/second of the scalar loop and of replay_trace (with a stop
    predicate wired, as the lifetime study drives it)."""
    trace = _trace()
    controller = _controller(spec)
    start = obs.monotonic()
    _drive_scalar(controller, trace, total)
    scalar_s = obs.monotonic() - start

    controller = _controller(spec)
    start = obs.monotonic()
    replay = controller.replay_trace(
        trace,
        repetitions=-(-total // len(trace)),
        max_writes=total,
        stop=lambda index, row, saw, bits: False,
    )
    replay_s = obs.monotonic() - start
    assert replay.writes == total
    return total / scalar_s, total / replay_s


def test_trace_replay_parity_and_speedup() -> None:
    # Contract 1: bit-identical per-write accounting on both engine paths.
    _assert_parity(
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), PARITY_WRITES
    )
    _assert_parity(
        TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=16), PARITY_WRITES
    )

    # Contract 2: the lifetime-cell hot path clears the throughput floor.
    scalar_wps, replay_wps = measure(
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), MEASURE_WRITES
    )
    speedup = replay_wps / scalar_wps
    cores = os.cpu_count() or 1
    print(
        f"\ntrace replay: scalar {scalar_wps:.0f} w/s, replay {replay_wps:.0f} w/s, "
        f"speedup {speedup:.2f}x on {cores} core(s)"
    )
    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"replay speedup is {speedup:.2f}x; floor is {SPEEDUP_FLOOR}x"
        )


def main() -> None:
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_util import write_bench_json

    print(
        f"trace replay benchmark: {MEASURE_WRITES} writes, {ROWS} rows, "
        f"{TRACE_WRITEBACKS}-writeback lbm trace, encrypted"
    )
    specs = [
        ("unencoded (identity encoder)", TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), MEASURE_WRITES),
        ("rcc-256 (coding encoder)", TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=256), 2_000),
    ]
    print(f"{'technique':32s} {'scalar w/s':>11} {'replay w/s':>11} {'speedup':>8}")
    results = {}
    for label, spec, total in specs:
        scalar_wps, replay_wps = measure(spec, total)
        print(
            f"{label:32s} {scalar_wps:>11.0f} {replay_wps:>11.0f} "
            f"{replay_wps / scalar_wps:>7.2f}x"
        )
        results[spec.encoder] = {
            "scalar_writes_per_s": scalar_wps,
            "replay_writes_per_s": replay_wps,
            "speedup": replay_wps / scalar_wps,
        }
    write_bench_json(
        "trace_replay",
        config={
            "rows": ROWS,
            "trace_writebacks": TRACE_WRITEBACKS,
            "measure_writes": MEASURE_WRITES,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        results=results,
    )
    print("parity: checking per-write bit-identity on both paths ...", end=" ")
    _assert_parity(TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), PARITY_WRITES)
    _assert_parity(TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=16), PARITY_WRITES)
    print("OK")


if __name__ == "__main__":
    main()
