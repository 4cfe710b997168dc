"""Random-line benchmark: batched driver vs. the per-write scalar path.

Runs a Fig. 7-sized random-line cell (the unencoded baseline that anchors
the random-data studies) through the scalar ``write_line`` loop and
through :meth:`repro.memctrl.controller.MemoryController.write_random_lines`,
and checks the driver's contracts:

* **parity** — every per-write accounting value of the batched drive is
  bit-identical to the scalar path (which draws the identical addresses
  and words from the shared seeded stream), for an identity encoder
  (``unencoded``, which skips only the encode call) and a coding one
  (``rcc``);
* **throughput** — the batched driver sustains at least ``3x`` the scalar
  random-line throughput on the unencoded baseline.  The floor is
  enforced only on hosts with a spare core (``os.cpu_count() >= 2``,
  mirroring ``bench_trace_replay.py``); single-core hosts report the
  measurement for tracking.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_random_lines.py

or under pytest to enforce the contracts::

    PYTHONPATH=src python -m pytest benchmarks/bench_random_lines.py -q
"""

from __future__ import annotations

import os
from typing import Tuple

from repro import obs
from repro.pcm.endurance import EnduranceModel
from repro.sim.harness import TechniqueSpec, build_controller, scalar_random_line_results
from repro.utils.rng import make_rng

#: Fig. 7-sized geometry (EnergyStudyConfig defaults) with an endurance
#: high enough that the memory survives the whole measurement.
ROWS = 128
SEED = 2022
MEASURE_WRITES = 12_000
PARITY_WRITES = 400

#: Batched-driver throughput floor relative to the scalar path.
#: Single-threaded work, but shared single-core hosts are too noisy to
#: gate on.
SPEEDUP_FLOOR = 3.0


def _controller(spec: TechniqueSpec):
    return build_controller(
        spec,
        rows=ROWS,
        endurance_model=EnduranceModel(mean_writes=1e9, coefficient_of_variation=0.2),
        seed=SEED,
        encrypt=True,
    )


def _drive_scalar(controller, total: int, seed: int = SEED):
    """The oracle: the harness's single-source scalar write_line loop."""
    return scalar_random_line_results(controller, total, seed=seed)


def _drive_batched(controller, total: int, seed: int = SEED):
    return controller.write_random_lines(total, make_rng(seed, "random-lines"))


def _assert_parity(spec: TechniqueSpec, total: int) -> None:
    scalar = _drive_scalar(_controller(spec), total)
    replay = _drive_batched(_controller(spec), total)
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
    """Writes/second of the scalar loop and of the batched driver."""
    controller = _controller(spec)
    start = obs.monotonic()
    _drive_scalar(controller, total)
    scalar_s = obs.monotonic() - start

    controller = _controller(spec)
    start = obs.monotonic()
    replay = _drive_batched(controller, total)
    batched_s = obs.monotonic() - start
    assert replay.writes == total
    return total / scalar_s, total / batched_s


def test_random_lines_parity_and_speedup() -> None:
    # Contract 1: bit-identical per-write accounting for both encoders.
    _assert_parity(
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), PARITY_WRITES
    )
    _assert_parity(
        TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=16), PARITY_WRITES
    )

    # Contract 2: the unencoded baseline clears the throughput floor.
    scalar_wps, batched_wps = measure(
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), MEASURE_WRITES
    )
    speedup = batched_wps / scalar_wps
    cores = os.cpu_count() or 1
    print(
        f"\nrandom lines: scalar {scalar_wps:.0f} w/s, batched {batched_wps:.0f} w/s, "
        f"speedup {speedup:.2f}x on {cores} core(s)"
    )
    if cores >= 2:
        assert speedup >= SPEEDUP_FLOOR, (
            f"batched random-line speedup is {speedup:.2f}x; floor is {SPEEDUP_FLOOR}x"
        )


def main() -> None:
    import sys

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_util import write_bench_json

    print(
        f"random-line benchmark: {MEASURE_WRITES} writes, {ROWS} rows, encrypted"
    )
    specs = [
        ("unencoded (identity encoder)", TechniqueSpec(encoder="unencoded", cost="saw-then-energy"), MEASURE_WRITES),
        ("rcc-256 (coding encoder)", TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=256), 2_000),
    ]
    print(f"{'technique':32s} {'scalar w/s':>11} {'batched w/s':>12} {'speedup':>8}")
    results = {}
    for label, spec, total in specs:
        scalar_wps, batched_wps = measure(spec, total)
        print(
            f"{label:32s} {scalar_wps:>11.0f} {batched_wps:>12.0f} "
            f"{batched_wps / scalar_wps:>7.2f}x"
        )
        results[spec.encoder] = {
            "scalar_writes_per_s": scalar_wps,
            "batched_writes_per_s": batched_wps,
            "speedup": batched_wps / scalar_wps,
        }
    write_bench_json(
        "random_lines",
        config={
            "rows": ROWS,
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
