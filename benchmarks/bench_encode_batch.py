"""Cross-write batched candidate evaluation: waves vs. the scalar path.

The generic (non-identity) replay path of
:meth:`repro.memctrl.controller.MemoryController.replay_trace` partitions
each chunk into waves of writes targeting distinct rows and encodes every
wave through one :meth:`repro.coding.base.Encoder.encode_lines` call.
This benchmark checks the wave engine's parity and tracks its throughput:

* **parity** — every per-write accounting value of the replay is
  bit-identical to the scalar ``write_line`` oracle for *all* registry
  encoders × SLC/MLC under the Opt.-SAW objective and × MLC under the
  energy and Opt.-Energy objectives, with stuck cells, wear, and
  encryption in play, and additionally under Start-Gap wear leveling (waves must flush at gap
  migrations), across the fault-knowledge modes, and for a one-partition
  stored-ROM VCC whose kernels are 64 bits wide;
* **throughput** — on the paper's headline coset configurations (VCC-256,
  the stored-ROM VCC-256 of the lifetime figures' "VCC" series, and
  RCC-256, all under the Opt.-SAW objective), ``replay_trace`` and the
  per-write ``write_line`` lines/sec are measured for tracking only.
  ``write_line`` runs the same ``encode_lines`` kernels one line at a
  time, so their ratio mostly measures host noise; the batched kernels
  are gated against the ``encode_line_scalar`` oracle by
  ``bench_encode_throughput.py`` instead.

Each run writes ``benchmarks/results/BENCH_encode_batch.json`` with the
measured throughputs so the perf trajectory is tracked across PRs.

Run directly for a table::

    PYTHONPATH=src python benchmarks/bench_encode_batch.py

or under pytest to enforce the parity contract::

    PYTHONPATH=src python -m pytest benchmarks/bench_encode_batch.py -q
"""

from __future__ import annotations

import os
import sys
from typing import Dict, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_util import write_bench_json

from repro import obs
from repro.coding.registry import available_encoders, make_encoder
from repro.core.config import VCCConfig
from repro.core.vcc import VCCEncoder
from repro.memctrl.controller import MemoryController
from repro.pcm.cell import CellTechnology
from repro.pcm.endurance import EnduranceModel
from repro.pcm.faultmap import FaultMap
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.pcm.array import PCMArray
from repro.sim.harness import TechniqueSpec, build_controller, make_cost
from repro.traces.synthetic import generate_trace
from repro.utils.rng import derive_seed

#: Throughput geometry: a large array keeps replay waves near the cap so
#: the batched candidate kernels run at full width.
ROWS = 1024
TRACE_WRITEBACKS = 1500
TRACE_NAME = "bwaves"
SEED = derive_seed(11, f"lifetime-{TRACE_NAME}")
SEGMENT_WRITES = 500
SEGMENTS = 7

#: Parity geometry: small and fault-heavy so stuck cells, wear, and aux
#: bits are all exercised within a few dozen writes.
PARITY_ROWS = 16
PARITY_TRACE = {"num_writebacks": 12, "memory_lines": PARITY_ROWS, "line_bits": 512, "word_bits": 64}
PARITY_REPETITIONS = 2

THROUGHPUT_SPECS = (
    ("vcc-256", TechniqueSpec(encoder="vcc", cost="saw-then-energy", num_cosets=256)),
    (
        "vcc-stored-256",
        TechniqueSpec(encoder="vcc-stored", cost="saw-then-energy", num_cosets=256),
    ),
    ("rcc-256", TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=256)),
)


# ----------------------------------------------------------------- parity
def _parity_controller(
    name: str, technology: CellTechnology, seed: int = 9, cost: str = "saw-then-energy"
):
    return build_controller(
        TechniqueSpec(encoder=name, cost=cost, num_cosets=16),
        rows=PARITY_ROWS,
        technology=technology,
        fault_map=FaultMap(
            rows=PARITY_ROWS,
            cells_per_row=512 // technology.bits_per_cell,
            technology=technology,
            fault_rate=1e-2,
            seed=seed,
        ),
        endurance_model=EnduranceModel(mean_writes=30, coefficient_of_variation=0.2),
        seed=seed,
        encrypt=True,
    )


def _parity_trace(seed: int = 9):
    return generate_trace("mcf", seed=seed, **PARITY_TRACE)


def _drive_scalar(controller, trace, repetitions: int):
    results = []
    for _ in range(repetitions):
        for record in trace:
            results.append(controller.write_line(record.address, list(record.words)))
    return results


def _assert_replay_parity(scalar_results, replay) -> None:
    assert replay.writes == len(scalar_results)
    for index, line in enumerate(scalar_results):
        assert line.address == replay.addresses[index]
        assert line.row_index == replay.row_indices[index]
        assert line.data_energy_fj == replay.data_energy_fj[index]
        assert line.aux_energy_fj == replay.aux_energy_fj[index]
        assert line.cells_changed == replay.cells_changed[index]
        assert line.bits_changed == replay.bits_changed[index]
        assert line.saw_cells == replay.saw_cells[index]
        assert list(line.saw_bits_per_word) == list(replay.saw_bits_per_word[index])
        assert line.newly_stuck_cells == replay.newly_stuck_cells[index]


def check_parity() -> int:
    """Replay waves vs. the write_line oracle over the full contract matrix.

    Returns the number of configurations checked.
    """
    trace = _parity_trace()
    checked = 0

    # Every registry encoder on both cell technologies, with stuck cells,
    # wear, encryption, and per-word auxiliary bits in play.
    for technology in (CellTechnology.MLC, CellTechnology.SLC):
        for name in available_encoders():
            scalar = _drive_scalar(
                _parity_controller(name, technology), trace, PARITY_REPETITIONS
            )
            replay = _parity_controller(name, technology).replay_trace(
                trace, repetitions=PARITY_REPETITIONS
            )
            _assert_replay_parity(scalar, replay)
            checked += 1

    # The energy-first objectives Figs. 7 and 9 replay under, on MLC.
    for cost in ("energy", "energy-then-saw"):
        for name in available_encoders():
            scalar = _drive_scalar(
                _parity_controller(name, CellTechnology.MLC, cost=cost),
                trace,
                PARITY_REPETITIONS,
            )
            replay = _parity_controller(name, CellTechnology.MLC, cost=cost).replay_trace(
                trace, repetitions=PARITY_REPETITIONS
            )
            _assert_replay_parity(scalar, replay)
            checked += 1

    # Start-Gap wear leveling: waves must flush at every gap migration so
    # the mapping rotates at exactly the scalar path's write counts.
    for name in ("rcc", "vcc-stored"):
        def build_leveled(encoder_name=name):
            technology = CellTechnology.MLC
            leveler = StartGapWearLeveler(rows=PARITY_ROWS, gap_write_interval=5)
            array = PCMArray(
                rows=leveler.physical_rows_required,
                row_bits=512,
                technology=technology,
                endurance_model=EnduranceModel(mean_writes=40, coefficient_of_variation=0.2),
                seed=7,
            )
            encoder = make_encoder(
                encoder_name, word_bits=64, num_cosets=16, technology=technology
            )
            return MemoryController(array=array, encoder=encoder, wear_leveler=leveler)

        first = build_leveled()
        scalar = _drive_scalar(first, trace, 3)
        second = build_leveled()
        replay = second.replay_trace(trace, repetitions=3)
        _assert_replay_parity(scalar, replay)
        assert first.wear_leveler.gap_moves == second.wear_leveler.gap_moves
        assert first.wear_leveler.mapping_snapshot() == second.wear_leveler.mapping_snapshot()
        checked += 1

    # Fault-knowledge modes: the stuck masks the wave gathers must match
    # what each scalar write would have seen.
    for fault_knowledge in ("oracle", "discovered", "none"):
        def build_knowledge(mode=fault_knowledge):
            technology = CellTechnology.MLC
            array = PCMArray(
                rows=PARITY_ROWS,
                row_bits=512,
                technology=technology,
                fault_map=FaultMap(
                    rows=PARITY_ROWS, cells_per_row=256, technology=technology,
                    fault_rate=1e-2, seed=5,
                ),
                seed=5,
            )
            encoder = make_encoder("rcc", word_bits=64, num_cosets=16, technology=technology)
            return MemoryController(array=array, encoder=encoder, fault_knowledge=mode)

        scalar = _drive_scalar(build_knowledge(), trace, 3)
        replay = build_knowledge().replay_trace(trace, repetitions=3)
        _assert_replay_parity(scalar, replay)
        checked += 1

    # One partition of the full word: 64-bit stored kernels, the widest
    # the oracle's uint64 kernel arrays hold.
    def build_wide_kernels():
        technology = CellTechnology.MLC
        array = PCMArray(
            rows=PARITY_ROWS,
            row_bits=512,
            technology=technology,
            fault_map=FaultMap(
                rows=PARITY_ROWS, cells_per_row=256, technology=technology,
                fault_rate=1e-2, seed=9,
            ),
            endurance_model=EnduranceModel(mean_writes=30, coefficient_of_variation=0.2),
            seed=9,
        )
        encoder = VCCEncoder(
            VCCConfig.for_cosets(16, partitions=1, stored_kernels=True),
            cost_function=make_cost("saw-then-energy", technology),
        )
        return MemoryController(array=array, encoder=encoder)

    scalar = _drive_scalar(build_wide_kernels(), trace, PARITY_REPETITIONS)
    replay = build_wide_kernels().replay_trace(trace, repetitions=PARITY_REPETITIONS)
    _assert_replay_parity(scalar, replay)
    checked += 1

    return checked


# ------------------------------------------------------------- throughput
def _throughput_controller(spec: TechniqueSpec):
    return build_controller(
        spec,
        rows=ROWS,
        fault_map=FaultMap(
            rows=ROWS, cells_per_row=256, technology=CellTechnology.MLC,
            fault_rate=1e-2, seed=SEED,
        ),
        seed=SEED,
        encrypt=True,
    )


def _throughput_trace():
    return generate_trace(
        TRACE_NAME,
        num_writebacks=TRACE_WRITEBACKS,
        memory_lines=ROWS,
        line_bits=512,
        word_bits=64,
        seed=derive_seed(SEED, "trace"),
    )


def measure(spec: TechniqueSpec) -> Tuple[float, float, float]:
    """Lines/sec of the scalar loop and of replay_trace, plus the speedup.

    Scalar and replay segments alternate on two long-lived controllers and
    the speedup is the best scalar/replay pair, so slow host epochs hit
    both sides of a pair rather than one side of the ratio.
    """
    trace = _throughput_trace()
    records = list(trace)
    scalar_controller = _throughput_controller(spec)
    replay_controller = _throughput_controller(spec)
    for record in records[:100]:
        scalar_controller.write_line(record.address, list(record.words))
    replay_controller.replay_trace(trace, repetitions=1, max_writes=100)

    best_ratio = 0.0
    best_scalar = best_replay = float("inf")
    position = 0
    repetitions = -(-SEGMENT_WRITES // len(records))
    for _ in range(SEGMENTS):
        start = obs.monotonic()
        for _ in range(SEGMENT_WRITES):
            record = records[position % len(records)]
            scalar_controller.write_line(record.address, list(record.words))
            position += 1
        scalar_s = obs.monotonic() - start
        start = obs.monotonic()
        replay = replay_controller.replay_trace(
            trace, repetitions=repetitions, max_writes=SEGMENT_WRITES
        )
        replay_s = obs.monotonic() - start
        assert replay.writes == SEGMENT_WRITES
        best_scalar = min(best_scalar, scalar_s)
        best_replay = min(best_replay, replay_s)
        best_ratio = max(best_ratio, scalar_s / replay_s)
    return SEGMENT_WRITES / best_scalar, SEGMENT_WRITES / best_replay, best_ratio


def run_benchmark() -> Dict[str, Dict[str, float]]:
    """Measure every throughput spec, print a table, emit the JSON record."""
    results: Dict[str, Dict[str, float]] = {}
    print(
        f"encode-batch benchmark: {SEGMENTS}x{SEGMENT_WRITES} writes, {ROWS} rows, "
        f"{TRACE_WRITEBACKS}-writeback {TRACE_NAME} trace, fault rate 1e-2, encrypted"
    )
    print(f"{'technique':14s} {'scalar w/s':>11} {'replay w/s':>11} {'speedup':>8}")
    for label, spec in THROUGHPUT_SPECS:
        scalar_wps, replay_wps, speedup = measure(spec)
        results[label] = {
            "scalar_writes_per_s": scalar_wps,
            "replay_writes_per_s": replay_wps,
            "speedup": speedup,
        }
        print(f"{label:14s} {scalar_wps:>11.0f} {replay_wps:>11.0f} {speedup:>7.2f}x")
    write_bench_json(
        "encode_batch",
        config={
            "rows": ROWS,
            "trace": TRACE_NAME,
            "trace_writebacks": TRACE_WRITEBACKS,
            "segment_writes": SEGMENT_WRITES,
            "segments": SEGMENTS,
            "cost": "saw-then-energy",
            "fault_rate": 1e-2,
        },
        results=results,
    )
    return results


def test_encode_batch_parity() -> None:
    # Bit-identical per-write accounting over the full matrix (9 encoders
    # x SLC/MLC under Opt. SAW, x MLC under energy and Opt. Energy, wear
    # leveling, fault-knowledge modes, 64-bit VCC kernels).
    checked = check_parity()
    assert checked == 4 * len(available_encoders()) + 6


def main() -> None:
    run_benchmark()
    print(
        "parity: replay waves vs write_line oracle "
        "(all encoders x SLC/MLC and energy objectives, wear leveling, fault knowledge, "
        "64-bit kernels) ...",
        end=" ",
    )
    checked = check_parity()
    print(f"OK ({checked} configurations)")


if __name__ == "__main__":
    main()
