"""Ablation — how the encoder learns about stuck cells.

The paper assumes an ideal fault-tracking repository ("we assume some such
mechanism is in place") so the encoder always knows which cells of a row
are stuck.  This ablation compares three levels of knowledge for the same
VCC configuration against the same fault snapshot:

* ``oracle`` — the paper's assumption (ground-truth stuck mask);
* ``discovered`` — a runtime fault repository populated by write-verify
  mismatches (faults are masked only after they have been seen once);
* ``none`` — no fault information at all.

The expectation: oracle ≤ discovered < none in residual stuck-at-wrong
cells, with the discovered mode approaching the oracle as rows are
revisited.
"""

from typing import Any

from conftest import TableRecorder, run_once

from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap
from repro.sim.harness import TechniqueSpec, build_controller
from repro.sim.results import ResultTable
from repro.traces.synthetic import generate_trace

ROWS = 64
REPEAT = 3


def _saw_cells(fault_knowledge: str) -> int:
    fault_map = FaultMap(rows=ROWS, cells_per_row=256, fault_rate=1e-2, seed=23)
    controller = build_controller(
        TechniqueSpec(encoder="vcc-stored", cost="saw-then-energy", num_cosets=256),
        rows=ROWS,
        technology=CellTechnology.MLC,
        fault_map=fault_map,
        seed=23,
    )
    # Swap in the requested fault-knowledge mode (build_controller defaults
    # to the oracle the paper assumes).
    from repro.memctrl.controller import MemoryController
    from repro.memctrl.config import ControllerConfig

    controller = MemoryController(
        array=controller.array,
        encoder=controller.encoder,
        config=ControllerConfig(),
        fault_knowledge=fault_knowledge,
    )
    trace = generate_trace("fotonik3d", 120, memory_lines=ROWS, seed=23)
    controller.replay_trace(trace, repetitions=REPEAT)
    return controller.stats.saw_cells


def run() -> ResultTable:
    table = ResultTable(
        title="Ablation — fault-knowledge modes (VCC-stored, 256 cosets, 1e-2 snapshot)",
        columns=["fault_knowledge", "saw_cells"],
        notes=f"trace replayed {REPEAT}x so the discovered mode can learn the fault map",
    )
    for mode in ("oracle", "discovered", "none"):
        table.append(fault_knowledge=mode, saw_cells=_saw_cells(mode))
    return table


def test_ablation_fault_knowledge(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(benchmark, run)
    record_table("ablation_fault_knowledge", table)

    saw = {row["fault_knowledge"]: row["saw_cells"] for row in table}
    # Ground truth is the best case, no knowledge the worst.
    assert saw["oracle"] <= saw["discovered"] <= saw["none"]
    assert saw["oracle"] < saw["none"] * 0.3
    # Runtime discovery recovers most of the oracle's benefit once rows have
    # been revisited.
    assert saw["discovered"] < saw["none"] * 0.7
