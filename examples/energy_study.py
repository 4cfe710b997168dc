"""Energy study: how much dynamic write energy does VCC save on encrypted data?

Drives the full memory-controller pipeline (encrypt -> encode -> write)
for a synthetic SPEC-like benchmark trace against an MLC PCM array with a
fixed stuck-at fault snapshot, comparing the unencoded baseline with VCC
and RCC at 256 cosets — a scaled-down rendition of the paper's Fig. 9.

Run with ``python examples/energy_study.py [benchmark]``.
"""

from __future__ import annotations

import sys

from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap
from repro.sim.harness import TechniqueSpec, build_controller
from repro.traces.synthetic import generate_trace


def main(benchmark: str = "lbm") -> None:
    rows = 96
    writebacks = 200
    trace = generate_trace(benchmark, num_writebacks=writebacks, memory_lines=rows, seed=1)
    fault_map = FaultMap(rows=rows, cells_per_row=256, fault_rate=1e-2, seed=2)

    techniques = [
        TechniqueSpec(encoder="unencoded", cost="energy", label="Unencoded"),
        TechniqueSpec(encoder="vcc", cost="energy-then-saw", num_cosets=256, label="VCC (generated)"),
        TechniqueSpec(encoder="vcc-stored", cost="energy-then-saw", num_cosets=256, label="VCC (stored)"),
        TechniqueSpec(encoder="rcc", cost="energy-then-saw", num_cosets=256, label="RCC"),
    ]

    print(f"benchmark {benchmark}: {writebacks} encrypted line writebacks, "
          f"{rows} rows, fixed 1e-2 fault snapshot\n")
    baseline = None
    for spec in techniques:
        controller = build_controller(
            spec,
            rows=rows,
            technology=CellTechnology.MLC,
            fault_map=fault_map,
            seed=3,
        )
        controller.replay_trace(trace)
        stats = controller.stats
        if baseline is None:
            baseline = stats.total_energy_pj
        saving = 100.0 * (baseline - stats.total_energy_pj) / baseline
        print(
            f"{spec.label:16s}  energy {stats.total_energy_pj/1e6:8.3f} uJ"
            f"  saving {saving:6.1f} %"
            f"  SAW cells {stats.saw_cells:5d}"
            f"  bits changed {stats.bits_changed}"
        )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "lbm")
