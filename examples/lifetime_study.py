"""Lifetime study: how much longer does an encoded memory survive?

Runs the scaled-down wear-out simulation (Fig. 11 methodology) for one
benchmark: every cell gets an endurance from the process-variation
distribution, the trace is replayed until four rows can no longer be
written correctly, and the writes-to-failure of each protection technique
is reported relative to the unencoded baseline.

Run with ``python examples/lifetime_study.py [benchmark]``.
"""

from __future__ import annotations

import sys

from repro import obs
from repro.sim.harness import TechniqueSpec
from repro.sim.lifetime_sim import LifetimeStudyConfig, simulate_lifetime


def main(benchmark: str = "mcf") -> None:
    config = LifetimeStudyConfig(rows=48, mean_endurance_writes=64, trace_writebacks=300)
    techniques = [
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="Unencoded"),
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="SECDED", corrector="secded"),
        TechniqueSpec(encoder="unencoded", cost="saw-then-energy", label="ECP3", corrector="ecp3"),
        TechniqueSpec(encoder="flipcy", cost="saw-then-energy", label="Flipcy"),
        TechniqueSpec(encoder="dbi/fnw", cost="saw-then-energy", label="DBI/FNW"),
        TechniqueSpec(encoder="vcc-stored", cost="saw-then-energy", num_cosets=256, label="VCC"),
        TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=256, label="RCC"),
    ]

    print(f"benchmark {benchmark}: scaled memory ({config.rows} rows, "
          f"mean endurance {config.mean_endurance_writes:.0f} writes), "
          "failure = 4 rows with unmaskable/uncorrectable errors\n")
    baseline = None
    for spec in techniques:
        start = obs.monotonic()
        outcome = simulate_lifetime(spec, benchmark, config)
        if baseline is None:
            baseline = outcome.writes
        improvement = 100.0 * (outcome.writes / baseline - 1.0)
        censored = "  (censored at cap)" if outcome.censored else ""
        print(
            f"{spec.label:10s}  writes to failure {outcome.writes:7d}"
            f"  vs unencoded {improvement:+6.1f} %"
            f"  ({obs.monotonic() - start:4.1f}s){censored}"
        )


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "mcf")
