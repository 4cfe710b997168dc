"""Fig. 10 — per-benchmark SAW cells: unencoded vs. VCC(64, 256, 16)."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment

BENCHMARKS = ("lbm", "mcf", "bwaves", "xalancbmk", "xz")


def test_fig10_saw_per_benchmark(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark,
        lambda: run_experiment(
            "fig10", benchmarks=BENCHMARKS, num_cosets=256, writebacks_per_benchmark=100, rows=96
        ),
    )
    record_table("fig10", table)

    for name in BENCHMARKS:
        rows = table.filter(benchmark=name)
        unencoded = next(r for r in rows if r["technique"] == "Unencoded")["saw_cells"]
        vcc_row = next(r for r in rows if r["technique"] != "Unencoded")
        # Paper shape: VCC reduces the SAW count by at least 95 % on every
        # benchmark; allow a slightly looser bound at the scaled-down size.
        assert unencoded > 0
        assert vcc_row["saw_cells"] < unencoded
        assert vcc_row["reduction_percent"] > 90.0
