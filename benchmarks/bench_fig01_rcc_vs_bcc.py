"""Fig. 1 — analytical reduction in changed bits: RCC vs. BCC."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig01_rcc_vs_bcc(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark, lambda: run_experiment("fig1", n=64, coset_counts=(2, 4, 16, 256))
    )
    record_table("fig01", table)

    rows = {row["cosets"]: row for row in table}
    # Paper shape: BCC wins at N in {2, 4}; RCC overtakes at 16 and wins
    # by a considerable margin at 256.
    assert rows[2]["bcc_reduction_percent"] > rows[2]["rcc_reduction_percent"]
    assert rows[4]["bcc_reduction_percent"] > rows[4]["rcc_reduction_percent"]
    assert rows[16]["rcc_reduction_percent"] > rows[16]["bcc_reduction_percent"]
    assert rows[256]["rcc_reduction_percent"] > rows[256]["bcc_reduction_percent"] + 3.0
    # Absolute scale: both in the 0-35 % band shown in the figure.
    for row in rows.values():
        assert 0.0 < row["bcc_reduction_percent"] < 35.0
        assert 0.0 < row["rcc_reduction_percent"] < 35.0
