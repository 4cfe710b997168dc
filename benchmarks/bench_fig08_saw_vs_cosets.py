"""Fig. 8 — SAW cell improvement vs. coset cardinality."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig08_saw_vs_cosets(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark,
        lambda: run_experiment(
            "fig8", coset_counts=(32, 64, 128, 256), rows=96, num_writes=150, seed=7
        ),
    )
    record_table("fig08", table)

    reductions = {
        row["cosets"]: row["reduction_percent"] for row in table.filter(technique="VCC")
    }
    saw_counts = {row["cosets"]: row["saw_cells"] for row in table.filter(technique="VCC")}
    unencoded = {row["cosets"]: row["saw_cells"] for row in table.filter(technique="Unencoded")}

    # VCC always reduces the SAW count, the reduction grows with the number
    # of virtual cosets, and at 256 cosets it exceeds 95 % (paper: 95.6 %).
    for cosets in (32, 64, 128, 256):
        assert saw_counts[cosets] < unencoded[cosets]
    assert reductions[32] <= reductions[64] + 2.0
    assert reductions[64] <= reductions[128] + 2.0
    assert reductions[256] > 90.0
    assert reductions[128] > 90.0
