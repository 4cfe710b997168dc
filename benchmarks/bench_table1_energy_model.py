"""Table I — MLC symbol-transition energy classification."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_table1_energy_model(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(benchmark, lambda: run_experiment("table1"))
    record_table("table1", table)

    for row in table:
        old = row["old_state"][2:4]
        # Diagonal entries need no programming.
        assert row[f"N({old})"] == "-"
        for new in ("00", "01", "11", "10"):
            if new == old:
                continue
            # High-energy transitions are exactly those whose new symbol has
            # a right digit of one.
            expected = "high" if new[1] == "1" else "low"
            assert row[f"N({new})"] == expected
