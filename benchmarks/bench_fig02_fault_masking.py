"""Fig. 2 — mean observed fault rate vs. number of random coset codes."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig02_fault_masking(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark,
        lambda: run_experiment(
            "fig2", coset_counts=(1, 2, 4, 8, 16, 32, 64, 128), rows=96, num_writes=150, seed=7
        ),
    )
    record_table("fig02", table)

    rates = table.column("observed_fault_rate")
    # Paper shape: the mean observed fault rate decreases as the number of
    # coset candidates grows.
    assert rates[0] > rates[-1]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    # With no encoding the observed rate is within an order of magnitude of
    # the raw 1e-2 fault incidence (only mismatching cells are observed).
    assert 1e-3 < rates[0] <= 1e-2
