"""Fig. 13 — normalised IPC of DBI/Flipcy, VCC, and RCC."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig13_ipc(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(benchmark, lambda: run_experiment("fig13", num_cosets=256))
    record_table("fig13", table)

    by_technique = {}
    for row in table:
        by_technique.setdefault(row["technique"], []).append(row["normalized_ipc"])

    mean = {t: sum(v) / len(v) for t, v in by_technique.items()}
    # Paper shape: DBI/Flipcy negligible, VCC < 2 % average slowdown,
    # RCC < 3 %, and every benchmark stays above 0.92 normalised IPC.
    assert mean["DBI/Flipcy"] > 0.995
    assert mean["VCC"] > 0.98
    assert mean["RCC"] > 0.97
    assert mean["RCC"] <= mean["VCC"] <= mean["DBI/Flipcy"]
    for values in by_technique.values():
        assert min(values) > 0.92
