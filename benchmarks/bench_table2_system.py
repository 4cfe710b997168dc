"""Table II — architecture parameters of the performance study."""

import math

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_table2_system(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(benchmark, lambda: run_experiment("table2"))
    record_table("table2", table)

    parameters = {row["parameter"]: row["value"] for row in table}
    assert parameters["cores (out-of-order)"] == 4
    assert parameters["issue width"] == 4
    assert math.isclose(parameters["frequency (GHz)"], 1.0)
    assert parameters["row size (bits)"] == 512
    assert parameters["word size (bits)"] == 64
    assert parameters["main memory (GiB, MLC PCM)"] == 2
    assert parameters["channels"] == 2
    assert parameters["banks per rank"] == 8
    assert math.isclose(parameters["baseline access delay (ns)"], 84.0)
