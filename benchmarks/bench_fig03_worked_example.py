"""Fig. 3 — the worked VCC(64, 64, 4) encoding example."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig03_worked_example(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(benchmark, lambda: run_experiment("fig3"))
    record_table("fig03", table)

    values = {row["quantity"]: row["value"] for row in table}
    # The exact selection shown in Fig. 3(e).
    assert values["selected codeword Xopt"] == "0b00070010610cd0"
    assert values["auxiliary bits (kernel index + flags)"] == "000110"
    assert values["cost (ones incl. aux)"] == 17
    assert values["decode(Xopt) == D"] is True
