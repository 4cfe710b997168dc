"""Fig. 7 — write energy of RCC / VCC / VCC-stored / unencoded vs. coset count."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment


def test_fig07_write_energy(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark,
        lambda: run_experiment(
            "fig7", coset_counts=(32, 64, 128, 256), rows=96, num_writes=200, seed=2022
        ),
    )
    record_table("fig07", table)

    def saving(cosets, technique):
        return table.filter(cosets=cosets, technique=technique)[0]["saving_percent"]

    for cosets in (32, 64, 128, 256):
        # Every coset technique saves a substantial fraction of the
        # unencoded write energy (paper: ~45 % at 256 cosets).
        for technique in ("RCC", "VCC-Generated", "VCC-Stored"):
            assert saving(cosets, technique) > 20.0
        # RCC is the quality ceiling; VCC approaches it within a few percent
        # and stored kernels sit between generated kernels and RCC.
        assert saving(cosets, "RCC") >= saving(cosets, "VCC-Stored") - 1.0
        assert saving(cosets, "VCC-Stored") >= saving(cosets, "VCC-Generated") - 1.0
        assert saving(cosets, "RCC") - saving(cosets, "VCC-Generated") < 10.0

    # More cosets help every technique.
    for technique in ("RCC", "VCC-Generated", "VCC-Stored"):
        assert saving(256, technique) > saving(32, technique) - 1.0

    # The RCC-vs-VCC gap narrows (or at least does not grow) as the coset
    # count increases, matching the paper's observation.
    gap_32 = saving(32, "RCC") - saving(32, "VCC-Generated")
    gap_256 = saving(256, "RCC") - saving(256, "VCC-Generated")
    assert gap_256 <= gap_32 + 2.0
