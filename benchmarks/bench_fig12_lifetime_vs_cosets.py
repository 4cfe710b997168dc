"""Fig. 12 — mean writes-to-failure vs. coset count for every technique."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment
from repro.sim.lifetime_sim import LifetimeStudyConfig

CONFIG = LifetimeStudyConfig(
    rows=40,
    mean_endurance_writes=48,
    trace_writebacks=250,
    max_line_writes=30_000,
    seed=12,
)


def test_fig12_lifetime_vs_cosets(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark,
        lambda: run_experiment(
            "fig12", coset_counts=(32, 256), benchmarks=("lbm",), config=CONFIG
        ),
    )
    record_table("fig12", table)

    def lifetime(cosets, technique):
        return table.filter(cosets=cosets, technique=technique)[0]["mean_writes_to_failure"]

    for cosets in (32, 256):
        # The coset techniques beat the unencoded memory and the simple
        # protection baselines at every coset count.
        assert lifetime(cosets, "VCC") > lifetime(cosets, "Unencoded")
        assert lifetime(cosets, "RCC") > lifetime(cosets, "Unencoded")
        assert lifetime(cosets, "VCC") >= lifetime(cosets, "DBI/FNW")
        assert lifetime(cosets, "Flipcy") <= lifetime(cosets, "Unencoded") * 1.3

    # More cosets extend VCC's lifetime (or at least never shorten it), and
    # at 256 cosets the improvement over unencoded is substantial.
    assert lifetime(256, "VCC") >= lifetime(32, "VCC") * 0.95
    assert lifetime(256, "VCC") >= lifetime(256, "Unencoded") * 1.35
