"""Fig. 9 — per-benchmark write energy under both cost-function orderings."""

from typing import Any

from conftest import TableRecorder, run_once

from repro.experiments import run_experiment

BENCHMARKS = ("lbm", "mcf", "bwaves", "xalancbmk", "xz")


def test_fig09_energy_per_benchmark(benchmark: Any, record_table: TableRecorder) -> None:
    table = run_once(
        benchmark,
        lambda: run_experiment(
            "fig9", benchmarks=BENCHMARKS, num_cosets=256, writebacks_per_benchmark=120, rows=96
        ),
    )
    record_table("fig09", table)

    savings = {}
    for name in BENCHMARKS:
        savings[name] = {
            row["technique"]: row["saving_percent"] for row in table.filter(benchmark=name)
        }

    for name, rows in savings.items():
        # The paper reports ~22-28 % average dynamic-energy savings for VCC;
        # require a clear double-digit saving on every benchmark.
        assert rows["VCC Opt. Energy"] > 15.0
        assert rows["VCC Opt. SAW"] > 15.0
        # Switching the lexicographic order barely changes the saving.
        assert abs(rows["VCC Opt. Energy"] - rows["VCC Opt. SAW"]) < 10.0
        # RCC stays comparable (it is the quality ceiling).
        assert rows["RCC Opt. Energy"] > 15.0

    mean_vcc = sum(rows["VCC Opt. Energy"] for rows in savings.values()) / len(savings)
    assert 15.0 < mean_vcc < 60.0
