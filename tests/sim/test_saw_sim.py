"""Tests for the SAW figures (Figs. 2, 8, 10), run at reduced scale."""

import pytest

from repro.experiments.registry import run_experiment

_TINY = {"rows": 32, "seed": 9}


@pytest.fixture(scope="module")
def fig2_table():
    return run_experiment("fig2", coset_counts=(1, 4, 32), num_writes=60, **_TINY)


@pytest.fixture(scope="module")
def fig8_table():
    return run_experiment("fig8", coset_counts=(32, 256), num_writes=60, **_TINY)


@pytest.fixture(scope="module")
def fig10_table():
    return run_experiment(
        "fig10", benchmarks=("lbm", "xz"), num_cosets=256, writebacks_per_benchmark=40, **_TINY
    )


class TestFig2:
    def test_fault_rate_decreases_with_cosets(self, fig2_table):
        rates = fig2_table.column("observed_fault_rate")
        assert rates[0] > rates[-1]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_unencoded_rate_near_physical_rate(self, fig2_table):
        # With one coset (unencoded) the observed rate should be within an
        # order of magnitude of the raw 1e-2 map (only mismatching cells count).
        rate = fig2_table.filter(cosets=1)[0]["observed_fault_rate"]
        assert 1e-3 < rate < 1e-2

    def test_cells_written_constant(self, fig2_table):
        assert len(set(fig2_table.column("cells_written"))) == 1


class TestFig8:
    def test_vcc_reduces_saw(self, fig8_table):
        for cosets in (32, 256):
            rows = {r["technique"]: r["saw_cells"] for r in fig8_table.filter(cosets=cosets)}
            assert rows["VCC"] < rows["Unencoded"]

    def test_reduction_grows_with_cosets(self, fig8_table):
        small = fig8_table.filter(cosets=32, technique="VCC")[0]["reduction_percent"]
        large = fig8_table.filter(cosets=256, technique="VCC")[0]["reduction_percent"]
        assert large >= small

    def test_large_count_reaches_high_reduction(self, fig8_table):
        assert fig8_table.filter(cosets=256, technique="VCC")[0]["reduction_percent"] > 80.0


class TestFig10:
    def test_every_benchmark_reduced(self, fig10_table):
        for benchmark in ("lbm", "xz"):
            rows = fig10_table.filter(benchmark=benchmark)
            unencoded = next(r for r in rows if r["technique"] == "Unencoded")
            vcc = next(r for r in rows if r["technique"] != "Unencoded")
            assert vcc["saw_cells"] < unencoded["saw_cells"]
            assert vcc["reduction_percent"] > 70.0

    def test_technique_label_mentions_configuration(self, fig10_table):
        labels = {r["technique"] for r in fig10_table if r["technique"] != "Unencoded"}
        assert any("VCC(" in label for label in labels)
