"""Tests for the energy figures (Figs. 7 and 9), run at reduced scale."""

import pytest

from repro.experiments.registry import run_experiment

#: A deliberately tiny memory so the full figure logic runs in seconds.
_TINY = {"rows": 24, "seed": 5}


@pytest.fixture(scope="module")
def fig7_table():
    return run_experiment("fig7", coset_counts=(32, 256), num_writes=40, **_TINY)


@pytest.fixture(scope="module")
def fig9_table():
    return run_experiment(
        "fig9", benchmarks=("lbm", "xz"), num_cosets=64, writebacks_per_benchmark=30, **_TINY
    )


class TestFig7:
    def test_rows_per_technique_and_count(self, fig7_table):
        assert len(fig7_table) == 2 * 4  # 2 coset counts x 4 techniques

    def test_unencoded_is_reference(self, fig7_table):
        for row in fig7_table.filter(technique="Unencoded"):
            assert row["saving_percent"] == 0.0

    def test_all_coset_techniques_save_energy(self, fig7_table):
        for row in fig7_table:
            if row["technique"] != "Unencoded":
                assert row["saving_percent"] > 10.0

    def test_rcc_is_best_or_close(self, fig7_table):
        for cosets in (32, 256):
            rows = {r["technique"]: r["saving_percent"] for r in fig7_table.filter(cosets=cosets)}
            assert rows["RCC"] >= rows["VCC-Generated"] - 2.0
            assert rows["RCC"] >= rows["VCC-Stored"] - 2.0

    def test_more_cosets_save_more(self, fig7_table):
        for technique in ("RCC", "VCC-Generated", "VCC-Stored"):
            small = fig7_table.filter(cosets=32, technique=technique)[0]["saving_percent"]
            large = fig7_table.filter(cosets=256, technique=technique)[0]["saving_percent"]
            assert large >= small - 1.0

    def test_energy_positive(self, fig7_table):
        for row in fig7_table:
            assert row["total_energy_pj"] > 0.0


class TestFig9:
    def test_rows_per_benchmark(self, fig9_table):
        assert len(fig9_table.filter(benchmark="lbm")) == 5
        assert len(fig9_table.filter(benchmark="xz")) == 5

    def test_vcc_saves_energy_under_both_orderings(self, fig9_table):
        for benchmark in ("lbm", "xz"):
            rows = {r["technique"]: r["saving_percent"] for r in fig9_table.filter(benchmark=benchmark)}
            assert rows["VCC Opt. Energy"] > 10.0
            assert rows["VCC Opt. SAW"] > 10.0

    def test_orderings_are_close(self, fig9_table):
        # The paper's observation: optimising SAW first barely changes the
        # energy saving.
        for benchmark in ("lbm", "xz"):
            rows = {r["technique"]: r["saving_percent"] for r in fig9_table.filter(benchmark=benchmark)}
            assert abs(rows["VCC Opt. Energy"] - rows["VCC Opt. SAW"]) < 12.0

    def test_rcc_comparable_to_vcc(self, fig9_table):
        for benchmark in ("lbm", "xz"):
            rows = {r["technique"]: r["saving_percent"] for r in fig9_table.filter(benchmark=benchmark)}
            assert rows["RCC Opt. Energy"] >= rows["VCC Opt. Energy"] - 5.0
