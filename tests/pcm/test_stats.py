"""Tests for the write statistics container."""

import pytest

from repro.pcm.stats import WriteStats


class TestWriteStats:
    def test_defaults_are_zero(self):
        stats = WriteStats()
        assert stats.total_energy_pj == 0.0
        assert stats.words_written == 0

    def test_total_energy_sums_data_and_aux(self):
        stats = WriteStats(data_energy_fj=10_000, aux_energy_fj=2_500)
        assert stats.total_energy_pj == 12.5
        assert (stats.data_energy_pj, stats.aux_energy_pj) == (10.0, 2.5)

    def test_mean_bits_changed(self):
        stats = WriteStats(words_written=4, bits_changed=40)
        assert stats.mean_bits_changed_per_word == pytest.approx(10.0)

    def test_mean_bits_changed_empty(self):
        assert WriteStats().mean_bits_changed_per_word == 0.0

    def test_mean_energy_per_word(self):
        stats = WriteStats(words_written=2, data_energy_fj=6_000, aux_energy_fj=2_000)
        assert stats.mean_energy_per_word_pj == pytest.approx(4.0)

    def test_merge_sums_fields(self):
        a = WriteStats(words_written=1, bits_changed=2, data_energy_fj=3_000, saw_cells=1)
        b = WriteStats(words_written=2, bits_changed=5, data_energy_fj=4_000, saw_cells=2)
        merged = a.merge(b)
        assert merged == WriteStats(
            words_written=3, bits_changed=7, data_energy_fj=7_000, saw_cells=3
        )

    def test_merge_does_not_mutate(self):
        a = WriteStats(words_written=1)
        b = WriteStats(words_written=2)
        a.merge(b)
        assert a.words_written == 1

    def test_as_dict_contains_all_counters(self):
        data = WriteStats(words_written=3, rows_written=1).as_dict()
        assert data["words_written"] == 3
        assert data["rows_written"] == 1
        assert "total_energy_pj" in data
