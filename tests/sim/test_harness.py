"""Tests for the shared simulation harness."""

import pytest

from repro.coding.cost import BitChangeCost, EnergyCost, LexicographicCost, OnesCost, SawCost
from repro.errors import ConfigurationError, SimulationError
from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap
from repro.pcm.stats import WriteStats
from repro.sim.harness import (
    TechniqueSpec,
    build_controller,
    drive_random_lines,
    drive_random_lines_scalar,
    make_cost,
    make_read_corrector,
)


class TestMakeCost:
    @pytest.mark.parametrize(
        "name,expected_type",
        [
            ("bit-changes", BitChangeCost),
            ("ones", OnesCost),
            ("energy", EnergyCost),
            ("saw", SawCost),
            ("energy-then-saw", LexicographicCost),
            ("saw-then-energy", LexicographicCost),
        ],
    )
    def test_names_map_to_types(self, name, expected_type):
        assert isinstance(make_cost(name), expected_type)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            make_cost("maximise-entropy")

    def test_unknown_name_error_lists_valid_names(self):
        """The error names every accepted spelling, so typos self-diagnose."""
        with pytest.raises(ConfigurationError) as excinfo:
            make_cost("engery")
        message = str(excinfo.value)
        assert "engery" in message
        for name in (
            "bit-changes",
            "cell-changes",
            "ones",
            "energy",
            "saw",
            "energy-then-saw",
            "saw-then-energy",
        ):
            assert name in message

    def test_names_case_insensitive(self):
        assert make_cost("Energy").name == make_cost("energy").name

    def test_lexicographic_ordering(self):
        assert make_cost("saw-then-energy").name == "saw>energy"
        assert make_cost("energy-then-saw").name == "energy>saw"


class TestTechniqueSpec:
    def test_display_name_defaults_to_encoder(self):
        assert TechniqueSpec(encoder="rcc").display_name() == "rcc"

    def test_display_name_uses_label(self):
        assert TechniqueSpec(encoder="rcc", label="RCC Opt. SAW").display_name() == "RCC Opt. SAW"

    def test_unknown_cost_rejected_at_construction(self):
        """A misspelt cost fails when the spec is built, not mid-simulation."""
        with pytest.raises(ConfigurationError, match="energy-then-saw"):
            TechniqueSpec(encoder="rcc", cost="engery")

    @pytest.mark.parametrize("bad_count", [0, -1, -256])
    def test_non_positive_coset_counts_rejected(self, bad_count):
        with pytest.raises(ConfigurationError):
            TechniqueSpec(encoder="rcc", num_cosets=bad_count)

    @pytest.mark.parametrize("bad_count", [2.5, "256", None, True])
    def test_non_integer_coset_counts_rejected(self, bad_count):
        with pytest.raises(ConfigurationError):
            TechniqueSpec(encoder="rcc", num_cosets=bad_count)

    def test_numpy_integer_coset_count_normalised(self):
        import numpy as np

        spec = TechniqueSpec(encoder="rcc", num_cosets=np.int64(32))
        assert spec.num_cosets == 32
        assert type(spec.num_cosets) is int

    @pytest.mark.parametrize("bad", ["secdd", "ecpx", "ecp-1", "raid", ""])
    def test_unknown_corrector_rejected_at_construction(self, bad):
        """A misspelt corrector fails when the spec is built, not at the
        first stuck-at-wrong write of a simulation (or never)."""
        with pytest.raises(ConfigurationError, match="ecpN"):
            TechniqueSpec(encoder="unencoded", corrector=bad)

    @pytest.mark.parametrize("name", [None, "secded", "SECDED", "ecp", "ecp3", "ECP6", "ecp0"])
    def test_known_correctors_accepted(self, name):
        assert TechniqueSpec(encoder="unencoded", corrector=name).corrector == name


class TestMakeReadCorrector:
    def test_ecp_entries_parsed(self):
        from repro.ecc import ECP

        assert make_read_corrector("ecp").entries_per_row == 3
        corrector = make_read_corrector("ECP5", line_bits=256)
        assert isinstance(corrector, ECP)
        assert (corrector.entries_per_row, corrector.row_bits) == (5, 256)

    @pytest.mark.parametrize("bad", ["ecpx", "ecp-2", "ecp3.5", "ecp 3"])
    def test_malformed_ecp_is_a_configuration_error(self, bad):
        """Not the bare ValueError of ``int("x")``."""
        with pytest.raises(ConfigurationError, match=repr(bad)):
            make_read_corrector(bad)

    def test_none_means_no_corrector(self):
        assert make_read_corrector(None) is None


class TestBuildController:
    def test_builds_requested_encoder(self):
        controller = build_controller(
            TechniqueSpec(encoder="rcc", num_cosets=32), rows=8, seed=1
        )
        assert controller.encoder.name == "rcc"
        assert controller.array.rows == 8

    def test_fault_map_attached(self):
        fault_map = FaultMap(rows=8, cells_per_row=256, fault_rate=0.05, seed=2)
        controller = build_controller(
            TechniqueSpec(encoder="unencoded"), rows=8, fault_map=fault_map, seed=2
        )
        assert controller.array.stuck_cell_count() == fault_map.total_faults

    def test_encryption_flag(self):
        encrypted = build_controller(TechniqueSpec(encoder="unencoded"), rows=4, encrypt=True)
        plain = build_controller(TechniqueSpec(encoder="unencoded"), rows=4, encrypt=False)
        assert encrypted.encryption is not None
        assert plain.encryption is None


class TestDrivers:
    def test_drive_random_lines_accumulates(self):
        controller = build_controller(TechniqueSpec(encoder="unencoded"), rows=8, seed=3)
        drive_random_lines(controller, 10, seed=3)
        assert controller.stats.rows_written == 10

    def test_drive_random_lines_returns_stats(self):
        controller = build_controller(TechniqueSpec(encoder="unencoded"), rows=8, seed=3)
        stats = drive_random_lines(controller, 10, seed=3)
        assert isinstance(stats, WriteStats)
        assert stats.rows_written == 10
        assert stats.words_written == 10 * controller.config.words_per_line
        assert stats.total_energy_pj > 0.0

    def test_drive_random_lines_returns_per_call_stats(self):
        # Phased drives on one controller must not alias a live object.
        controller = build_controller(TechniqueSpec(encoder="unencoded"), rows=8, seed=3)
        first = drive_random_lines(controller, 10, seed=3)
        second = drive_random_lines(controller, 5, seed=4)
        assert first is not controller.stats
        assert first.rows_written == 10
        assert second.rows_written == 5
        assert controller.stats.rows_written == 15

    def test_drive_random_lines_negative_rejected(self):
        controller = build_controller(TechniqueSpec(encoder="unencoded"), rows=8)
        with pytest.raises(SimulationError):
            drive_random_lines(controller, -1)
        with pytest.raises(SimulationError):
            drive_random_lines_scalar(controller, -1)

    def test_drive_random_lines_matches_scalar_oracle(self):
        # The batched driver consumes the same seeded stream as the scalar
        # loop; every counter, the fJ energy totals included, agrees exactly.
        batched = drive_random_lines(
            build_controller(TechniqueSpec(encoder="rcc", num_cosets=16), rows=8, seed=3),
            25,
            seed=3,
        )
        scalar = drive_random_lines_scalar(
            build_controller(TechniqueSpec(encoder="rcc", num_cosets=16), rows=8, seed=3),
            25,
            seed=3,
        )
        assert batched == scalar
