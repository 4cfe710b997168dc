"""End-to-end integration tests across the whole stack.

These tests exercise the complete pipeline the paper describes — workload
trace -> counter-mode encryption -> coset encoding -> PCM array with faults
and wear -> decode -> decrypt — and check the system-level invariants that
individual unit tests cannot see.
"""

import numpy as np
import pytest

from repro.coding.cost import energy_then_saw, saw_then_energy
from repro.coding.registry import make_encoder
from repro.memctrl.config import ControllerConfig
from repro.memctrl.controller import MemoryController
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap
from repro.sim.harness import TechniqueSpec, build_controller
from repro.traces.synthetic import generate_trace


class TestFullPipelineRoundTrip:
    @pytest.mark.parametrize("encoder_name", ["unencoded", "dbi/fnw", "flipcy", "rcc", "vcc", "vcc-stored"])
    def test_trace_written_and_read_back(self, encoder_name):
        rows = 32
        trace = generate_trace("mcf", 40, memory_lines=rows, seed=1)
        controller = build_controller(
            TechniqueSpec(encoder=encoder_name, cost="energy-then-saw", num_cosets=64),
            rows=rows,
            seed=1,
        )
        last_written = {}
        for record in trace:
            controller.write_line(record.address, list(record.words))
            last_written[record.address] = list(record.words)
        # Without faults, every line must read back exactly (after decode +
        # decrypt), regardless of the technique.
        for address, words in last_written.items():
            assert controller.read_line(address) == words

    def test_faulty_memory_corrupts_unprotected_reads_but_vcc_heals_most(self):
        rows = 32
        fault_map = FaultMap(rows=rows, cells_per_row=256, fault_rate=5e-3, seed=3)
        trace = generate_trace("lbm", 60, memory_lines=rows, seed=3)

        def corrupted_words(encoder_name):
            controller = build_controller(
                TechniqueSpec(encoder=encoder_name, cost="saw-then-energy", num_cosets=256),
                rows=rows,
                fault_map=fault_map,
                seed=3,
            )
            last_written = {}
            for record in trace:
                controller.write_line(record.address, list(record.words))
                last_written[record.address] = list(record.words)
            wrong = 0
            for address, words in last_written.items():
                read_back = controller.read_line(address)
                wrong += sum(1 for a, b in zip(read_back, words) if a != b)
            return wrong

        unprotected = corrupted_words("unencoded")
        vcc = corrupted_words("vcc-stored")
        assert unprotected > 0
        assert vcc < unprotected * 0.3


class TestEncryptionInteraction:
    def test_encrypted_data_is_unbiased_even_for_biased_workloads(self):
        rows = 32
        trace = generate_trace("deepsjeng", 50, memory_lines=rows, seed=5)
        encoder = make_encoder("unencoded")
        array = PCMArray(rows=rows, row_bits=512, seed=5)
        controller = MemoryController(array=array, encoder=encoder, config=ControllerConfig())
        ones = 0
        total = 0
        for record in trace:
            encrypted = controller.encryption.encrypt_line(record.address, list(record.words))
            for word in encrypted.words:
                ones += bin(word).count("1")
                total += 64
        assert 0.47 < ones / total < 0.53

    def test_plaintext_of_same_workload_is_biased(self):
        trace = generate_trace("deepsjeng", 50, memory_lines=32, seed=5)
        ones = sum(bin(w).count("1") for record in trace for w in record.words)
        total = sum(64 for record in trace for _ in record.words)
        assert ones / total < 0.42


class TestCostFunctionConsistency:
    def test_opt_energy_and_opt_saw_agree_on_energy_scale(self):
        # Section VI-B: switching the lexicographic order barely changes the
        # achieved energy saving.
        rows = 24
        fault_map = FaultMap(rows=rows, cells_per_row=256, fault_rate=1e-2, seed=7)
        trace = generate_trace("fotonik3d", 40, memory_lines=rows, seed=7)
        energies = {}
        for label, cost in (("energy-first", "energy-then-saw"), ("saw-first", "saw-then-energy")):
            controller = build_controller(
                TechniqueSpec(encoder="vcc", cost=cost, num_cosets=256),
                rows=rows,
                fault_map=fault_map,
                seed=7,
            )
            controller.replay_trace(trace)
            energies[label] = controller.stats.total_energy_pj
        ratio = energies["saw-first"] / energies["energy-first"]
        assert 0.9 < ratio < 1.35

    def test_saw_first_never_masks_fewer_faults(self):
        rows = 24
        fault_map = FaultMap(rows=rows, cells_per_row=256, fault_rate=1e-2, seed=8)
        trace = generate_trace("bwaves", 40, memory_lines=rows, seed=8)
        saw = {}
        for label, cost in (("energy-first", "energy-then-saw"), ("saw-first", "saw-then-energy")):
            controller = build_controller(
                TechniqueSpec(encoder="vcc-stored", cost=cost, num_cosets=256),
                rows=rows,
                fault_map=fault_map,
                seed=8,
            )
            controller.replay_trace(trace)
            saw[label] = controller.stats.saw_cells
        assert saw["saw-first"] <= saw["energy-first"]
