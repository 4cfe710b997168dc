"""Tests for the VCC encoder (Algorithm 1)."""

import numpy as np
import pytest

from repro.coding.base import WordContext
from repro.coding.cost import BitChangeCost, EnergyCost, OnesCost, SawCost, saw_then_energy
from repro.coding.rcc import RCCEncoder
from repro.coding.unencoded import UnencodedEncoder
from repro.core.config import EncodeRegion, VCCConfig
from repro.core.kernels import KernelProvider, StoredKernelProvider
from repro.core.vcc import VCCEncoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import MLCEnergyModel
from repro.utils.bitops import split_planes


def _context(old_word, stuck=None, old_aux=0):
    return WordContext.from_word(old_word, 64, 2, stuck_mask=stuck, old_aux=old_aux)


def _random_word(rng):
    return int(rng.integers(0, 1 << 32)) << 32 | int(rng.integers(0, 1 << 32))


class _DataKernels(KernelProvider):
    """Third-party kernels read from the word itself, not a stored ROM."""

    def kernels_for(self, word):
        mask = (1 << self.kernel_bits) - 1
        return [(word >> index) & mask for index in range(self.num_kernels)]


class TestRoundTrip:
    @pytest.mark.parametrize("stored", [True, False])
    @pytest.mark.parametrize("num_cosets", [32, 64, 256])
    def test_encode_decode_identity(self, rng, stored, num_cosets):
        encoder = VCCEncoder(
            VCCConfig.for_cosets(num_cosets, stored_kernels=stored),
            cost_function=BitChangeCost(),
            seed=1,
        )
        for _ in range(15):
            data = _random_word(rng)
            context = _context(_random_word(rng))
            encoded = encoder.encode(data, context)
            assert encoder.decode(encoded.codeword, encoded.aux) == data

    def test_roundtrip_word32(self, rng):
        encoder = VCCEncoder(VCCConfig.for_cosets(64, word_bits=32), seed=2)
        for _ in range(10):
            data = int(rng.integers(0, 1 << 32))
            context = WordContext.from_word(int(rng.integers(0, 1 << 32)), 32, 2)
            encoded = encoder.encode(data, context)
            assert encoder.decode(encoded.codeword, encoded.aux) == data

    def test_roundtrip_with_all_cost_functions(self, rng):
        for cost in (OnesCost(), BitChangeCost(), EnergyCost(CellTechnology.MLC), SawCost(), saw_then_energy()):
            encoder = VCCEncoder(VCCConfig.for_cosets(64), cost_function=cost, seed=3)
            data = _random_word(rng)
            context = _context(_random_word(rng))
            encoded = encoder.encode(data, context)
            assert encoder.decode(encoded.codeword, encoded.aux) == data


class TestStructure:
    def test_aux_bits_match_config(self):
        encoder = VCCEncoder(VCCConfig.for_cosets(256))
        assert encoder.aux_bits == 8
        assert encoder.num_cosets == 256

    def test_generated_kernels_leave_left_plane_unchanged(self, rng):
        encoder = VCCEncoder(VCCConfig.for_cosets(256, stored_kernels=False), seed=4)
        for _ in range(10):
            data = _random_word(rng)
            encoded = encoder.encode(data, _context(_random_word(rng)))
            data_left, _ = split_planes(data, 64)
            code_left, _ = split_planes(encoded.codeword, 64)
            assert data_left == code_left

    def test_stored_kernel_name(self):
        assert VCCEncoder(VCCConfig.for_cosets(64, stored_kernels=True)).name == "vcc-stored"
        assert VCCEncoder(VCCConfig.for_cosets(64, stored_kernels=False)).name == "vcc"

    def test_aux_encodes_kernel_and_flags(self, rng):
        config = VCCConfig.for_cosets(64, stored_kernels=True)
        encoder = VCCEncoder(config, cost_function=BitChangeCost(), seed=5)
        encoded = encoder.encode(_random_word(rng), _context(_random_word(rng)))
        kernel_index = encoded.aux >> config.partitions
        assert 0 <= kernel_index < config.num_kernels

    def test_provider_mismatch_rejected(self):
        config = VCCConfig.for_cosets(64, stored_kernels=True)
        providers = [
            StoredKernelProvider(8, config.num_kernels, seed=0),  # wrong width
            # Data-dependent kernels over the full word: decode could not
            # regenerate them from the codeword.
            _DataKernels(config.kernel_bits, config.num_kernels),
        ]
        for provider in providers:
            with pytest.raises(ConfigurationError):
                VCCEncoder(config, kernel_provider=provider)

    def test_decode_rejects_bad_aux(self):
        encoder = VCCEncoder(VCCConfig.for_cosets(64))
        with pytest.raises(ConfigurationError):
            encoder.decode(0, 1 << encoder.aux_bits)


class TestOptimisation:
    def test_beats_unencoded_on_bit_changes(self, rng):
        cost = BitChangeCost()
        vcc = VCCEncoder(VCCConfig.for_cosets(256, stored_kernels=True), cost_function=cost, seed=6)
        unencoded = UnencodedEncoder(cost_function=cost)
        vcc_total = 0.0
        plain_total = 0.0
        for _ in range(30):
            data = _random_word(rng)
            context = _context(_random_word(rng))
            vcc_total += vcc.encode(data, context).cost
            plain_total += unencoded.encode(data, context).cost
        assert vcc_total < plain_total

    def test_reduces_mlc_write_energy(self, rng):
        model = MLCEnergyModel()
        cost = EnergyCost(CellTechnology.MLC, mlc_model=model)
        vcc = VCCEncoder(VCCConfig.for_cosets(256), cost_function=cost, seed=7)
        vcc_energy = 0.0
        plain_energy = 0.0
        for _ in range(30):
            data = _random_word(rng)
            old = _random_word(rng)
            context = _context(old)
            encoded = vcc.encode(data, context)
            vcc_energy += model.word_energy(old, encoded.codeword)
            plain_energy += model.word_energy(old, data)
        # The paper reports 22-28% dynamic-energy savings; require a clear win.
        assert vcc_energy < plain_energy * 0.85

    def test_more_cosets_do_not_hurt(self, rng):
        cost = BitChangeCost()
        small = VCCEncoder(VCCConfig.for_cosets(32, stored_kernels=True), cost_function=cost, seed=8)
        large = VCCEncoder(VCCConfig.for_cosets(256, stored_kernels=True), cost_function=cost, seed=8)
        small_total = 0.0
        large_total = 0.0
        for _ in range(40):
            data = _random_word(rng)
            context = _context(_random_word(rng))
            small_total += small.encode(data, context).cost
            large_total += large.encode(data, context).cost
        assert large_total <= small_total

    def test_close_to_rcc_on_energy(self, rng):
        # Fig. 7: VCC approaches RCC's energy savings at equal coset count.
        model = MLCEnergyModel()
        cost = EnergyCost(CellTechnology.MLC, mlc_model=model)
        vcc = VCCEncoder(VCCConfig.for_cosets(256, stored_kernels=True), cost_function=cost, seed=9)
        rcc = RCCEncoder(num_cosets=256, cost_function=cost, seed=9)
        vcc_energy = 0.0
        rcc_energy = 0.0
        for _ in range(25):
            data = _random_word(rng)
            old = _random_word(rng)
            context = _context(old)
            vcc_energy += model.word_energy(old, vcc.encode(data, context).codeword)
            rcc_energy += model.word_energy(old, rcc.encode(data, context).codeword)
        assert vcc_energy <= rcc_energy * 1.15

    def test_saw_masking_with_stored_kernels(self, rng):
        cost = saw_then_energy()
        encoder = VCCEncoder(VCCConfig.for_cosets(256, stored_kernels=True), cost_function=cost, seed=10)
        saw_cost = SawCost()
        masked = 0
        trials = 25
        for _ in range(trials):
            old = _random_word(rng)
            stuck = np.zeros(32, dtype=bool)
            stuck[int(rng.integers(0, 32))] = True
            context = _context(old, stuck=stuck)
            encoded = encoder.encode(_random_word(rng), context)
            from repro.pcm.array import word_to_cells

            residual = saw_cost.cell_costs(word_to_cells(encoded.codeword, 64, 2), context).sum()
            if residual == 0:
                masked += 1
        assert masked >= trials * 0.9

    def test_right_plane_variant_cannot_fix_left_digit(self, rng):
        # Structural property discussed in DESIGN.md: the generated-kernel
        # variant never changes the left digit, so a fault whose stuck left
        # digit differs from the data cannot be masked.
        encoder = VCCEncoder(VCCConfig.for_cosets(256, stored_kernels=False), cost_function=saw_then_energy())
        data = 0  # all symbols 00 -> left digits all 0
        old = 0xFFFFFFFFFFFFFFFF  # all symbols 11 -> stuck left digit 1
        stuck = np.zeros(32, dtype=bool)
        stuck[5] = True
        context = _context(old, stuck=stuck)
        encoded = encoder.encode(data, context)
        from repro.pcm.array import word_to_cells

        residual = SawCost().cell_costs(word_to_cells(encoded.codeword, 64, 2), context).sum()
        assert residual == 1


class TestWorkedExampleInternals:
    def test_explicit_kernels_are_used(self):
        config = VCCConfig(
            word_bits=64,
            kernel_bits=16,
            num_kernels=4,
            encode_region=EncodeRegion.FULL_WORD,
            stored_kernels=True,
        )
        provider = StoredKernelProvider(16, 4, kernels=[1, 2, 3, 4])
        encoder = VCCEncoder(config, cost_function=OnesCost(), kernel_provider=provider)
        assert encoder.kernel_provider.kernels_for(0) == [1, 2, 3, 4]
