"""Tests for the baseline encoders (unencoded, DBI, FNW, Flipcy, BCC, RCC)."""

import numpy as np
import pytest

from repro.coding.base import WordContext
from repro.coding.bcc import BCCEncoder
from repro.coding.cost import BitChangeCost, EnergyCost, OnesCost, SawCost
from repro.coding.dbi import DBIEncoder
from repro.coding.flipcy import FlipcyEncoder
from repro.coding.fnw import FNWEncoder
from repro.coding.rcc import RCCEncoder
from repro.coding.registry import make_encoder
from repro.coding.unencoded import UnencodedEncoder
from repro.errors import ConfigurationError, EncodingError
from repro.pcm.cell import CellTechnology


def _mlc_context(old_word=0, stuck=None, old_aux=0):
    return WordContext.from_word(old_word, 64, 2, stuck_mask=stuck, old_aux=old_aux)


class TestUnencoded:
    def test_identity(self, word64, mlc_context):
        encoder = UnencodedEncoder()
        encoded = encoder.encode(word64, mlc_context)
        assert encoded.codeword == word64
        assert encoded.aux_bits == 0
        assert encoder.decode(encoded.codeword, 0) == word64

    def test_cost_reported(self):
        encoder = UnencodedEncoder(cost_function=BitChangeCost())
        context = _mlc_context(old_word=0)
        encoded = encoder.encode(0xFFFF, context)
        assert encoded.cost == 16

    def test_rejects_oversized_word(self, mlc_context):
        encoder = UnencodedEncoder()
        with pytest.raises(EncodingError):
            encoder.encode(1 << 64, mlc_context)

    def test_rejects_wrong_context(self, word64):
        encoder = UnencodedEncoder()
        with pytest.raises(EncodingError):
            encoder.encode(word64, WordContext.blank(32, 2))


class TestDBI:
    def test_keeps_data_when_cheap(self):
        encoder = DBIEncoder(cost_function=BitChangeCost())
        context = _mlc_context(old_word=0x0F)
        encoded = encoder.encode(0x0F, context)
        assert encoded.codeword == 0x0F
        assert encoded.aux == 0

    def test_inverts_when_cheaper(self):
        encoder = DBIEncoder(cost_function=BitChangeCost())
        data = 0x0123456789ABCDEF
        context = _mlc_context(old_word=data ^ ((1 << 64) - 1))
        encoded = encoder.encode(data, context)
        assert encoded.aux == 1
        assert encoded.codeword == data ^ ((1 << 64) - 1)

    def test_decode_roundtrip(self, rng):
        encoder = DBIEncoder()
        for _ in range(20):
            data = int(rng.integers(0, 1 << 63))
            context = _mlc_context(int(rng.integers(0, 1 << 63)))
            encoded = encoder.encode(data, context)
            assert encoder.decode(encoded.codeword, encoded.aux) == data

    def test_single_aux_bit(self):
        assert DBIEncoder().aux_bits == 1


class TestFNW:
    def test_aux_bits_equal_partitions(self):
        assert FNWEncoder(partitions=4).aux_bits == 4

    def test_never_worse_than_unencoded(self, rng):
        fnw = FNWEncoder(partitions=4, cost_function=BitChangeCost())
        plain = UnencodedEncoder(cost_function=BitChangeCost())
        for _ in range(25):
            data = int(rng.integers(0, 1 << 63))
            old = int(rng.integers(0, 1 << 63))
            context = _mlc_context(old)
            # Compare data-cell cost only (FNW additionally pays aux bits).
            fnw_word = fnw.encode(data, context)
            plain_word = plain.encode(data, context)
            data_cost = fnw_word.cost - fnw.cost_function.aux_cost(
                fnw_word.aux, context.old_aux, fnw.aux_bits
            )
            assert data_cost <= plain_word.cost

    def test_decode_roundtrip(self, rng):
        encoder = FNWEncoder(partitions=8)
        for _ in range(25):
            data = int(rng.integers(0, 1 << 63))
            context = _mlc_context(int(rng.integers(0, 1 << 63)))
            encoded = encoder.encode(data, context)
            assert encoder.decode(encoded.codeword, encoded.aux) == data

    def test_per_partition_inversion(self):
        encoder = FNWEncoder(partitions=4, cost_function=BitChangeCost())
        # Old contents: first 16-bit block all ones, rest zeros.
        old = 0xFFFF << 48
        encoded = encoder.encode(0, _mlc_context(old))
        # The first partition should be inverted (writes 0xFFFF to match old).
        assert (encoded.aux >> 3) & 1 == 1
        assert encoded.codeword >> 48 == 0xFFFF

    def test_invalid_partition_count(self):
        with pytest.raises(ConfigurationError):
            FNWEncoder(partitions=5)

    def test_64_partitions_rejected(self):
        # One flag per partition: 64 flags would not fit the int64 aux field.
        with pytest.raises(ConfigurationError, match="partitions"):
            FNWEncoder(64, 64, CellTechnology.SLC, BitChangeCost())

    def test_decode_rejects_bad_aux(self):
        encoder = FNWEncoder(partitions=2)
        with pytest.raises(ConfigurationError):
            encoder.decode(0, 4)


class TestFlipcy:
    def test_roundtrip_all_forms(self):
        encoder = FlipcyEncoder()
        mask = (1 << 64) - 1
        data = 0x0123456789ABCDEF
        for aux, transform in [(0, data), (1, data ^ mask), (2, (-data) & mask)]:
            assert encoder.decode(transform, aux) == data

    def test_selects_identity_when_old_matches(self):
        encoder = FlipcyEncoder(cost_function=BitChangeCost())
        data = 0xAAAA5555AAAA5555
        encoded = encoder.encode(data, _mlc_context(data))
        assert encoded.aux == 0
        assert encoded.codeword == data

    def test_selects_complement_when_old_is_inverted(self):
        encoder = FlipcyEncoder(cost_function=BitChangeCost())
        data = 0x00000000FFFFFFFF
        encoded = encoder.encode(data, _mlc_context(data ^ ((1 << 64) - 1)))
        assert encoded.aux == 1

    def test_two_aux_bits(self):
        assert FlipcyEncoder().aux_bits == 2

    def test_decode_rejects_bad_aux(self):
        with pytest.raises(ConfigurationError):
            FlipcyEncoder().decode(0, 3)

    def test_encode_decode_random(self, rng):
        encoder = FlipcyEncoder()
        for _ in range(25):
            data = int(rng.integers(0, 1 << 63))
            encoded = encoder.encode(data, _mlc_context(int(rng.integers(0, 1 << 63))))
            assert encoder.decode(encoded.codeword, encoded.aux) == data


class TestBCC:
    def test_partitions_follow_log2(self):
        assert BCCEncoder(num_cosets=16).partitions == 4
        assert BCCEncoder(num_cosets=256).partitions == 8

    def test_infeasible_count_falls_back(self):
        # log2(64) = 6 does not divide 64; the encoder falls back to fewer
        # sections rather than refusing.
        encoder = BCCEncoder(num_cosets=64)
        assert 64 % encoder.partitions == 0

    def test_roundtrip(self, rng):
        encoder = BCCEncoder(num_cosets=16)
        for _ in range(20):
            data = int(rng.integers(0, 1 << 63))
            encoded = encoder.encode(data, _mlc_context(int(rng.integers(0, 1 << 63))))
            assert encoder.decode(encoded.codeword, encoded.aux) == data

    def test_rejects_single_coset(self):
        with pytest.raises(ConfigurationError):
            BCCEncoder(num_cosets=1)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            BCCEncoder(num_cosets=24)


class TestRCC:
    def test_aux_bits(self):
        assert RCCEncoder(num_cosets=256).aux_bits == 8
        assert RCCEncoder(num_cosets=32).aux_bits == 5

    def test_coset_zero_is_identity(self):
        encoder = RCCEncoder(num_cosets=16)
        assert encoder.cosets[0] == 0

    def test_cosets_distinct(self):
        encoder = RCCEncoder(num_cosets=128)
        assert len(set(encoder.cosets)) == 128

    def test_more_cosets_than_words_rejected(self):
        # Every 2-bit word is a coset; an eighth distinct one cannot exist.
        assert sorted(RCCEncoder(word_bits=2, num_cosets=4).cosets) == [0, 1, 2, 3]
        with pytest.raises(ConfigurationError, match="8 distinct cosets of 2 bits"):
            RCCEncoder(word_bits=2, num_cosets=8)
        with pytest.raises(ConfigurationError, match="32 distinct cosets of 4 bits"):
            make_encoder("rcc", word_bits=4, num_cosets=32)

    def test_roundtrip(self, rng):
        encoder = RCCEncoder(num_cosets=64)
        for _ in range(20):
            data = int(rng.integers(0, 1 << 63))
            encoded = encoder.encode(data, _mlc_context(int(rng.integers(0, 1 << 63))))
            assert encoder.decode(encoded.codeword, encoded.aux) == data

    def test_never_worse_than_unencoded_on_data_cells(self, rng):
        cost = BitChangeCost()
        rcc = RCCEncoder(num_cosets=64, cost_function=cost)
        for _ in range(10):
            data = int(rng.integers(0, 1 << 63))
            old = int(rng.integers(0, 1 << 63))
            context = _mlc_context(old)
            encoded = rcc.encode(data, context)
            data_cost = encoded.cost - cost.aux_cost(encoded.aux, 0, rcc.aux_bits)
            assert data_cost <= bin(data ^ old).count("1")

    def test_more_cosets_never_hurt(self, rng):
        cost = BitChangeCost()
        small = RCCEncoder(num_cosets=8, cost_function=cost, seed=3)
        large = RCCEncoder(num_cosets=128, cost_function=cost, seed=3)
        # The large ROM is a superset only in expectation; compare averages.
        small_total = 0.0
        large_total = 0.0
        for _ in range(40):
            data = int(rng.integers(0, 1 << 63))
            context = _mlc_context(int(rng.integers(0, 1 << 63)))
            small_total += small.encode(data, context).cost
            large_total += large.encode(data, context).cost
        assert large_total <= small_total

    def test_deterministic_rom(self):
        a = RCCEncoder(num_cosets=32, seed=11)
        b = RCCEncoder(num_cosets=32, seed=11)
        assert a.cosets == b.cosets

    def test_decode_rejects_bad_index(self):
        encoder = RCCEncoder(num_cosets=16)
        with pytest.raises(ConfigurationError):
            encoder.decode(0, 16)

    def test_saw_cost_masks_faults(self, rng):
        # With enough cosets and SAW cost, single faults should be masked.
        encoder = RCCEncoder(num_cosets=256, cost_function=SawCost())
        masked = 0
        trials = 20
        for _ in range(trials):
            old_word = int(rng.integers(0, 1 << 63))
            stuck = np.zeros(32, dtype=bool)
            stuck[int(rng.integers(0, 32))] = True
            context = WordContext.from_word(old_word, 64, 2, stuck_mask=stuck)
            data = int(rng.integers(0, 1 << 63))
            encoded = encoder.encode(data, context)
            # Cost (SAW count) should be zero when the fault is masked.
            if encoded.cost == 0:
                masked += 1
        assert masked >= trials * 0.9
