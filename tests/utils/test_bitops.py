"""Tests for repro.utils.bitops."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.utils import bitops


class TestHammingWeight:
    def test_zero(self):
        assert bitops.hamming_weight(0) == 0

    def test_all_ones_64(self):
        assert bitops.hamming_weight((1 << 64) - 1) == 64

    def test_single_bits(self):
        for shift in range(64):
            assert bitops.hamming_weight(1 << shift) == 1

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.hamming_weight(-1)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_matches_bin_count(self, value):
        assert bitops.hamming_weight(value) == bin(value).count("1")


class TestHammingDistance:
    def test_identical(self):
        assert bitops.hamming_distance(0xDEADBEEF, 0xDEADBEEF) == 0

    def test_complement(self):
        value = 0x0F0F0F0F
        assert bitops.hamming_distance(value, value ^ 0xFFFFFFFF) == 32

    @given(
        st.integers(min_value=0, max_value=(1 << 64) - 1),
        st.integers(min_value=0, max_value=(1 << 64) - 1),
    )
    def test_symmetry(self, a, b):
        assert bitops.hamming_distance(a, b) == bitops.hamming_distance(b, a)


class TestPopcountArray:
    def test_matches_python_popcount(self, rng):
        words = rng.integers(0, 1 << 63, size=100, dtype=np.uint64)
        counts = bitops.popcount64_array(words)
        expected = [bin(int(w)).count("1") for w in words]
        assert counts.tolist() == expected

    def test_shape_preserved(self, rng):
        words = rng.integers(0, 1 << 63, size=(4, 5), dtype=np.uint64)
        assert bitops.popcount64_array(words).shape == (4, 5)

    def test_all_ones(self):
        words = np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert bitops.popcount64_array(words)[0] == 64


class TestBitsConversion:
    def test_int_to_bits_msb_first(self):
        assert bitops.int_to_bits(0b1010, 4) == [1, 0, 1, 0]

    def test_bits_to_int_roundtrip(self):
        assert bitops.bits_to_int(bitops.int_to_bits(0xABCD, 16)) == 0xABCD

    def test_value_too_large(self):
        with pytest.raises(ConfigurationError):
            bitops.int_to_bits(16, 4)

    def test_invalid_bit(self):
        with pytest.raises(ConfigurationError):
            bitops.bits_to_int([0, 2, 1])

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_roundtrip_property(self, value):
        assert bitops.bits_to_int(bitops.int_to_bits(value, 32)) == value


class TestSubblocks:
    def test_split_msb_first(self):
        value = 0xAABBCCDD
        assert bitops.split_subblocks(value, 32, 8) == [0xAA, 0xBB, 0xCC, 0xDD]

    def test_concat_inverse(self):
        subs = [0x12, 0x34, 0x56, 0x78]
        assert bitops.split_subblocks(bitops.concat_subblocks(subs, 8), 32, 8) == subs

    def test_indivisible_width_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.split_subblocks(0, 64, 12)

    def test_oversized_value_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.split_subblocks(1 << 32, 32, 8)

    def test_oversized_subblock_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.concat_subblocks([256], 8)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip_property_16(self, value):
        subs = bitops.split_subblocks(value, 64, 16)
        assert bitops.concat_subblocks(subs, 16) == value


class TestSymbols:
    def test_split_symbols(self):
        assert bitops.split_symbols(0b11100100, 8) == [3, 2, 1, 0]

    def test_merge_symbols(self):
        assert bitops.merge_symbols([3, 2, 1, 0]) == 0b11100100

    def test_odd_width_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.split_symbols(0, 7)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip_property(self, value):
        assert bitops.merge_symbols(bitops.split_symbols(value, 64)) == value


class TestPlanes:
    def test_split_planes_simple(self):
        # symbols: 11, 00, 10, 01 -> left plane 1001, right plane 1001... check
        word = 0b11001001
        left, right = bitops.split_planes(word, 8)
        assert left == 0b1010
        assert right == 0b1001

    def test_interleave_inverse(self):
        word = 0xDEADBEEF
        left, right = bitops.split_planes(word, 32)
        assert bitops.interleave_planes(left, right, 32) == word

    def test_plane_too_wide_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.interleave_planes(1 << 16, 0, 32)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_roundtrip_property(self, value):
        left, right = bitops.split_planes(value, 64)
        assert bitops.interleave_planes(left, right, 64) == value

    @given(st.integers(min_value=0, max_value=(1 << 32) - 1))
    def test_spread_even_bits_places_a_right_plane(self, right):
        spread = bitops.spread_even_bits(np.array([right], dtype=np.uint64))
        assert int(spread[0]) == bitops.interleave_planes(0, right, 64)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_left_plane_is_msb_of_each_symbol(self, value):
        left, _right = bitops.split_planes(value, 64)
        symbols = bitops.split_symbols(value, 64)
        expected = 0
        for symbol in symbols:
            expected = (expected << 1) | (symbol >> 1)
        assert left == expected


class TestRandomWord:
    def test_width_respected(self, rng):
        for width in (1, 8, 16, 32, 64, 128):
            value = bitops.random_word(rng, width)
            assert 0 <= value < (1 << width)

    def test_invalid_width(self, rng):
        with pytest.raises(ConfigurationError):
            bitops.random_word(rng, 0)

    def test_deterministic_given_seed(self):
        a = bitops.random_word(np.random.default_rng(7), 64)
        b = bitops.random_word(np.random.default_rng(7), 64)
        assert a == b


class TestMask:
    def test_values(self):
        assert bitops.mask(0) == 0
        assert bitops.mask(1) == 1
        assert bitops.mask(16) == 0xFFFF

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            bitops.mask(-1)
