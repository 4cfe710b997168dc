"""Tests for the counter-mode encryption engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.counter_mode import CounterModeEngine, EncryptedLine
from repro.errors import ConfigurationError


def _line(seed: int = 0, words: int = 8, bits: int = 64):
    rng = np.random.default_rng(seed)
    return [int(rng.integers(0, 1 << 32)) << 32 | int(rng.integers(0, 1 << 32)) for _ in range(words)]


class TestRoundTrip:
    def test_encrypt_decrypt_identity(self):
        engine = CounterModeEngine(key=b"k")
        plaintext = _line(1)
        encrypted = engine.encrypt_line(0x10, plaintext)
        assert engine.decrypt_line(encrypted) == plaintext

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 40), st.integers(min_value=0, max_value=100))
    def test_roundtrip_property(self, address, seed):
        engine = CounterModeEngine(key=b"prop")
        plaintext = _line(seed)
        encrypted = engine.encrypt_line(address, plaintext)
        assert engine.decrypt_line(encrypted) == plaintext


class TestCounters:
    def test_counter_increments_per_write(self):
        engine = CounterModeEngine()
        assert engine.counter_for(5) == 0
        engine.encrypt_line(5, _line())
        assert engine.counter_for(5) == 1
        engine.encrypt_line(5, _line())
        assert engine.counter_for(5) == 2

    def test_counters_per_address(self):
        engine = CounterModeEngine()
        engine.encrypt_line(1, _line())
        engine.encrypt_line(2, _line())
        assert engine.counter_for(1) == 1
        assert engine.counter_for(2) == 1

    def test_reset(self):
        engine = CounterModeEngine()
        engine.encrypt_line(1, _line())
        engine.reset_counters()
        assert engine.counter_for(1) == 0

    def test_rewrites_produce_fresh_pads(self):
        engine = CounterModeEngine()
        plaintext = _line(3)
        first = engine.encrypt_line(9, plaintext)
        second = engine.encrypt_line(9, plaintext)
        assert first.words != second.words


class TestPadProperties:
    def test_ciphertext_looks_unbiased(self):
        engine = CounterModeEngine(key=b"bias-test")
        ones = 0
        total_bits = 0
        for address in range(40):
            encrypted = engine.encrypt_line(address, [0] * 8)
            for word in encrypted.words:
                ones += bin(word).count("1")
                total_bits += 64
        # Encrypting all-zero lines exposes the pad; it should be ~50% ones.
        assert 0.45 < ones / total_bits < 0.55

    def test_pads_differ_across_addresses(self):
        engine = CounterModeEngine()
        assert engine.pad_words(1, 1) != engine.pad_words(2, 1)

    def test_pads_differ_across_counters(self):
        engine = CounterModeEngine()
        assert engine.pad_words(1, 1) != engine.pad_words(1, 2)

    def test_pad_word_width(self):
        engine = CounterModeEngine(line_bits=512, word_bits=64)
        pads = engine.pad_words(0, 1)
        assert len(pads) == 8
        assert all(0 <= p < (1 << 64) for p in pads)


class TestBatchedEncryptLines:
    """``encrypt_lines`` must be bit-identical to an ``encrypt_line`` loop."""

    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_matches_scalar_loop(self, word_bits):
        key = b"0123456789abcdef"
        line_bits = 512
        words = line_bits // word_bits
        rng = np.random.default_rng(7)
        # Repeated addresses so per-line counters advance mid-chunk.
        addresses = [0x40 * (i % 5) for i in range(12)]
        matrix = rng.integers(0, 1 << min(word_bits, 63), size=(12, words)).astype(
            np.uint64
        )
        scalar = CounterModeEngine(key=key, line_bits=line_bits, word_bits=word_bits)
        batched = CounterModeEngine(key=key, line_bits=line_bits, word_bits=word_bits)
        expected = [
            scalar.encrypt_line(address, [int(w) for w in row]).words
            for address, row in zip(addresses, matrix)
        ]
        cipher = batched.encrypt_lines(addresses, matrix)
        assert cipher is not None
        assert [tuple(int(w) for w in row) for row in cipher] == expected
        assert batched._counters == scalar._counters

    @pytest.mark.parametrize("key_length", [1, 32, 64, 80])
    @pytest.mark.parametrize("line_bits", [512, 320, 192])
    @pytest.mark.parametrize("word_bits", [8, 16, 32, 64])
    def test_prf_pads_match_pad_bytes(self, key_length, line_bits, word_bits):
        # Zero plaintext encrypts to the pad itself.  320- and 192-bit
        # lines end in a truncated 256-bit BLAKE2b block; keys past 64
        # bytes are cut to the 64 BLAKE2b takes.
        engine = CounterModeEngine(
            key=bytes(range(7, 7 + key_length)), line_bits=line_bits, word_bits=word_bits
        )
        addresses = [0x40, 0x80, 0x40, 0x0, 0x40]
        pads = engine.encrypt_lines(
            addresses, np.zeros((len(addresses), engine.words_per_line), dtype=np.uint64)
        )
        assert pads is not None
        counters: dict = {}
        for row, address in zip(pads, addresses):
            counters[address] = counters.get(address, 0) + 1
            expected = np.frombuffer(
                engine._pad_bytes(address, counters[address]), dtype=f">u{word_bits // 8}"
            )
            assert row.tolist() == expected.tolist()
        assert engine._counters == counters

    def test_counters_follow_the_scalar_sequence_across_chunks(self):
        addresses = [0x40 * (i % 3) for i in range(10)]
        matrix = np.arange(80, dtype=np.uint64).reshape(10, 8)
        scalar, batched = CounterModeEngine(key=b"chunks"), CounterModeEngine(key=b"chunks")
        expected = [
            scalar.encrypt_line(address, [int(w) for w in row]).words
            for address, row in zip(addresses, matrix)
        ]
        cipher = [batched.encrypt_lines(addresses[:4], matrix[:4])]
        cipher.append(batched.encrypt_lines(addresses[4:], matrix[4:]))
        assert [tuple(row) for chunk in cipher for row in chunk.tolist()] == expected
        assert batched._counters == scalar._counters
        assert [batched.counter_for(a) for a in (0, 0x40, 0x80, 0xC0)] == [4, 3, 3, 0]

    def test_zero_lines_give_an_empty_matrix(self):
        engine = CounterModeEngine()
        cipher = engine.encrypt_lines([], np.zeros((0, engine.words_per_line), dtype=np.uint64))
        assert cipher is not None
        assert cipher.shape == (0, engine.words_per_line)
        assert engine._counters == {}

    def test_shape_validation(self):
        engine = CounterModeEngine()
        with pytest.raises(ConfigurationError):
            engine.encrypt_lines([0], np.zeros((1, 3), dtype=np.uint64))
        with pytest.raises(ConfigurationError):
            engine.encrypt_lines([0, 1], np.zeros((1, 8), dtype=np.uint64))


class TestPadCoverage:
    """Every bit of every word is padded, at any width up to 64 bits: word
    ``i`` takes bytes ``[i * k, (i + 1) * k)`` of the pad stream,
    ``k = ceil(word_bits / 8)``, big-endian and masked to the word."""

    @pytest.mark.parametrize(
        "line_bits, word_bits",
        [(512, 4), (480, 12), (480, 24), (66, 33), (528, 33), (480, 48), (512, 64)],
    )
    def test_zero_lines_cover_every_word_bit(self, line_bits, word_bits):
        def engine():
            return CounterModeEngine(key=b"coverage", line_bits=line_bits, word_bits=word_bits)

        batched, scalar = engine(), engine()
        words = batched.words_per_line
        addresses = [0x40 * (index % 3) for index in range(8)]
        zeros = np.zeros((len(addresses), words), dtype=np.uint64)
        mask = (1 << word_bits) - 1
        plaintext = np.random.default_rng(word_bits).integers(
            0, mask, size=zeros.shape, dtype=np.uint64, endpoint=True
        )
        for matrix in (zeros, plaintext):
            cipher = batched.encrypt_lines(addresses, matrix)
            lines = [
                scalar.encrypt_line(address, [int(word) for word in row])
                for address, row in zip(addresses, matrix)
            ]
            assert [tuple(row) for row in cipher.tolist()] == [line.words for line in lines]
            assert [scalar.decrypt_line(line) for line in lines] == matrix.tolist()
        assert batched._counters == scalar._counters
        covered = np.bitwise_or.reduce(batched.encrypt_lines(addresses, zeros), axis=None)
        assert int(covered) == mask


class TestValidation:
    def test_bad_geometry(self):
        with pytest.raises(ConfigurationError):
            CounterModeEngine(line_bits=500, word_bits=64)

    @pytest.mark.parametrize("line_bits, word_bits", [(260, 65), (512, 128)])
    def test_words_over_64_bits_rejected(self, line_bits, word_bits):
        with pytest.raises(ConfigurationError, match="between 1 and 64"):
            CounterModeEngine(line_bits=line_bits, word_bits=word_bits)

    def test_empty_key(self):
        with pytest.raises(ConfigurationError):
            CounterModeEngine(key=b"")

    def test_wrong_word_count(self):
        engine = CounterModeEngine()
        with pytest.raises(ConfigurationError):
            engine.encrypt_line(0, [1, 2, 3])

    def test_encrypted_line_is_frozen(self):
        engine = CounterModeEngine()
        line = engine.encrypt_line(0, _line())
        with pytest.raises(AttributeError):
            line.address = 5
