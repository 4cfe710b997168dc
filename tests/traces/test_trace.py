"""Tests for the trace containers and serialisation."""

import pytest

from repro.errors import TraceError
from repro.traces.trace import Trace, WritebackRecord


class TestWritebackRecord:
    def test_valid_record(self):
        record = WritebackRecord(address=3, words=(1, 2, 3))
        assert record.address == 3
        assert record.words == (1, 2, 3)

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            WritebackRecord(address=-1, words=(1,))

    def test_empty_words_rejected(self):
        with pytest.raises(TraceError):
            WritebackRecord(address=0, words=())


class TestTrace:
    def _trace(self):
        trace = Trace(name="unit", line_bits=128, word_bits=64)
        trace.append(WritebackRecord(address=0, words=(1, 2)))
        trace.append(WritebackRecord(address=1, words=(3, 4)))
        trace.append(WritebackRecord(address=0, words=(5, 6)))
        return trace

    def test_geometry_validation(self):
        with pytest.raises(TraceError):
            Trace(name="bad", line_bits=100, word_bits=64)

    @pytest.mark.parametrize("line_bits, word_bits", [(520, 65), (512, 128)])
    def test_words_over_64_bits_rejected(self, line_bits, word_bits):
        with pytest.raises(TraceError, match="between 1 and 64"):
            Trace(name="wide", line_bits=line_bits, word_bits=word_bits)

    def test_append_checks_word_count(self):
        trace = Trace(name="t", line_bits=128, word_bits=64)
        with pytest.raises(TraceError):
            trace.append(WritebackRecord(address=0, words=(1,)))

    def test_append_checks_word_width(self):
        trace = Trace(name="t", line_bits=128, word_bits=64)
        with pytest.raises(TraceError):
            trace.append(WritebackRecord(address=0, words=(1 << 64, 0)))

    def test_len_iter_getitem(self):
        trace = self._trace()
        assert len(trace) == 3
        assert trace[1].address == 1
        assert [record.address for record in trace] == [0, 1, 0]

    def test_unique_addresses(self):
        assert self._trace().unique_addresses() == 2

    def test_writes_per_address(self):
        histogram = self._trace().writes_per_address()
        assert histogram == {0: 2, 1: 1}

    def test_words_per_line(self):
        assert self._trace().words_per_line == 2

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.jsonl"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.name == trace.name
        assert len(loaded) == len(trace)
        for a, b in zip(loaded, trace):
            assert a.address == b.address
            assert a.words == b.words

    def test_load_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(TraceError):
            Trace.load(path)

    def test_gzip_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.jsonl.gz"
        trace.save(path)
        # Really compressed on disk (gzip magic bytes).
        assert path.read_bytes()[:2] == b"\x1f\x8b"
        loaded = Trace.load(path)
        assert loaded.name == trace.name
        assert [record.words for record in loaded] == [record.words for record in trace]

    def test_gzip_detected_by_magic_not_name(self, tmp_path):
        """A gzip payload loads even when the file name hides it."""
        import gzip

        trace = self._trace()
        gz_path = tmp_path / "trace.jsonl.gz"
        trace.save(gz_path)
        disguised = tmp_path / "trace.jsonl"
        disguised.write_bytes(gz_path.read_bytes())
        loaded = Trace.load(disguised)
        assert len(loaded) == len(trace)

    def test_plain_and_gzip_hold_same_payload(self, tmp_path):
        import gzip

        trace = self._trace()
        plain, compressed = tmp_path / "t.jsonl", tmp_path / "t.jsonl.gz"
        trace.save(plain)
        trace.save(compressed)
        assert plain.read_text(encoding="utf-8") == gzip.decompress(
            compressed.read_bytes()
        ).decode("utf-8")
