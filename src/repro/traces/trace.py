"""Trace containers and (de)serialisation.

A trace is an ordered sequence of :class:`WritebackRecord` objects, each a
dirty cache line evicted from the last-level cache: the line-aligned
address and the plaintext line contents as fixed-width words.  Traces can
be saved to and loaded from a compact JSON-lines format so experiments can
be re-run on identical inputs.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional, Tuple, TypeVar, Union

import numpy as np

from repro.errors import TraceError
from repro.utils.validation import require_word_bits

__all__ = ["WritebackRecord", "Trace"]

_Derived = TypeVar("_Derived")


@dataclass(frozen=True)
class WritebackRecord:
    """One dirty-line eviction from the LLC to main memory.

    Attributes
    ----------
    address:
        Line index (line-aligned address divided by the line size).
    words:
        Plaintext contents of the line as a tuple of word integers.
    """

    address: int
    words: Tuple[int, ...]

    def __post_init__(self) -> None:
        if self.address < 0:
            raise TraceError(f"address must be non-negative, got {self.address}")
        if not self.words:
            raise TraceError("a writeback record needs at least one data word")
        object.__setattr__(self, "words", tuple(int(w) for w in self.words))


@dataclass
class Trace:
    """An ordered sequence of writeback records plus workload metadata."""

    name: str
    records: List[WritebackRecord] = field(default_factory=list)
    line_bits: int = 512
    word_bits: int = 64
    metadata: dict = field(default_factory=dict)
    #: Cached array views of the records (see :meth:`addresses_array`).
    _addresses: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    _words: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)
    #: Values derived from the records (see :meth:`derived`).
    _derived: Dict[Hashable, Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        require_word_bits(self.word_bits, TraceError)
        if self.line_bits <= 0:
            raise TraceError("line_bits must be positive")
        if self.line_bits % self.word_bits != 0:
            raise TraceError("line_bits must be a multiple of word_bits")

    # ------------------------------------------------------------ protocol
    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WritebackRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> WritebackRecord:
        return self.records[index]

    @property
    def words_per_line(self) -> int:
        """Number of words per cache line."""
        return self.line_bits // self.word_bits

    # ----------------------------------------------------------- array views
    def addresses_array(self) -> np.ndarray:
        """All record addresses as an ``int64`` vector (cached).

        Batch drivers (:meth:`repro.memctrl.controller.MemoryController.replay_trace`)
        read the trace through these array views instead of iterating
        :class:`WritebackRecord` objects; the cache is invalidated by
        :meth:`append`.
        """
        if self._addresses is None:
            self._addresses = np.fromiter(
                (record.address for record in self.records),
                dtype=np.int64,
                count=len(self.records),
            )
        return self._addresses

    def words_array(self) -> np.ndarray:
        """All record words as a ``(records, words_per_line)`` ``uint64`` matrix.

        Cached like :meth:`addresses_array`.
        """
        if self._words is None:
            matrix = np.empty((len(self.records), self.words_per_line), dtype=np.uint64)
            for index, record in enumerate(self.records):
                matrix[index] = record.words
            self._words = matrix
        return self._words

    def derived(self, key: Hashable, build: Callable[[], _Derived]) -> _Derived:
        """The value stored under ``key``, built by ``build()`` on first use.

        A store for values computed from the records, such as the
        ciphertext streams of :meth:`repro.crypto.counter_mode.CounterModeEngine.replay_stream`.
        It lives and dies with the trace, and :meth:`append` empties it
        like the array views.
        """
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def __getstate__(self) -> Dict[str, Any]:
        # Derived values are rebuilt on demand and may not pickle (a
        # ciphertext stream holds a keyed hash state), so copies start
        # without them.
        return dict(self.__dict__, _derived={})

    # ------------------------------------------------------------ mutation
    def append(self, record: WritebackRecord) -> None:
        """Append one record, validating its geometry."""
        if len(record.words) != self.words_per_line:
            raise TraceError(
                f"record has {len(record.words)} words, trace expects {self.words_per_line}"
            )
        word_limit = 1 << self.word_bits
        for word in record.words:
            if word < 0 or word >= word_limit:
                raise TraceError(f"word {word:#x} does not fit in {self.word_bits} bits")
        self.records.append(record)
        self._addresses = None
        self._words = None
        self._derived.clear()

    # --------------------------------------------------------------- stats
    def unique_addresses(self) -> int:
        """Number of distinct line addresses touched by the trace."""
        return len({record.address for record in self.records})

    def writes_per_address(self) -> dict:
        """Histogram of writes per line address."""
        histogram: dict = {}
        for record in self.records:
            histogram[record.address] = histogram.get(record.address, 0) + 1
        return histogram

    # ----------------------------------------------------------------- I/O
    def save(self, path: Union[str, Path]) -> None:
        """Write the trace to ``path`` in JSON-lines format.

        A ``.gz`` suffix writes the same format gzip-compressed, so
        large benchmark traces can ship compressed; :meth:`load` reads
        either form transparently.
        """
        path = Path(path)
        opener = (
            (lambda: gzip.open(path, "wt", encoding="utf-8"))
            if path.suffix == ".gz"
            else (lambda: path.open("w", encoding="utf-8"))
        )
        with opener() as handle:
            header = {
                "name": self.name,
                "line_bits": self.line_bits,
                "word_bits": self.word_bits,
                "metadata": self.metadata,
            }
            handle.write(json.dumps(header) + "\n")
            for record in self.records:
                handle.write(
                    json.dumps(
                        {"a": record.address, "w": [format(w, "x") for w in record.words]}
                    )
                    + "\n"
                )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a trace previously written by :meth:`save`.

        Gzip-compressed trace files are detected by their magic bytes
        (not the file name), so both ``trace.jsonl`` and
        ``trace.jsonl.gz`` — however they were named — load
        transparently.
        """
        path = Path(path)
        with path.open("rb") as probe:
            compressed = probe.read(2) == b"\x1f\x8b"
        opener = (
            (lambda: gzip.open(path, "rt", encoding="utf-8"))
            if compressed
            else (lambda: path.open("r", encoding="utf-8"))
        )
        with opener() as handle:
            lines = [line for line in handle if line.strip()]
        if not lines:
            raise TraceError(f"trace file {path} is empty")
        header = json.loads(lines[0])
        trace = cls(
            name=header["name"],
            line_bits=header["line_bits"],
            word_bits=header["word_bits"],
            metadata=header.get("metadata", {}),
        )
        for line in lines[1:]:
            payload = json.loads(line)
            trace.append(
                WritebackRecord(
                    address=payload["a"], words=tuple(int(w, 16) for w in payload["w"])
                )
            )
        return trace
