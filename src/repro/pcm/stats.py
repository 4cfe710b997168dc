"""Counters shared by the write-path simulators.

Every simulator accumulates the same small set of statistics for each
technique under test: how many words/rows were written, how many cells
changed state, how much write energy was spent (data plus auxiliary bits),
and how many stuck-at-wrong (SAW) cells were produced.  Keeping them in a
single dataclass makes result tables uniform across experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable

if TYPE_CHECKING:  # runtime import would be circular via repro.memctrl
    from repro.memctrl.controller import LineWriteResult

__all__ = ["WriteStats"]


@dataclass
class WriteStats:
    """Accumulated statistics for a sequence of memory writes."""

    words_written: int = 0
    rows_written: int = 0
    bits_changed: int = 0
    cells_changed: int = 0
    data_energy_pj: float = 0.0
    aux_energy_pj: float = 0.0
    saw_cells: int = 0
    saw_words: int = 0
    masked_faults: int = 0

    @property
    def total_energy_pj(self) -> float:
        """Total write energy including the auxiliary bits."""
        return self.data_energy_pj + self.aux_energy_pj

    @property
    def mean_bits_changed_per_word(self) -> float:
        """Average number of changed bits per written word."""
        if self.words_written == 0:
            return 0.0
        return self.bits_changed / self.words_written

    @property
    def mean_energy_per_word_pj(self) -> float:
        """Average write energy per word, including auxiliary bits."""
        if self.words_written == 0:
            return 0.0
        return self.total_energy_pj / self.words_written

    def add_line(self, line: "LineWriteResult", words_per_line: int) -> None:
        """Accumulate one line-write summary into these statistics.

        ``line`` is a :class:`repro.memctrl.controller.LineWriteResult`.
        This is the single accounting rule shared by the memory controller
        and :meth:`from_line_results`.
        """
        self.words_written += words_per_line
        self.rows_written += 1
        self.bits_changed += line.bits_changed
        self.cells_changed += line.cells_changed
        self.data_energy_pj += line.data_energy_pj
        self.aux_energy_pj += line.aux_energy_pj
        self.saw_cells += line.saw_cells
        self.saw_words += sum(1 for w in line.saw_bits_per_word if w)

    @classmethod
    def from_line_results(
        cls, results: "Iterable[LineWriteResult]", words_per_line: int
    ) -> "WriteStats":
        """Aggregate per-line write summaries into a :class:`WriteStats`.

        ``results`` is an iterable of
        :class:`repro.memctrl.controller.LineWriteResult`.  Wear-leveling
        migration writes have no line summary and are therefore not
        included — drive the controller without a wear leveler (as every
        builtin simulator does) or read ``controller.stats`` when migration
        accounting matters.
        """
        stats = cls()
        for line in results:
            stats.add_line(line, words_per_line)
        return stats

    def merge(self, other: "WriteStats") -> "WriteStats":
        """Return a new :class:`WriteStats` with the sums of both operands."""
        return WriteStats(
            words_written=self.words_written + other.words_written,
            rows_written=self.rows_written + other.rows_written,
            bits_changed=self.bits_changed + other.bits_changed,
            cells_changed=self.cells_changed + other.cells_changed,
            data_energy_pj=self.data_energy_pj + other.data_energy_pj,
            aux_energy_pj=self.aux_energy_pj + other.aux_energy_pj,
            saw_cells=self.saw_cells + other.saw_cells,
            saw_words=self.saw_words + other.saw_words,
            masked_faults=self.masked_faults + other.masked_faults,
        )

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary, convenient for tabulation."""
        return {
            "words_written": self.words_written,
            "rows_written": self.rows_written,
            "bits_changed": self.bits_changed,
            "cells_changed": self.cells_changed,
            "data_energy_pj": self.data_energy_pj,
            "aux_energy_pj": self.aux_energy_pj,
            "total_energy_pj": self.total_energy_pj,
            "saw_cells": self.saw_cells,
            "saw_words": self.saw_words,
            "masked_faults": self.masked_faults,
        }
