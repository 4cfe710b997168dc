"""Counters shared by the write-path simulators.

Every simulator accumulates the same small set of statistics for each
technique under test: how many words/rows were written, how many cells
changed state, how much write energy was spent (data plus auxiliary bits),
and how many stuck-at-wrong (SAW) cells were produced.  Keeping them in a
single dataclass makes result tables uniform across experiments.  Energy
is counted in whole femtojoules, so its totals do not depend on the order
writes are added in; the pJ values are read-only views.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
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
    data_energy_fj: int = 0
    aux_energy_fj: int = 0
    saw_cells: int = 0
    saw_words: int = 0
    masked_faults: int = 0

    @property
    def data_energy_pj(self) -> float:
        """Write energy spent on the data cells, in pJ."""
        return self.data_energy_fj / 1000

    @property
    def aux_energy_pj(self) -> float:
        """Write energy spent on the auxiliary bits, in pJ."""
        return self.aux_energy_fj / 1000

    @property
    def total_energy_pj(self) -> float:
        """Total write energy including the auxiliary bits, in pJ."""
        return (self.data_energy_fj + self.aux_energy_fj) / 1000

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
        self.data_energy_fj += line.data_energy_fj
        self.aux_energy_fj += line.aux_energy_fj
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
            **{f.name: getattr(self, f.name) + getattr(other, f.name) for f in fields(self)}
        )

    def as_dict(self) -> Dict[str, float]:
        """Return a flat dictionary, convenient for tabulation."""
        return dict(asdict(self), total_energy_pj=self.total_energy_pj)
