"""Encoder and write-context interfaces shared by every technique.

All techniques in this repository — the baselines in :mod:`repro.coding`
and Virtual Coset Coding in :mod:`repro.core` — expose the same tiny
interface so the simulators can iterate over them uniformly:

* :class:`WordContext` describes what the memory controller knows about
  the target location at write time (the current cell values read back by
  the read-modify-write step and, when a fault-tracking mechanism is
  assumed, which of those cells are stuck);
* :class:`Encoder.encode` maps an n-bit data word plus its context to an
  :class:`EncodedWord` (codeword + auxiliary bits + achieved cost);
* :class:`Encoder.decode` recovers the original data from the codeword and
  auxiliary bits alone (faults aside, ``decode(encode(d)) == d``).

The memory controller's natural unit is the cache *line* (8 words of 64
bits; :class:`LineContext` stacks the per-word write-time knowledge of a
whole line into ``(words, cells)`` matrices plus an auxiliary-bit vector).
Line encoding has exactly two tiers:

* the **oracle** — :meth:`Encoder.encode` per word, looped over a line by
  :meth:`Encoder.encode_line_scalar`;
* the **fast path** — :meth:`Encoder.encode_lines` encodes a whole batch
  of queued writes in one call.  Its boundary is columnar: a
  :class:`LineBatch` (``(lines, words, cells)`` old cells and stuck mask,
  ``(lines, words)`` old auxiliary values) goes in, and an
  :class:`EncodedBatch` (``(lines, words)`` codeword, auxiliary-value and
  cost arrays) comes out.  Every builtin technique overrides it to score
  the candidates of every word of every line at once, bit for bit equal
  to the oracle; the base implementation loops the oracle over
  :meth:`LineBatch.line`, so third-party encoders keep working unchanged.

:meth:`Encoder.encode_line` is a one-line view of the fast path and
:meth:`Encoder.decode_line` the inverse of a line encode.

Costs are evaluated through the :class:`repro.coding.cost.CostFunction`
interface at *cell* granularity, which lets the same encoder minimise
written '1's, bit changes, MLC write energy, stuck-at-wrong cells, or
lexicographic combinations of those.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

import repro.obs as obs
from repro.errors import ConfigurationError, EncodingError
from repro.pcm.array import word_to_cells
from repro.pcm.cell import CellTechnology
from repro.utils.validation import require_word_bits, require_word_fits

# Lines encoded through the word-at-a-time oracle instead of a vectorised
# encode_lines — the replay engine's "fallback path taken" signal.
_OBS_FALLBACK_LINES = obs.counter(
    "encode.fallback_lines",
    "lines encoded by the scalar encode_line_scalar loop (no vectorised encode_lines)",
)

__all__ = [
    "WordContext",
    "LineContext",
    "LineBatch",
    "EncodedWord",
    "EncodedLine",
    "EncodedBatch",
    "Encoder",
    "WordsMatrix",
    "words_to_cell_matrix",
    "words_matrix_to_cells",
    "cells_matrix_to_words",
]

#: Accepted shapes for a multi-line batch of data words: a
#: ``(lines, words_per_line)`` integer ndarray or per-line sequences.
WordsMatrix = Union[np.ndarray, Sequence[Sequence[int]]]


def words_to_cell_matrix(words: Sequence[int], word_bits: int, bits_per_cell: int) -> np.ndarray:
    """Convert candidate words to a ``(len(words), cells)`` cell-value matrix.

    Used by encoders to evaluate many candidate codewords against a cost
    function in one vectorised call.  Cell 0 holds the most significant
    bits of each word, matching :func:`repro.pcm.array.word_to_cells`.
    """
    values = np.fromiter((int(w) for w in words), dtype=np.uint64, count=len(words))
    return words_matrix_to_cells(values, word_bits, bits_per_cell)


def words_matrix_to_cells(words: np.ndarray, word_bits: int, bits_per_cell: int) -> np.ndarray:
    """Convert an n-D array of word values to cell values along a new last axis.

    The batched sibling of :func:`words_to_cell_matrix`: an input of shape
    ``(...,)`` becomes ``(..., cells)`` with cell 0 holding the most
    significant bits, matching :func:`repro.pcm.array.word_to_cells`.
    """
    cells = word_bits // bits_per_cell
    values = np.asarray(words, dtype=np.uint64)
    shifts = np.array(
        [bits_per_cell * (cells - 1 - index) for index in range(cells)], dtype=np.uint64
    )
    matrix = (values[..., None] >> shifts) & np.uint64((1 << bits_per_cell) - 1)
    return matrix.astype(np.uint8)


def cells_matrix_to_words(cells: np.ndarray, bits_per_cell: int) -> List[int]:
    """Convert a ``(words, cells)`` cell matrix back to a list of word ints.

    Inverse of :func:`words_matrix_to_cells` for the 2-D case; used by the
    memory controller's read path to recover all codewords of a row at once.
    """
    matrix = np.asarray(cells, dtype=np.uint64)
    if matrix.ndim != 2:
        raise ConfigurationError("cells_matrix_to_words expects a (words, cells) matrix")
    num_cells = matrix.shape[1]
    require_word_bits(num_cells * bits_per_cell)
    shifts = np.array(
        [bits_per_cell * (num_cells - 1 - index) for index in range(num_cells)],
        dtype=np.uint64,
    )
    packed = (matrix << shifts).sum(axis=1, dtype=np.uint64)
    return [int(value) for value in packed]


def _init_cells(context, ndim: Optional[int] = None, layout: str = "") -> np.ndarray:
    """Normalise and validate a context's cells, stuck mask and cell width.

    Shared by :class:`WordContext`, :class:`LineContext` and
    :class:`LineBatch`; ``ndim`` (None: any) is the required rank of
    ``old_cells``, named ``layout`` in the error.  Returns the uint8 cells.
    """
    old = np.asarray(context.old_cells, dtype=np.uint8)
    if ndim is not None and old.ndim != ndim:
        raise ConfigurationError(f"old_cells must be a {layout} array")
    object.__setattr__(context, "old_cells", old)
    if context.stuck_mask is not None:
        mask = np.asarray(context.stuck_mask, dtype=bool)
        if mask.shape != old.shape:
            raise ConfigurationError("stuck_mask must match old_cells shape")
        object.__setattr__(context, "stuck_mask", mask)
    if context.bits_per_cell not in (1, 2):
        raise ConfigurationError("bits_per_cell must be 1 (SLC) or 2 (MLC)")
    return old


def _old_aux_array(old_auxes, shape: Tuple[int, ...]) -> np.ndarray:
    """Stored auxiliary values as a non-negative int64 array of ``shape`` (None: zeros)."""
    if old_auxes is None:
        return np.zeros(shape, dtype=np.int64)
    try:
        auxes = np.asarray(old_auxes, dtype=np.int64)
    except OverflowError:
        raise ConfigurationError("auxiliary values must fit in 63 bits") from None
    if auxes.shape != shape:
        raise ConfigurationError("old_auxes must hold one value per word")
    if auxes.size and auxes.min() < 0:
        raise ConfigurationError("auxiliary values must be non-negative")
    return auxes


def _stacked_stuck(contexts) -> Optional[np.ndarray]:
    """Stack the contexts' stuck masks, all-False where one has none (None if all do)."""
    if all(c.stuck_mask is None for c in contexts):
        return None
    return np.stack(
        [
            c.stuck_mask if c.stuck_mask is not None else np.zeros_like(c.old_cells, dtype=bool)
            for c in contexts
        ]
    )


@dataclass(frozen=True)
class WordContext:
    """Write-time knowledge about the target word location.

    Attributes
    ----------
    old_cells:
        Current cell values at the target location (read-modify-write).
        Length is ``word_bits // bits_per_cell``.
    stuck_mask:
        Optional boolean mask aligned with ``old_cells``; True marks cells
        that are stuck (their value cannot be changed).  A stuck cell's
        value is its entry in ``old_cells``.
    bits_per_cell:
        1 for SLC, 2 for MLC.
    old_aux:
        Previously stored auxiliary bits for this word (used to charge the
        energy of updating them).
    """

    old_cells: np.ndarray
    stuck_mask: Optional[np.ndarray] = None
    bits_per_cell: int = 2
    old_aux: int = 0

    def __post_init__(self) -> None:
        _init_cells(self)

    @property
    def word_bits(self) -> int:
        """Width of the word covered by this context, in bits."""
        return len(self.old_cells) * self.bits_per_cell

    @property
    def technology(self) -> CellTechnology:
        """Cell technology implied by ``bits_per_cell``."""
        return CellTechnology.SLC if self.bits_per_cell == 1 else CellTechnology.MLC

    @property
    def old_word(self) -> int:
        """The current contents of the location as a word integer."""
        word = 0
        for value in self.old_cells:
            word = (word << self.bits_per_cell) | int(value)
        return word

    @classmethod
    def blank(cls, word_bits: int = 64, bits_per_cell: int = 2) -> "WordContext":
        """Context for a location whose cells are all zero and fault-free."""
        cells = word_bits // bits_per_cell
        return cls(old_cells=np.zeros(cells, dtype=np.uint8), bits_per_cell=bits_per_cell)

    @classmethod
    def from_word(
        cls,
        old_word: int,
        word_bits: int = 64,
        bits_per_cell: int = 2,
        stuck_mask: Optional[np.ndarray] = None,
        old_aux: int = 0,
    ) -> "WordContext":
        """Build a context from the old word value."""
        cells = word_to_cells(old_word, word_bits, bits_per_cell)
        return cls(
            old_cells=cells,
            stuck_mask=stuck_mask,
            bits_per_cell=bits_per_cell,
            old_aux=old_aux,
        )


@dataclass(frozen=True)
class LineContext:
    """Write-time knowledge about a whole cache line, stacked per word.

    Attributes
    ----------
    old_cells:
        ``(words, cells_per_word)`` matrix of the current cell values at
        the target row (read-modify-write), one row per word.
    stuck_mask:
        Optional boolean matrix aligned with ``old_cells``; True marks
        cells that are stuck at their ``old_cells`` value.
    bits_per_cell:
        1 for SLC, 2 for MLC.
    old_auxes:
        ``(words,)`` vector of the previously stored auxiliary bits, used
        to charge the energy of updating them.  Defaults to all zeros.
    """

    old_cells: np.ndarray
    stuck_mask: Optional[np.ndarray] = None
    bits_per_cell: int = 2
    old_auxes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        old = _init_cells(self, 2, "(words, cells)")
        object.__setattr__(self, "old_auxes", _old_aux_array(self.old_auxes, old.shape[:1]))

    @property
    def words_per_line(self) -> int:
        """Number of words covered by this context."""
        return self.old_cells.shape[0]

    @property
    def word_bits(self) -> int:
        """Width of each word covered by this context, in bits."""
        return self.old_cells.shape[1] * self.bits_per_cell

    @property
    def technology(self) -> CellTechnology:
        """Cell technology implied by ``bits_per_cell``."""
        return CellTechnology.SLC if self.bits_per_cell == 1 else CellTechnology.MLC

    def word_context(self, word_index: int) -> WordContext:
        """The scalar :class:`WordContext` of one word of the line."""
        if not 0 <= word_index < self.words_per_line:
            raise ConfigurationError(
                f"word index {word_index} out of range [0, {self.words_per_line})"
            )
        stuck = None if self.stuck_mask is None else self.stuck_mask[word_index]
        return WordContext(
            old_cells=self.old_cells[word_index],
            stuck_mask=stuck,
            bits_per_cell=self.bits_per_cell,
            old_aux=int(self.old_auxes[word_index]),
        )

    @classmethod
    def blank(
        cls, words_per_line: int = 8, word_bits: int = 64, bits_per_cell: int = 2
    ) -> "LineContext":
        """Context for a line whose cells are all zero and fault-free."""
        cells = word_bits // bits_per_cell
        return cls(
            old_cells=np.zeros((words_per_line, cells), dtype=np.uint8),
            bits_per_cell=bits_per_cell,
        )

    @classmethod
    def from_row(
        cls,
        row_cells: np.ndarray,
        words_per_line: int,
        bits_per_cell: int = 2,
        stuck_mask: Optional[np.ndarray] = None,
        old_auxes: Optional[np.ndarray] = None,
    ) -> "LineContext":
        """Build a context from a flat row of cells as stored in a PCM array."""
        row = np.asarray(row_cells, dtype=np.uint8)
        if row.ndim != 1 or row.size % words_per_line != 0:
            raise ConfigurationError(
                "row_cells must be a flat row divisible into words_per_line words"
            )
        stuck = (
            None
            if stuck_mask is None
            else np.asarray(stuck_mask, dtype=bool).reshape(words_per_line, -1)
        )
        return cls(
            old_cells=row.reshape(words_per_line, -1),
            stuck_mask=stuck,
            bits_per_cell=bits_per_cell,
            old_auxes=old_auxes,
        )

    @classmethod
    def from_contexts(cls, contexts: Sequence[WordContext]) -> "LineContext":
        """Stack per-word contexts (all sharing a geometry) into a line context."""
        if not contexts:
            raise ConfigurationError("at least one word context is required")
        bits_per_cell = contexts[0].bits_per_cell
        if any(c.bits_per_cell != bits_per_cell for c in contexts):
            raise ConfigurationError("word contexts must share bits_per_cell")
        if any(c.old_cells.shape != contexts[0].old_cells.shape for c in contexts):
            raise ConfigurationError("word contexts must share the word geometry")
        return cls(
            old_cells=np.stack([c.old_cells for c in contexts]),
            stuck_mask=_stacked_stuck(contexts),
            bits_per_cell=bits_per_cell,
            old_auxes=np.array([c.old_aux for c in contexts], dtype=np.int64),
        )


@dataclass(frozen=True, eq=False)
class LineBatch:
    """Write-time knowledge about a batch of cache lines, one per queued write.

    The input of :meth:`Encoder.encode_lines`.  Every array carries the
    lines on its first axis, so a replay wave's row gathers become a batch
    by reshaping alone; shapes are validated once per batch.  Line ``l`` is
    the :class:`LineContext` ``batch.line(l)`` and ``len(batch)`` counts
    the lines.

    Attributes
    ----------
    old_cells:
        ``(lines, words, cells_per_word)`` current cell values of the
        target rows.
    stuck_mask:
        Optional boolean array aligned with ``old_cells``; True marks cells
        that are stuck at their ``old_cells`` value.
    bits_per_cell:
        1 for SLC, 2 for MLC.
    old_auxes:
        ``(lines, words)`` previously stored auxiliary values (int64; a
        value that does not fit raises :class:`ConfigurationError`).
        Defaults to all zeros.
    """

    old_cells: np.ndarray
    stuck_mask: Optional[np.ndarray] = None
    bits_per_cell: int = 2
    old_auxes: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        old = _init_cells(self, 3, "(lines, words, cells)")
        if old.shape[0] == 0:
            raise ConfigurationError("a line batch must hold at least one line")
        object.__setattr__(self, "old_auxes", _old_aux_array(self.old_auxes, old.shape[:2]))

    def __len__(self) -> int:
        return self.old_cells.shape[0]

    @property
    def words_per_line(self) -> int:
        """Number of words per line."""
        return self.old_cells.shape[1]

    @property
    def word_bits(self) -> int:
        """Width of each word, in bits."""
        return self.old_cells.shape[2] * self.bits_per_cell

    def line(self, index: int) -> LineContext:
        """The :class:`LineContext` of one line of the batch."""
        return LineContext(
            old_cells=self.old_cells[index],
            stuck_mask=None if self.stuck_mask is None else self.stuck_mask[index],
            bits_per_cell=self.bits_per_cell,
            old_auxes=self.old_auxes[index],
        )

    def split_partitions(self, partitions: int) -> "LineBatch":
        """View each word as ``partitions`` contiguous sub-blocks.

        Returns a batch of ``words * partitions`` shorter "words" per line,
        which is how partition-based encoders (FNW, BCC, VCC) score all
        sub-block candidates in one batched cost call.  Auxiliary values do
        not map onto sub-blocks and are reset to zero.
        """
        lines, words, cells = self.old_cells.shape
        if partitions <= 0 or cells % partitions != 0:
            raise ConfigurationError(
                f"cannot split {cells} cells into {partitions} partitions"
            )
        shape = (lines, words * partitions, cells // partitions)
        return LineBatch(
            old_cells=self.old_cells.reshape(shape),
            stuck_mask=None if self.stuck_mask is None else self.stuck_mask.reshape(shape),
            bits_per_cell=self.bits_per_cell,
        )

    @classmethod
    def from_lines(cls, contexts: Sequence[LineContext]) -> "LineBatch":
        """Stack per-line contexts (all sharing a geometry) into a batch."""
        if not contexts:
            raise ConfigurationError("at least one line context is required")
        first = contexts[0]
        if any(c.bits_per_cell != first.bits_per_cell for c in contexts):
            raise ConfigurationError("line contexts must share bits_per_cell")
        if any(c.old_cells.shape != first.old_cells.shape for c in contexts):
            raise ConfigurationError("line contexts must share the line geometry")
        return cls(
            old_cells=np.stack([c.old_cells for c in contexts]),
            stuck_mask=_stacked_stuck(contexts),
            bits_per_cell=first.bits_per_cell,
            old_auxes=np.stack([c.old_auxes for c in contexts]),
        )


@dataclass(frozen=True)
class EncodedWord:
    """Result of encoding one data word.

    Attributes
    ----------
    codeword:
        The n-bit value to store in the data cells.
    aux:
        Value of the auxiliary bits (coset / inversion selector).
    aux_bits:
        Number of auxiliary bits used by the technique.
    cost:
        Cost of the selected candidate under the cost function used at
        encode time (includes the auxiliary-bit cost).
    technique:
        Name of the encoder that produced this word.
    """

    codeword: int
    aux: int
    aux_bits: int
    cost: float
    technique: str

    def __post_init__(self) -> None:
        _validate_aux((self.aux,), self.aux_bits)


def _validate_aux(auxes: Union[np.ndarray, Sequence[int]], aux_bits: int) -> None:
    """Reject auxiliary values that do not fit in ``aux_bits`` bits.

    The one aux-range check of every encode result: ``auxes`` is a
    non-empty sequence or array, checked through its extremes (vectorised
    for arrays).  In particular ``aux_bits == 0`` admits only ``aux == 0``:
    a technique that stores no auxiliary bits cannot smuggle information
    through them.
    """
    if aux_bits < 0:
        raise ConfigurationError("aux_bits must be non-negative")
    if isinstance(auxes, np.ndarray):
        low, high = int(auxes.min()), int(auxes.max())
    else:
        low, high = min(auxes), max(auxes)
    if low < 0 or high >= (1 << aux_bits):
        raise ConfigurationError(
            f"aux value {low if low < 0 else high} does not fit in {aux_bits} bits"
        )


@dataclass(frozen=True)
class EncodedLine:
    """Result of encoding one cache line (a batch of words).

    Attributes
    ----------
    codewords:
        Per-word values to store in the data cells, in line order.
    auxes:
        Per-word auxiliary values (coset / inversion selectors).
    aux_bits:
        Number of auxiliary bits per word used by the technique.
    costs:
        Per-word cost of the selected candidates under the cost function
        used at encode time (each includes its auxiliary-bit cost).
    technique:
        Name of the encoder that produced this line.
    """

    codewords: Tuple[int, ...]
    auxes: Tuple[int, ...]
    aux_bits: int
    costs: Tuple[float, ...]
    technique: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "codewords", tuple(map(int, self.codewords)))
        object.__setattr__(self, "auxes", tuple(map(int, self.auxes)))
        object.__setattr__(self, "costs", tuple(map(float, self.costs)))
        if not (len(self.codewords) == len(self.auxes) == len(self.costs)):
            raise ConfigurationError(
                "codewords, auxes, and costs must have one entry per word"
            )
        if not self.codewords:
            raise ConfigurationError("an encoded line must hold at least one word")
        _validate_aux(self.auxes, self.aux_bits)

    @property
    def words_per_line(self) -> int:
        """Number of words in the line."""
        return len(self.codewords)

    @property
    def cost(self) -> float:
        """Total cost of the line (sum of the per-word costs)."""
        return float(sum(self.costs))

    def word(self, word_index: int) -> EncodedWord:
        """The :class:`EncodedWord` view of one word of the line."""
        return EncodedWord(
            codeword=self.codewords[word_index],
            aux=self.auxes[word_index],
            aux_bits=self.aux_bits,
            cost=self.costs[word_index],
            technique=self.technique,
        )

    @classmethod
    def from_words(cls, words: Sequence[EncodedWord]) -> "EncodedLine":
        """Gather per-word encode results into a line result."""
        if not words:
            raise ConfigurationError("an encoded line must hold at least one word")
        return cls(
            codewords=tuple(w.codeword for w in words),
            auxes=tuple(w.aux for w in words),
            aux_bits=words[0].aux_bits,
            costs=tuple(w.cost for w in words),
            technique=words[0].technique,
        )


@dataclass(frozen=True, eq=False)
class EncodedBatch:
    """Result of :meth:`Encoder.encode_lines`: one encoded line per batch line.

    Columnar: ``result[l]`` is line ``l`` as an :class:`EncodedLine` and
    ``len(result)`` counts the lines.

    Attributes
    ----------
    codewords:
        ``(lines, words)`` uint64 values to store in the data cells.
    auxes:
        ``(lines, words)`` int64 auxiliary values.
    aux_bits:
        Number of auxiliary bits per word used by the technique.
    costs:
        ``(lines, words)`` float64 costs of the selected candidates (each
        includes its auxiliary-bit cost).
    technique:
        Name of the encoder that produced the batch.
    """

    codewords: np.ndarray
    auxes: np.ndarray
    aux_bits: int
    costs: np.ndarray
    technique: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "codewords", np.asarray(self.codewords))
        object.__setattr__(self, "auxes", np.asarray(self.auxes))
        object.__setattr__(self, "costs", np.asarray(self.costs, dtype=np.float64))
        shape = self.codewords.shape
        if len(shape) != 2 or 0 in shape or not self.auxes.shape == self.costs.shape == shape:
            raise ConfigurationError(
                "codewords, auxes, and costs must be non-empty (lines, words) arrays "
                "of one shape"
            )
        _validate_aux(self.auxes, self.aux_bits)

    def __len__(self) -> int:
        return self.codewords.shape[0]

    def __getitem__(self, line: int) -> EncodedLine:
        return EncodedLine(
            codewords=self.codewords[line].tolist(),
            auxes=self.auxes[line].tolist(),
            aux_bits=self.aux_bits,
            costs=self.costs[line].tolist(),
            technique=self.technique,
        )

    def __iter__(self) -> Iterator[EncodedLine]:
        return (self[line] for line in range(len(self)))

    @classmethod
    def from_lines(cls, lines: Sequence[EncodedLine]) -> "EncodedBatch":
        """Stack per-line results (of one technique) into a batch result."""
        return cls(
            codewords=np.array([line.codewords for line in lines], dtype=np.uint64),
            auxes=np.array([line.auxes for line in lines], dtype=np.int64),
            aux_bits=lines[0].aux_bits,
            costs=[line.costs for line in lines],
            technique=lines[0].technique,
        )


class Encoder(abc.ABC):
    """Common interface of every write-encoding technique.

    Concrete encoders are constructed with a word width of at most 64
    bits, a cell technology, and a :class:`repro.coding.cost.CostFunction`;
    ``encode`` then selects the candidate codeword minimising that cost for
    each write.
    """

    #: Human-readable technique name (overridden by subclasses).
    name: str = "encoder"

    #: True when the encoder always stores the data word unchanged with no
    #: auxiliary bits, regardless of context (the unencoded baseline).
    #: Batch drivers use this to skip the per-write encode call entirely —
    #: the stored values and every accounting number are unaffected.
    is_identity: bool = False

    def __init__(self, word_bits: int, technology: CellTechnology, cost_function) -> None:
        require_word_bits(word_bits)
        if word_bits % technology.bits_per_cell != 0:
            raise ConfigurationError("word_bits must hold an integer number of cells")
        self.word_bits = word_bits
        self.technology = technology
        self.bits_per_cell = technology.bits_per_cell
        self.cells_per_word = word_bits // self.bits_per_cell
        self.cost_function = cost_function
        # The cost's cell table holds finite integers (checked when it is
        # built), so a sum of entries is exact in any order while it stays
        # below 2**53.  The batched paths sum at most 2 * cells entries
        # (VCC's a0 + a1), which bounds every partial sum.
        largest = float(np.abs(cost_function._table(self.bits_per_cell)).max())
        if largest * 2 * self.cells_per_word >= 2.0**53:
            raise ConfigurationError(
                f"{type(cost_function).__name__} cell costs up to {largest:g}, summed "
                f"over 2 x {self.cells_per_word} cells, reach 2**53; rescale the cost "
                "to a smaller integer unit"
            )

    # ------------------------------------------------------------ interface
    @property
    @abc.abstractmethod
    def aux_bits(self) -> int:
        """Number of auxiliary bits stored alongside each codeword."""

    @abc.abstractmethod
    def encode(self, data: int, context: WordContext) -> EncodedWord:
        """Encode ``data`` for the location described by ``context``."""

    @abc.abstractmethod
    def decode(self, codeword: int, aux: int) -> int:
        """Recover the original data from ``codeword`` and its aux bits."""

    # ---------------------------------------------------------- line batch
    def encode_line(self, words: Sequence[int], context: LineContext) -> EncodedLine:
        """Encode a whole cache line for the row described by ``context``.

        A one-line view of :meth:`encode_lines`, so a single line takes the
        same fast path as a replay wave.
        """
        return self.encode_lines([words], LineBatch.from_lines([context]))[0]

    def encode_line_scalar(self, words: Sequence[int], context: LineContext) -> EncodedLine:
        """Reference word-at-a-time line encoding: :meth:`encode` per word.

        The oracle every :meth:`encode_lines` override must match bit for
        bit; parity tests and benchmarks call it directly.
        """
        self._check_line_context(context, len(words))
        return EncodedLine.from_words(
            [
                self.encode(int(word), context.word_context(index))
                for index, word in enumerate(words)
            ]
        )

    def decode_line(self, codewords: Sequence[int], auxes: Sequence[int]) -> List[int]:
        """Recover the line's data words from codewords and auxiliary bits."""
        codewords = list(codewords)
        auxes = list(auxes)
        if len(codewords) != len(auxes):
            raise EncodingError("decode_line needs one aux value per codeword")
        return [self.decode(int(c), int(a)) for c, a in zip(codewords, auxes)]

    # ----------------------------------------------------- multi-line batch
    def encode_lines(self, words: WordsMatrix, batch: LineBatch) -> EncodedBatch:
        """Encode a batch of queued line writes.

        ``words`` is a ``(lines, words_per_line)`` matrix of data words (an
        integer ndarray or a sequence of per-line sequences) and line ``l``
        is written to the row described by ``batch.line(l)``.  The base
        implementation is the reference loop over
        :meth:`encode_line_scalar`, so any third-party encoder works
        unchanged; every builtin technique overrides it to score the
        candidates of every word of the batch at once, reading the batch's
        arrays directly and returning the result arrays.  Results are
        bit-identical to :meth:`encode_line_scalar` on each line — the
        memory controller's replay waves rely on that contract.
        """
        values = self._check_lines_batch(words, batch)
        _OBS_FALLBACK_LINES.inc(len(batch))
        return EncodedBatch.from_lines(
            [
                self.encode_line_scalar(row, batch.line(line))
                for line, row in enumerate(values.tolist())
            ]
        )

    # ------------------------------------------------------------- helpers
    def _check_data(self, data: int) -> None:
        require_word_fits(data, self.word_bits, EncodingError, "data word")

    def _check_context(self, context: Union[WordContext, LineContext, LineBatch]) -> None:
        if context.word_bits != self.word_bits or context.bits_per_cell != self.bits_per_cell:
            raise EncodingError(
                "context geometry does not match the encoder "
                f"(context: {context.word_bits} bits / {context.bits_per_cell} bpc, "
                f"encoder: {self.word_bits} bits / {self.bits_per_cell} bpc)"
            )

    def _check_line_context(self, context: LineContext, num_words: int) -> None:
        self._check_context(context)
        if context.words_per_line != num_words:
            raise EncodingError(
                f"line context covers {context.words_per_line} words, "
                f"but {num_words} words were supplied"
            )

    def _check_lines_batch(self, words: WordsMatrix, batch: LineBatch) -> np.ndarray:
        """Validate a ``(lines, words)`` data batch against ``batch``.

        Returns the words as a uint64 matrix.  A word outside ``[0,
        2**word_bits)`` raises :class:`EncodingError`, exactly like the
        scalar oracle, and so does a negative entry of a signed array.
        """
        if not isinstance(batch, LineBatch):
            raise EncodingError("encode_lines expects a LineBatch (see LineBatch.from_lines)")
        self._check_context(batch)
        if isinstance(words, np.ndarray) and words.dtype.kind == "i" and words.size:
            # Casting a signed array to uint64 would wrap -1 to 2**64 - 1.
            lowest = int(words.min())
            if lowest < 0:
                self._check_data(lowest)
        try:
            values = np.asarray(words, dtype=np.uint64)
        except OverflowError:
            # A negative or >= 2**64 word: name it like _check_data does.
            for row in words:
                for word in row:
                    self._check_data(int(word))
            raise
        if values.ndim != 2 or values.size == 0:
            raise EncodingError(
                "encode_lines expects a non-empty (lines, words_per_line) word matrix"
            )
        if values.shape != (len(batch), batch.words_per_line):
            raise EncodingError(
                f"encode_lines got {values.shape[0]} lines of {values.shape[1]} words "
                f"for a batch of {len(batch)} lines of {batch.words_per_line} words"
            )
        if self.word_bits < 64 and bool((values >> np.uint64(self.word_bits)).any()):
            bad = values[(values >> np.uint64(self.word_bits)) != 0].flat[0]
            raise EncodingError(
                f"data word {int(bad):#x} does not fit in {self.word_bits} bits"
            )
        return values

    def _encoded(self, codewords: np.ndarray, auxes: np.ndarray, costs: np.ndarray) -> EncodedBatch:
        """This encoder's :class:`EncodedBatch` of ``(lines, words)`` arrays."""
        return EncodedBatch(
            codewords=codewords,
            auxes=auxes,
            aux_bits=self.aux_bits,
            costs=costs,
            technique=self.name,
        )

    def _select_best(self, candidates, auxes, context: WordContext) -> EncodedWord:
        """Pick the lowest-cost candidate from parallel candidate/aux lists."""
        if len(candidates) != len(auxes) or not candidates:
            raise EncodingError("candidate and aux lists must be non-empty and equal length")
        matrix = words_to_cell_matrix(candidates, self.word_bits, self.bits_per_cell)
        cell_costs = self.cost_function.cell_costs_matrix(matrix, context)
        totals = cell_costs.sum(axis=1)
        totals = totals + np.array(
            [
                self.cost_function.aux_cost(aux, context.old_aux, self.aux_bits)
                for aux in auxes
            ]
        )
        best = int(np.argmin(totals))
        return EncodedWord(
            codeword=int(candidates[best]),
            aux=int(auxes[best]),
            aux_bits=self.aux_bits,
            cost=float(totals[best]),
            technique=self.name,
        )

    def _select_best_lines(
        self, candidates: np.ndarray, auxes: np.ndarray, batch: LineBatch
    ) -> EncodedBatch:
        """Vectorised per-word argmin over a ``(lines, candidates, words)`` batch.

        The multi-line sibling of :meth:`_select_best`: one
        :meth:`repro.coding.cost.CostFunction.batch_line_cell_costs` call
        scores every candidate of every word of every line, and the
        selected codewords, auxiliary values, and costs are bit-identical
        to running :meth:`_select_best` per word.

        Parameters
        ----------
        candidates:
            ``(lines, num_candidates, words)`` candidate codeword values.
        auxes:
            ``(num_candidates,)`` auxiliary values shared by all words.
        batch:
            The lines' write-time knowledge; ``old_auxes`` is charged per word.
        """
        cand = np.asarray(candidates, dtype=np.uint64)
        if cand.ndim != 3 or cand.size == 0:
            raise EncodingError(
                "candidates must form a non-empty (lines, candidates, words) batch"
            )
        lines, num_candidates, words = cand.shape
        aux = np.asarray(auxes, dtype=np.int64)
        if aux.shape != (num_candidates,):
            raise EncodingError("aux values must align with the candidate axis")
        cells = words_matrix_to_cells(cand, self.word_bits, self.bits_per_cell)
        data_costs = self.cost_function.batch_line_cell_costs(cells, batch).sum(axis=3)
        aux_costs = self.cost_function._aux_costs(
            np.broadcast_to(aux[:, None], (num_candidates, lines * words)),
            batch.old_auxes.reshape(-1),
            self.aux_bits,
        )
        totals = data_costs + aux_costs.reshape(num_candidates, lines, words).transpose(1, 0, 2)
        best = np.argmin(totals, axis=1)[:, None, :]
        return self._encoded(
            np.take_along_axis(cand, best, axis=1)[:, 0],
            aux[best[:, 0]],
            np.take_along_axis(totals, best, axis=1)[:, 0],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.__class__.__name__}(word_bits={self.word_bits}, "
            f"technology={self.technology.value}, aux_bits={self.aux_bits})"
        )
