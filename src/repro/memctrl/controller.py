"""The memory controller: encrypt, encode, write, and the inverse read path.

The controller owns the per-line write counters (via the counter-mode
engine), the per-word auxiliary bits produced by the encoder, and the
accounting of write energy / bit changes / stuck-at-wrong cells.  It is the
single integration point the simulators drive — either one
:meth:`MemoryController.write_line` call per trace record, a whole
trace at once through the batched :meth:`MemoryController.replay_trace`
engine, or a stream of uniformly random lines through
:meth:`MemoryController.write_random_lines` (both batched drivers share
the same internals: bit-identical accounting, per-write results
accumulated into the preallocated arrays of a :class:`ReplayResult`).

The write path is line-granular end to end: each write issues a single
:meth:`repro.coding.base.Encoder.encode_line` call (a one-line
``encode_lines`` batch, vectorised for every builtin technique),
auxiliary bits live in a preallocated
``(rows, words_per_line)`` array, and the energy / SAW accounting is
computed with NumPy over the whole row.

The batched drivers go one level further: the generic (non-identity)
replay path partitions each chunk into *waves* of queued writes targeting
distinct rows, gathers the old-cell state of the whole wave in one
:meth:`repro.pcm.array.PCMArray.read_rows` call, encodes every line of the
wave through a single :meth:`repro.coding.base.Encoder.encode_lines` call,
and flushes the wave's accounting with row-wise NumPy reductions — all
bit-identical to the scalar :meth:`MemoryController.write_line` sequence,
because writes within a wave cannot observe each other's rows and
wear-leveling gap migrations always land on a wave's last write.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # runtime import would be circular via repro.traces
    from repro.faults.models import FaultModel
    from repro.traces.trace import Trace

import numpy as np

import repro.obs as obs
from repro.coding.base import (
    EncodedLine,
    Encoder,
    LineContext,
    cells_matrix_to_words,
    words_matrix_to_cells,
)
from repro.crypto.counter_mode import CounterModeEngine
from repro.ecc.base import ErrorCorrector
from repro.errors import ConfigurationError, MemoryModelError
from repro.memctrl.config import ControllerConfig
from repro.pcm.array import PCMArray
from repro.pcm.cell import CellTechnology
from repro.pcm.energy import DEFAULT_MLC_ENERGY, DEFAULT_SLC_ENERGY, MLCEnergyModel, SLCEnergyModel
from repro.pcm.faultrepo import FaultRepository
from repro.pcm.stats import WriteStats
from repro.pcm.wearlevel import StartGapWearLeveler
from repro.utils.bitops import popcount64_array, random_word
from repro.utils.rng import derive_seed, make_rng

__all__ = ["LineWriteResult", "ReplayResult", "MemoryController"]

#: Accepted values for the controller's ``fault_knowledge`` parameter.
FAULT_KNOWLEDGE_MODES = ("oracle", "discovered", "none")

#: Default cap on the lines encoded per replay wave.  Bounds the candidate
#: tensors of wide searches (RCC-256 evaluates candidates × words × cells
#: floats per line) while keeping enough lines in flight to amortise the
#: per-call overhead of the batched encode kernels.
REPLAY_WAVE_LINES = 32

#: Early-stop predicate for :meth:`MemoryController.replay_trace`, called
#: after every write as ``stop(index, row_index, saw_cells,
#: saw_bits_per_word)``; returning True ends the replay after that write.
ReplayStop = Callable[[int, int, int, np.ndarray], bool]

# Replay-engine telemetry.  Metric updates happen at wave/chunk (never
# per-write) granularity; bench_obs_overhead.py swaps these handles for
# null stand-ins to prove the whole layer costs <2% when tracing is off.
_OBS_WAVES = obs.counter("replay.waves", "encode waves executed by the generic replay path")
_OBS_WAVE_LINES = obs.histogram("replay.wave_lines", "lines encoded per replay wave")
_OBS_CONFLICT_CUTS = obs.counter(
    "replay.conflict_cuts", "waves cut short by a write to an already-queued row"
)
_OBS_GAP_FLUSHES = obs.counter(
    "replay.gap_flushes", "waves capped by a pending Start-Gap gap migration"
)
_OBS_IDENTITY_CHUNKS = obs.counter(
    "replay.identity_chunks", "chunks taken by the identity-encoder fast path"
)
_OBS_SCALAR_FALLBACKS = obs.counter(
    "replay.scalar_fallbacks", "chunk ranges replayed by the scalar (odd-width) fallback"
)
_OBS_EARLY_STOPS = obs.counter(
    "replay.early_stops", "replays ended early by the stop predicate"
)
_OBS_EARLY_STOP_INDEX = obs.gauge(
    "replay.early_stop_index", "write index at which the latest replay stopped early"
)
_OBS_TRANSIENT_FLIPS = obs.counter(
    "faults.transient_flips", "cells sensed wrongly by the transient fault model"
)
_OBS_TRANSIENT_CORRECTED = obs.counter(
    "faults.transient_corrected", "sensed reads fully repaired by the ECC read path"
)
_OBS_TRANSIENT_ESCAPED = obs.counter(
    "faults.transient_escaped", "sensed reads whose flips escaped ECC into the encoder"
)
_OBS_SPAN = obs.span


@dataclass(frozen=True)
class LineWriteResult:
    """Accounting for one cache-line write.

    Attributes
    ----------
    address:
        Line address written.
    row_index:
        Array row the line mapped to.
    data_energy_pj / aux_energy_pj:
        Write energy spent on the data cells and on the auxiliary bits.
    cells_changed / bits_changed:
        How many cells (and bits) actually changed state in the array.
    saw_cells:
        Stuck-at-wrong cells left after encoding (cells whose stored value
        differs from the intended codeword value).
    saw_bits_per_word:
        Per-word count of wrong *bits*, used by the ECC substrates to judge
        whether the row is still recoverable.
    newly_stuck_cells:
        Cells that exceeded their endurance during this write.
    """

    address: int
    row_index: int
    data_energy_pj: float
    aux_energy_pj: float
    cells_changed: int
    bits_changed: int
    saw_cells: int
    saw_bits_per_word: Tuple[int, ...]
    newly_stuck_cells: int

    @property
    def total_energy_pj(self) -> float:
        """Total energy of the line write including auxiliary bits."""
        return self.data_energy_pj + self.aux_energy_pj


@dataclass
class ReplayResult:
    """Per-write accounting of one :meth:`MemoryController.replay_trace` call.

    Each attribute is a preallocated array with one entry per performed
    write, in replay order; every value is bit-identical to what the
    corresponding :class:`LineWriteResult` of a scalar
    :meth:`MemoryController.write_line` sequence would carry.

    Attributes
    ----------
    addresses / row_indices:
        Line address written and the physical row it mapped to.
    data_energy_pj / aux_energy_pj:
        Write energy spent on the data cells and the auxiliary bits.
    cells_changed / bits_changed:
        Cells (and bits) that actually changed state in the array.
    saw_cells:
        Stuck-at-wrong cells left by each write.
    saw_bits_per_word:
        ``(writes, words_per_line)`` matrix of residual wrong bits per word.
    newly_stuck_cells:
        Cells that exceeded their endurance during each write.
    writes:
        Number of writes performed (the common length of the arrays).
    stopped_early:
        True when the ``stop`` predicate ended the replay before the
        requested repetitions (or ``max_writes``) were exhausted.
    """

    addresses: np.ndarray
    row_indices: np.ndarray
    data_energy_pj: np.ndarray
    aux_energy_pj: np.ndarray
    cells_changed: np.ndarray
    bits_changed: np.ndarray
    saw_cells: np.ndarray
    saw_bits_per_word: np.ndarray
    newly_stuck_cells: np.ndarray
    words_per_line: int
    writes: int = 0
    stopped_early: bool = False

    # ------------------------------------------------------- aggregation
    def total_energy_pj(self) -> float:
        """Total write energy of the replay including auxiliary bits."""
        return float(self.data_energy_pj.sum() + self.aux_energy_pj.sum())

    def saw_words(self) -> int:
        """Number of written words left with at least one wrong bit."""
        return int(np.count_nonzero(self.saw_bits_per_word))

    def write_stats(self) -> WriteStats:
        """Aggregate the replay into a :class:`repro.pcm.stats.WriteStats`.

        Integer counters match :meth:`WriteStats.from_line_results` over
        :meth:`line_results` exactly; the float energy totals are computed
        with vectorised sums (same values up to floating-point summation
        order).
        """
        return WriteStats(
            words_written=self.writes * self.words_per_line,
            rows_written=self.writes,
            bits_changed=int(self.bits_changed.sum()),
            cells_changed=int(self.cells_changed.sum()),
            data_energy_pj=float(self.data_energy_pj.sum()),
            aux_energy_pj=float(self.aux_energy_pj.sum()),
            saw_cells=int(self.saw_cells.sum()),
            saw_words=self.saw_words(),
        )

    # ------------------------------------------------------ scalar views
    def line_result(self, index: int) -> LineWriteResult:
        """The :class:`LineWriteResult` view of one write of the replay."""
        if not 0 <= index < self.writes:
            raise MemoryModelError(f"write index {index} out of range [0, {self.writes})")
        return LineWriteResult(
            address=int(self.addresses[index]),
            row_index=int(self.row_indices[index]),
            data_energy_pj=float(self.data_energy_pj[index]),
            aux_energy_pj=float(self.aux_energy_pj[index]),
            cells_changed=int(self.cells_changed[index]),
            bits_changed=int(self.bits_changed[index]),
            saw_cells=int(self.saw_cells[index]),
            saw_bits_per_word=tuple(int(b) for b in self.saw_bits_per_word[index]),
            newly_stuck_cells=int(self.newly_stuck_cells[index]),
        )

    def line_results(self) -> List[LineWriteResult]:
        """All writes as scalar :class:`LineWriteResult` objects (slow path)."""
        return [self.line_result(index) for index in range(self.writes)]

    @classmethod
    def empty(cls, capacity: int, words_per_line: int) -> "ReplayResult":
        """Preallocate accounting arrays for up to ``capacity`` writes."""
        return cls(
            addresses=np.zeros(capacity, dtype=np.int64),
            row_indices=np.zeros(capacity, dtype=np.int64),
            data_energy_pj=np.zeros(capacity, dtype=np.float64),
            aux_energy_pj=np.zeros(capacity, dtype=np.float64),
            cells_changed=np.zeros(capacity, dtype=np.int64),
            bits_changed=np.zeros(capacity, dtype=np.int64),
            saw_cells=np.zeros(capacity, dtype=np.int64),
            saw_bits_per_word=np.zeros((capacity, words_per_line), dtype=np.int64),
            newly_stuck_cells=np.zeros(capacity, dtype=np.int64),
            words_per_line=words_per_line,
        )

    def _trim(self, writes: int, stopped_early: bool) -> "ReplayResult":
        """Shrink every array down to the writes actually performed.

        A copy (not a view) when the replay ended early, so a result of a
        few hundred writes does not pin the full-capacity arrays of a
        200k-write preallocation in memory.
        """
        compact = (
            (lambda array: array[:writes].copy())
            if writes < len(self.addresses)
            else (lambda array: array)
        )
        self.addresses = compact(self.addresses)
        self.row_indices = compact(self.row_indices)
        self.data_energy_pj = compact(self.data_energy_pj)
        self.aux_energy_pj = compact(self.aux_energy_pj)
        self.cells_changed = compact(self.cells_changed)
        self.bits_changed = compact(self.bits_changed)
        self.saw_cells = compact(self.saw_cells)
        self.saw_bits_per_word = compact(self.saw_bits_per_word)
        self.newly_stuck_cells = compact(self.newly_stuck_cells)
        self.writes = writes
        self.stopped_early = stopped_early
        return self


class MemoryController:
    """Drives the encrypt -> encode -> write pipeline against a PCM array.

    Parameters
    ----------
    array:
        Target :class:`repro.pcm.array.PCMArray`.
    encoder:
        Word-level encoding technique (any :class:`repro.coding.base.Encoder`).
    config:
        Line/word geometry and whether encryption is enabled.
    encryption:
        Counter-mode engine; created on demand when ``config.encrypt`` and
        none is supplied.
    mlc_energy / slc_energy:
        Energy models used for *accounting* the writes that actually happen
        (independent of whatever cost function the encoder optimises).
    use_fault_context:
        Backwards-compatible switch: ``False`` is equivalent to
        ``fault_knowledge="none"``.
    fault_knowledge:
        How the encoder learns about stuck cells: ``"oracle"`` (the array's
        ground truth, the paper's assumption of an ideal fault repository),
        ``"discovered"`` (a :class:`repro.pcm.faultrepo.FaultRepository`
        populated by write-verify mismatches), or ``"none"``.
    wear_leveler:
        Optional Start-Gap wear leveler.  When present, line addresses are
        first mapped to logical rows and then rotated onto physical rows;
        the array must provide ``wear_leveler.physical_rows_required`` rows.
    fault_model:
        Optional :class:`repro.faults.models.FaultModel` whose *sensing*
        effects attach here: a model with a nonzero ``read_flip_rate``
        (e.g. ``transient``) perturbs the old-row view the encoder sees on
        each read-before-write.  Energy/bit accounting always uses the
        true array state — only the encoder's context is perturbed.
    read_corrector:
        Optional :class:`repro.ecc.base.ErrorCorrector` adjudicating
        sensed reads: flips within its budget are repaired before the
        encoder observes them, the rest escape into the line context.
    """

    def __init__(
        self,
        array: PCMArray,
        encoder: Encoder,
        config: Optional[ControllerConfig] = None,
        encryption: Optional[CounterModeEngine] = None,
        mlc_energy: MLCEnergyModel = DEFAULT_MLC_ENERGY,
        slc_energy: SLCEnergyModel = DEFAULT_SLC_ENERGY,
        use_fault_context: bool = True,
        fault_knowledge: Optional[str] = None,
        wear_leveler: Optional[StartGapWearLeveler] = None,
        fault_model: Optional["FaultModel"] = None,
        read_corrector: Optional[ErrorCorrector] = None,
    ):
        self.config = config or ControllerConfig()
        if array.word_bits != self.config.word_bits:
            raise ConfigurationError("array word size does not match controller config")
        if array.row_bits != self.config.line_bits:
            raise ConfigurationError(
                "controller assumes one cache line per array row "
                f"(line {self.config.line_bits} bits vs row {array.row_bits} bits)"
            )
        if encoder.word_bits != self.config.word_bits:
            raise ConfigurationError("encoder word size does not match controller config")
        if encoder.technology is not array.technology:
            raise ConfigurationError("encoder and array cell technologies differ")
        self.array = array
        self.encoder = encoder
        self.mlc_energy = mlc_energy
        self.slc_energy = slc_energy
        if fault_knowledge is None:
            fault_knowledge = "oracle" if use_fault_context else "none"
        if fault_knowledge not in FAULT_KNOWLEDGE_MODES:
            raise ConfigurationError(
                f"fault_knowledge must be one of {FAULT_KNOWLEDGE_MODES}, got {fault_knowledge!r}"
            )
        self.fault_knowledge = fault_knowledge
        self.use_fault_context = fault_knowledge != "none"
        self.fault_repository = (
            FaultRepository(array.rows, array.cells_per_row)
            if fault_knowledge == "discovered"
            else None
        )
        self.wear_leveler = wear_leveler
        if wear_leveler is not None and array.rows < wear_leveler.physical_rows_required:
            raise ConfigurationError(
                "the array must provide at least "
                f"{wear_leveler.physical_rows_required} rows for Start-Gap "
                f"wear leveling, got {array.rows}"
            )
        if self.config.encrypt:
            self.encryption = encryption or CounterModeEngine(
                line_bits=self.config.line_bits, word_bits=self.config.word_bits
            )
        else:
            self.encryption = None
        self.stats = WriteStats()
        # Auxiliary bits stored per (row, word); modelled as living in a
        # dedicated side region (the SECDED-budget bits of Section V).
        # Techniques with >= 64 auxiliary bits per word don't fit int64 and
        # fall back to Python ints in an object array.
        self._wide_aux = encoder.aux_bits >= 64
        if self._wide_aux:
            self._aux_store = np.zeros(
                (array.rows, self.config.words_per_line), dtype=object
            )
        else:
            self._aux_store = np.zeros(
                (array.rows, self.config.words_per_line), dtype=np.int64
            )
        self._bit_popcount = np.array([0, 1, 1, 2], dtype=np.int64)
        self._energy_lut = (
            self.mlc_energy.lut()
            if array.technology is CellTechnology.MLC
            else np.array(
                [
                    [0.0, self.slc_energy.set_energy_pj],
                    [self.slc_energy.reset_energy_pj, 0.0],
                ]
            )
        )
        self._aux_bit_energy = (
            self.mlc_energy.aux_bit_energy_pj
            if array.technology is CellTechnology.MLC
            else self.slc_energy.aux_bit_energy_pj
        )
        #: Cap on the lines encoded per replay wave (see REPLAY_WAVE_LINES);
        #: exposed as an attribute so studies with huge candidate sets can
        #: trade peak memory against batching.
        self.replay_wave_lines = REPLAY_WAVE_LINES
        self.fault_model = fault_model
        self.read_corrector = read_corrector
        self._read_flip_rate = float(fault_model.read_flip_rate) if fault_model else 0.0
        if self._read_flip_rate > 0.0:
            # Sensed-read bookkeeping: one seeded stream per (row, nth read
            # of that row), so scalar replays and wave gathers perturb the
            # same reads identically regardless of batching.
            self._sense_seed: Optional[int] = derive_seed(
                array.seed if array.seed is not None else 0, "transient-sense"
            )
            self._sense_counts: Optional[np.ndarray] = np.zeros(array.rows, dtype=np.int64)
        else:
            self._sense_seed = None
            self._sense_counts = None

    # ------------------------------------------------------------- mapping
    def row_for_address(self, address: int) -> int:
        """Map a line address onto a physical array row.

        Without wear leveling this is a direct modulo mapping; with
        Start-Gap enabled the logical row is additionally rotated onto its
        current physical position.
        """
        if address < 0:
            raise MemoryModelError("addresses must be non-negative")
        if self.wear_leveler is None:
            return address % self.array.rows
        logical = address % self.wear_leveler.rows
        return self.wear_leveler.physical_row(logical)

    # --------------------------------------------------------------- write
    def write_line(self, address: int, plaintext_words: Sequence[int]) -> LineWriteResult:
        """Encrypt, encode, and write one cache line."""
        if address < 0:
            raise MemoryModelError("addresses must be non-negative")
        words = list(plaintext_words)
        if len(words) != self.config.words_per_line:
            raise ConfigurationError(
                f"expected {self.config.words_per_line} words per line, got {len(words)}"
            )
        if self.encryption is not None:
            encrypted = list(self.encryption.encrypt_line(address, words).words)
        else:
            encrypted = [int(w) for w in words]

        (
            row_index,
            data_energy,
            aux_energy,
            cells_changed,
            bits_changed,
            saw_count,
            saw_bits,
            newly_stuck,
        ) = self._apply_line_write(address, encrypted)

        line_result = LineWriteResult(
            address=address,
            row_index=row_index,
            data_energy_pj=data_energy,
            aux_energy_pj=aux_energy,
            cells_changed=cells_changed,
            bits_changed=bits_changed,
            saw_cells=saw_count,
            saw_bits_per_word=tuple(int(count) for count in saw_bits),
            newly_stuck_cells=newly_stuck,
        )
        self._accumulate(line_result)
        return line_result

    def _apply_line_write(self, address: int, encrypted: Sequence[int]):
        """Encode and store one already-encrypted line; return raw accounting.

        The shared core of :meth:`write_line` and the generic path of
        :meth:`replay_trace`: both produce bit-identical accounting because
        both run exactly this code.  Returns the tuple ``(row_index,
        data_energy_pj, aux_energy_pj, cells_changed, bits_changed,
        saw_cells, saw_bits_per_word, newly_stuck)`` with
        ``saw_bits_per_word`` as an ``int64`` array.
        """
        row_index = self.row_for_address(address)
        old_row = self.array.read_row(row_index)
        stuck_row = self._stuck_knowledge(row_index)
        words_per_line = self.config.words_per_line

        old_auxes = self._aux_store[row_index].copy()
        context = LineContext.from_row(
            self._sensed_view(old_row, row_index),
            words_per_line,
            bits_per_cell=self.array.bits_per_cell,
            stuck_mask=stuck_row,
            old_auxes=old_auxes,
        )
        encoded = self.encoder.encode_line(encrypted, context)
        intended_row = words_matrix_to_cells(
            np.array(encoded.codewords, dtype=np.uint64)
            if self.config.word_bits <= 64
            else list(encoded.codewords),
            self.config.word_bits,
            self.array.bits_per_cell,
        ).reshape(-1)
        if self._wide_aux:
            new_auxes = np.array(encoded.auxes, dtype=object)
            changed_aux_bits = sum(
                bin(int(new) ^ int(old)).count("1")
                for new, old in zip(encoded.auxes, old_auxes)
            )
        else:
            new_auxes = np.array(encoded.auxes, dtype=np.int64)
            changed_aux_bits = int(
                popcount64_array(
                    new_auxes.astype(np.uint64) ^ old_auxes.astype(np.uint64)
                ).sum()
            )
        aux_energy = self._aux_bit_energy * changed_aux_bits

        result = self.array.write_row(row_index, intended_row)
        data_energy = float(
            self._energy_lut[old_row.astype(np.int64), intended_row.astype(np.int64)].sum()  # repro: allow[NUM001] reason=this IS the scalar oracle; the gather materialises a fresh C-contiguous row, and test_replay_parity locks the batched paths to it
        )
        bits_changed = self._count_changed_bits(result.old_cells, result.stored_cells)
        saw_bits = self._saw_bits_per_word(result.stored_cells, intended_row)

        self._aux_store[row_index] = new_auxes

        if self.fault_repository is not None:
            # The write-verify step exposes cells that did not take the
            # intended value; record them for the next write to this row.
            self.fault_repository.observe_write(row_index, intended_row, result.stored_cells)
        if self.wear_leveler is not None:
            movement = self.wear_leveler.record_write()
            if movement is not None:
                self._migrate_row(*movement)

        return (
            row_index,
            data_energy,
            aux_energy,
            result.cells_changed,
            bits_changed,
            result.saw_count,
            saw_bits,
            result.newly_stuck,
        )

    # -------------------------------------------------------------- replay
    def replay_trace(
        self,
        trace: "Trace",
        repetitions: int = 1,
        stop: Optional[ReplayStop] = None,
        max_writes: Optional[int] = None,
    ) -> ReplayResult:
        """Replay a writeback trace ``repetitions`` times through the write path.

        The batched sibling of a :meth:`write_line` loop: the whole replay
        runs inside the controller, accumulating per-write accounting into
        the preallocated arrays of a :class:`ReplayResult` instead of one
        :class:`LineWriteResult` (plus several lists and tuples) per write.
        Every accounting value is bit-identical to the scalar path — the
        generic path runs the exact same :meth:`_apply_line_write` core,
        and the identity-encoder fast path skips only work whose outcome
        is fixed (the unencoded baseline stores the ciphertext unchanged
        with no auxiliary bits).  The controller's running
        :attr:`stats` are updated once at the end with the batch totals.

        Parameters
        ----------
        trace:
            A :class:`repro.traces.trace.Trace` whose geometry matches the
            controller configuration.
        repetitions:
            How many times to replay the trace end to end.
        stop:
            Optional early-stop predicate called after every write as
            ``stop(index, row_index, saw_cells, saw_bits_per_word)``;
            returning True ends the replay after that write (lifetime
            studies stop on the Nth failed row instead of paying for the
            remaining writes).
        max_writes:
            Optional hard cap on the total number of writes, applied on
            top of ``repetitions`` (the last repetition may be partial).
        """
        if repetitions < 0:
            raise ConfigurationError("repetitions must be non-negative")
        if trace.word_bits != self.config.word_bits:
            raise ConfigurationError(
                f"trace word size ({trace.word_bits} bits) does not match "
                f"the controller ({self.config.word_bits} bits)"
            )
        if trace.words_per_line != self.config.words_per_line:
            raise ConfigurationError(
                f"trace geometry ({trace.words_per_line} words per line) does not "
                f"match the controller ({self.config.words_per_line} words per line)"
            )
        if max_writes is not None and max_writes < 0:
            raise ConfigurationError("max_writes must be non-negative")

        num_records = len(trace)
        total = num_records * repetitions
        if max_writes is not None:
            total = min(total, max_writes)
        words_per_line = self.config.words_per_line
        replay = ReplayResult.empty(total, words_per_line)
        if total == 0:
            return replay._trim(0, False)

        reps_needed = -(-total // num_records)
        addresses = np.tile(trace.addresses_array(), reps_needed)[:total]
        words = trace.words_array()

        def plaintext_for(index: int) -> List[int]:
            # Wide/odd word sizes: per-record scalar fallback.
            return list(trace[index % num_records].words)

        # Chunked execution: pads and cell conversions are produced only
        # for writes about to be performed.  The geometric chunk ramp
        # bounds the work wasted when an early stop ends the replay after
        # a few hundred writes (lifetime cells stop at a tiny fraction of
        # their max_writes cap) without costing long replays anything,
        # and an early stop rolls the encryption counters of the unused
        # chunk tail back so controller state matches the scalar path
        # exactly.
        chunk = 512
        start = 0
        performed = 0
        stopped = False
        batch_capable = words is not None
        with _OBS_SPAN("replay.trace", total_writes=total) as trace_span:
            while start < total and not stopped:
                end = min(start + chunk, total)
                chunk = min(chunk * 2, 8192)
                encrypted_chunk: Optional[np.ndarray] = None
                if batch_capable:
                    record_indices = np.arange(start, end, dtype=np.int64) % num_records
                    chunk_words = words[record_indices]
                    if self.encryption is None:
                        encrypted_chunk = chunk_words
                    else:
                        encrypted_chunk = self.encryption.encrypt_lines(
                            addresses[start:end], chunk_words
                        )
                        if encrypted_chunk is None:
                            batch_capable = False
                if encrypted_chunk is not None and self.encoder.is_identity:
                    _OBS_IDENTITY_CHUNKS.inc()
                    performed, stopped = self._replay_identity(
                        replay, addresses, encrypted_chunk, start, end, stop
                    )
                else:
                    performed, stopped = self._replay_generic(
                        replay, plaintext_for, addresses, encrypted_chunk, start, end, stop
                    )
                if (
                    stopped
                    and performed < end
                    and encrypted_chunk is not None
                    and self.encryption is not None
                ):
                    self.encryption.rollback_counters(addresses[performed:end])
                start = end
            if stopped:
                _OBS_EARLY_STOPS.inc()
                _OBS_EARLY_STOP_INDEX.set(performed)
            trace_span.set(performed=performed, stopped=stopped)
        replay._trim(performed, stopped)
        self.stats.absorb(replay.write_stats())
        return replay

    def _replay_identity(
        self,
        replay: ReplayResult,
        addresses: np.ndarray,
        encrypted_chunk: np.ndarray,
        start: int,
        end: int,
        stop: Optional[ReplayStop],
    ):
        """Replay fast path for identity encoders over writes [start, end).

        The stored values are the ciphertext words themselves and no
        auxiliary bits exist, so the per-write work reduces to the array
        write; everything else (energy, changed bits/cells, SAW) is a pure
        function of the (old, stored, intended) cell rows and is computed
        in one vectorised flush per chunk — row-wise NumPy reductions are
        bit-identical to the scalar path's per-row reductions.  Returns
        ``(performed, stopped)`` with ``performed`` the global write count.
        """
        count = end - start
        array = self.array
        bits_per_cell = array.bits_per_cell
        words_per_line = self.config.words_per_line
        cells_chunk = words_matrix_to_cells(
            encrypted_chunk, self.config.word_bits, bits_per_cell
        ).reshape(count, array.cells_per_row)
        popcount = self._bit_popcount
        write_row_fast = array.write_row_fast
        repository = self.fault_repository
        leveler = self.wear_leveler
        chunk_addresses = addresses[start:end]
        row_indices = None if leveler is not None else chunk_addresses % array.rows
        np.copyto(replay.addresses[start:end], chunk_addresses)
        out_rows = replay.row_indices
        out_newly = replay.newly_stuck_cells

        old_buffer = np.empty((count, array.cells_per_row), dtype=np.uint8)
        stored_buffer = np.empty_like(old_buffer)
        zero_saw_bits = np.zeros(words_per_line, dtype=np.int64)

        performed = start
        stopped = False
        for local in range(count):
            index = start + local
            if row_indices is not None:
                row_index = row_indices[local]
            else:
                row_index = self.row_for_address(int(chunk_addresses[local]))
            intended = cells_chunk[local]
            old, stored, changed_mask, saw_mask, newly_stuck = write_row_fast(
                row_index, intended
            )
            old_buffer[local] = old
            stored_buffer[local] = stored
            out_rows[index] = row_index
            out_newly[index] = newly_stuck

            if repository is not None:
                repository.observe_write(row_index, intended, stored)
            if leveler is not None:
                movement = leveler.record_write()
                if movement is not None:
                    self._migrate_row(*movement)

            performed = index + 1
            if stop is not None:
                saw_count = int(saw_mask.sum())
                if saw_count:
                    wrong = stored ^ intended
                    saw_bits = (
                        popcount[wrong]
                        if bits_per_cell == 2
                        else (wrong != 0).astype(np.int64)
                    ).reshape(words_per_line, -1).sum(axis=1)
                else:
                    saw_bits = zero_saw_bits
                if stop(index, int(row_index), saw_count, saw_bits):
                    stopped = True
                    break

        done = performed - start
        # Identity encoders store no auxiliary bits: aux energy stays 0.
        self._flush_replay_accounting(
            replay, start, performed, old_buffer[:done], stored_buffer[:done], cells_chunk[:done]
        )
        return performed, stopped

    def _flush_replay_accounting(
        self,
        replay: ReplayResult,
        lo: int,
        hi: int,
        old_rows: np.ndarray,
        stored_rows: np.ndarray,
        intended_rows: np.ndarray,
    ) -> None:
        """Vectorised accounting flush for applied replay writes ``[lo, hi)``.

        Energy, changed bits/cells, and SAW counts are pure functions of
        the (old, stored, intended) cell rows; row-wise NumPy reductions
        over the buffered rows are bit-identical to the scalar path's
        per-row reductions.  A stored cell differs from the intended value
        exactly at the stuck-at-wrong positions, so SAW counts fall out of
        the xor.
        """
        if lo >= hi:
            return
        popcount = self._bit_popcount
        bits_per_cell = self.array.bits_per_cell
        replay.data_energy_pj[lo:hi] = self._energy_lut[old_rows, intended_rows].sum(axis=1)  # repro: allow[NUM001] reason=advanced indexing copies into a fresh C-contiguous (rows, cells) block, so the axis-1 pairwise sums match the per-row oracle (parity-locked by test_replay_parity)
        changed = stored_rows != old_rows
        replay.cells_changed[lo:hi] = np.count_nonzero(changed, axis=1)
        if bits_per_cell == 1:
            replay.bits_changed[lo:hi] = np.count_nonzero(old_rows ^ stored_rows, axis=1)
        else:
            replay.bits_changed[lo:hi] = popcount[old_rows ^ stored_rows].sum(axis=1)
        wrong_xor = stored_rows ^ intended_rows
        replay.saw_cells[lo:hi] = np.count_nonzero(wrong_xor, axis=1)
        wrong_bits = (
            popcount[wrong_xor]
            if bits_per_cell == 2
            else (wrong_xor != 0).astype(np.int64)
        )
        replay.saw_bits_per_word[lo:hi] = wrong_bits.reshape(
            hi - lo, self.config.words_per_line, -1
        ).sum(axis=2)

    def _replay_generic(
        self,
        replay: ReplayResult,
        plaintext_for: Callable[[int], List[int]],
        addresses: np.ndarray,
        encrypted_chunk: Optional[np.ndarray],
        start: int,
        end: int,
        stop: Optional[ReplayStop],
    ):
        """Replay path for arbitrary encoders over writes [start, end).

        Wave execution: the chunk is partitioned into runs of writes
        targeting *distinct* rows.  Within such a wave no write can observe
        another's row, stuck mask, or auxiliary bits, so the old-cell state
        of every line is gathered up front in one
        :meth:`repro.pcm.array.PCMArray.read_rows` call and all lines are
        encoded through a single :meth:`repro.coding.base.Encoder.encode_lines`
        call — the selected codewords are bit-identical to encoding at each
        write's turn.  A write to a row already queued in the wave starts
        the next wave, and with Start-Gap wear leveling a wave never spans
        a gap migration (the mapping rotation and the migration write land
        strictly after the wave's last write).  The writes themselves then
        apply sequentially through the array's stuck/wear semantics, with
        the per-write accounting flushed wave-at-a-time by the same
        vectorised reductions as the identity fast path.  Returns
        ``(performed, stopped)`` like :meth:`_replay_identity`.

        ``plaintext_for`` supplies the plaintext word list of one write for
        the scalar-encryption fallback (odd word widths, where no batched
        ciphertext chunk exists and :meth:`_replay_generic_scalar` runs
        instead).
        """
        if encrypted_chunk is None:
            _OBS_SCALAR_FALLBACKS.inc()
            return self._replay_generic_scalar(
                replay, plaintext_for, addresses, start, end, stop
            )
        array = self.array
        leveler = self.wear_leveler
        repository = self.fault_repository
        words_per_line = self.config.words_per_line
        bits_per_cell = array.bits_per_cell
        popcount = self._bit_popcount
        zero_saw_bits = np.zeros(words_per_line, dtype=np.int64)
        np.copyto(replay.addresses[start:end], addresses[start:end])
        # Without wear leveling the address-to-row mapping is fixed, so the
        # whole chunk's rows are computed in one vectorised modulo.
        row_lookup = (
            None if leveler is not None else (addresses[start:end] % array.rows).tolist()
        )

        index = start
        performed = start
        stopped = False
        while index < end and not stopped:
            # ---- wave selection: a maximal run of writes to distinct rows.
            limit = min(end - index, self.replay_wave_lines)
            gap_capped = False
            if leveler is not None:
                # The next gap migration rewrites a row and rotates the
                # mapping; capping the wave at the write that triggers it
                # keeps the migration strictly after the wave's last write.
                until_gap = leveler.writes_until_gap_move
                if until_gap < limit:
                    limit = until_gap
                    gap_capped = True
            rows: List[int] = []
            seen = set()
            scan = index
            while scan < end and len(rows) < limit:
                if row_lookup is not None:
                    row_index = row_lookup[scan - start]
                else:
                    row_index = self.row_for_address(int(addresses[scan]))
                if row_index in seen:
                    break
                seen.add(row_index)
                rows.append(row_index)
                scan += 1
            count = len(rows)
            row_array = np.asarray(rows, dtype=np.intp)
            _OBS_WAVES.inc()
            _OBS_WAVE_LINES.observe(count)
            if scan < end and count < limit:
                _OBS_CONFLICT_CUTS.inc()
            elif gap_capped and count == limit:
                _OBS_GAP_FLUSHES.inc()

            with _OBS_SPAN("replay.wave", lines=count):
                # ---- one gather per wave: rows, stuck knowledge, aux bits.
                old_rows = array.read_rows(row_array)
                stuck_rows = self._stuck_rows(row_array)
                old_auxes = self._aux_store[row_array]
                sensed_rows = self._sensed_rows(old_rows, rows)
                contexts = [
                    LineContext.from_rows(
                        sensed_rows, words_per_line, bits_per_cell, stuck_rows, old_auxes, line
                    )
                    for line in range(count)
                ]
                encoded = self.encoder.encode_lines(
                    encrypted_chunk[index - start: scan - start], contexts
                )
                intended_rows = words_matrix_to_cells(
                    np.array([line.codewords for line in encoded], dtype=np.uint64),
                    self.config.word_bits,
                    bits_per_cell,
                ).reshape(count, array.cells_per_row)
                new_auxes = self._wave_aux_values(encoded)
                replay.row_indices[index:scan] = rows

                if stop is None and leveler is None:
                    # ---- whole-wave apply: with no early-stop predicate and no
                    # gap migrations pending, the distinct-row writes commute
                    # into one fancy-index scatter (write_rows_fast is
                    # bit-identical to looping write_row_fast in order).
                    _old, stored_rows, _changed, _saw, newly = array.write_rows_fast(
                        row_array, intended_rows
                    )
                    self._aux_store[row_array] = new_auxes
                    replay.newly_stuck_cells[index:scan] = newly
                    if repository is not None:
                        # observe_write is a no-op for rows whose stored cells
                        # all match; only mismatching rows carry discoveries.
                        for line in np.nonzero((stored_rows != intended_rows).any(axis=1))[0]:
                            repository.observe_write(
                                rows[line], intended_rows[line], stored_rows[line]
                            )
                    applied = count
                    performed = scan
                    self._flush_replay_accounting(
                        replay, index, performed, old_rows, stored_rows, intended_rows
                    )
                    self._flush_aux_energy(replay, index, performed, new_auxes, old_auxes)
                    index = scan
                    continue

                # ---- apply sequentially; accounting flushes once per wave.
                stored_rows = np.empty_like(old_rows)
                write_row_fast = array.write_row_fast
                applied = 0
                for line in range(count):
                    index_global = index + line
                    row_index = rows[line]
                    intended = intended_rows[line]
                    _old, stored, _changed, saw_mask, newly_stuck = write_row_fast(
                        row_index, intended
                    )
                    stored_rows[line] = stored
                    self._aux_store[row_index] = new_auxes[line]
                    replay.newly_stuck_cells[index_global] = newly_stuck
                    if repository is not None:
                        repository.observe_write(row_index, intended, stored)
                    if leveler is not None:
                        movement = leveler.record_write()
                        if movement is not None:
                            self._migrate_row(*movement)
                    applied = line + 1
                    performed = index_global + 1
                    if stop is not None:
                        saw_count = int(saw_mask.sum())
                        if saw_count:
                            wrong = stored ^ intended
                            saw_bits = (
                                popcount[wrong]
                                if bits_per_cell == 2
                                else (wrong != 0).astype(np.int64)
                            ).reshape(words_per_line, -1).sum(axis=1)
                        else:
                            saw_bits = zero_saw_bits
                        if stop(index_global, int(row_index), saw_count, saw_bits):
                            stopped = True
                            break
                self._flush_replay_accounting(
                    replay,
                    index,
                    performed,
                    old_rows[:applied],
                    stored_rows[:applied],
                    intended_rows[:applied],
                )
                self._flush_aux_energy(
                    replay, index, performed, new_auxes[:applied], old_auxes[:applied]
                )
                index = scan
        return performed, stopped

    def _wave_aux_values(self, encoded_lines: List[EncodedLine]) -> np.ndarray:
        """The wave's auxiliary values as a ``(lines, words)`` aux-store block."""
        rows = [encoded.auxes for encoded in encoded_lines]
        if self._wide_aux:
            return np.array(rows, dtype=object)
        return np.array(rows, dtype=np.int64)

    def _flush_aux_energy(
        self,
        replay: ReplayResult,
        lo: int,
        hi: int,
        new_auxes: np.ndarray,
        old_auxes: np.ndarray,
    ) -> None:
        """Auxiliary-bit write energy for applied wave writes ``[lo, hi)``.

        Charges the bits that changed between the stored and the new
        auxiliary values, exactly as :meth:`_apply_line_write` does per
        write (same popcounts, same float multiply).
        """
        if lo >= hi:
            return
        if self._wide_aux:
            for line in range(hi - lo):
                changed = sum(
                    bin(int(new) ^ int(old)).count("1")
                    for new, old in zip(new_auxes[line], old_auxes[line])
                )
                replay.aux_energy_pj[lo + line] = self._aux_bit_energy * changed
            return
        changed = popcount64_array(
            new_auxes.astype(np.uint64) ^ old_auxes.astype(np.uint64)
        ).sum(axis=1)
        replay.aux_energy_pj[lo:hi] = self._aux_bit_energy * changed

    def _sensed_view(self, old_row: np.ndarray, row_index: int) -> np.ndarray:
        """The old-row state the encoder observes for one read-before-write.

        With no fault model (or a zero flip rate) this is ``old_row``
        itself.  Under a transient model each read of a row draws its own
        seeded stream keyed by ``(row, nth-read-of-row)``: the number of
        mis-sensed cells is binomial in the flip rate, the read corrector
        (when present) repairs reads within its budget, and only escaped
        flips reach the returned copy.  The true ``old_row`` is never
        mutated — accounting stays on the real array state.
        """
        if self._sense_counts is None or self._sense_seed is None:
            return old_row
        count = int(self._sense_counts[row_index])
        self._sense_counts[row_index] = count + 1
        rng = make_rng(derive_seed(self._sense_seed, f"{row_index}:{count}"), "sense")
        cells = old_row.shape[0]
        flips = int(rng.binomial(cells, self._read_flip_rate))
        if flips == 0:
            return old_row
        positions = rng.choice(cells, size=flips, replace=False)
        _OBS_TRANSIENT_FLIPS.inc(flips)
        if self.read_corrector is not None:
            # Each mis-sensed cell is one wrong bit (the flip toggles the
            # low bit of the cell's symbol); bucket them per word and ask
            # the corrector whether its budget covers the read.
            cells_per_word = cells // self.config.words_per_line
            wrong_bits_per_word = np.bincount(
                positions // cells_per_word, minlength=self.config.words_per_line
            )
            if self.read_corrector.row_outcome(wrong_bits_per_word.tolist()).correctable:
                _OBS_TRANSIENT_CORRECTED.inc()
                return old_row
        _OBS_TRANSIENT_ESCAPED.inc()
        sensed = old_row.copy()
        sensed[positions] ^= 1
        return sensed

    def _sensed_rows(self, old_rows: np.ndarray, rows: List[int]) -> np.ndarray:
        """Wave sibling of :meth:`_sensed_view` over distinct rows.

        Rows within a wave are pairwise distinct, so perturbing each
        gathered row once — in wave order — consumes exactly the per-row
        streams a sequential scalar replay of the same writes would, which
        keeps wave and scalar encoder inputs bit-identical.
        """
        if self._sense_counts is None:
            return old_rows
        sensed = old_rows.copy()
        for line, row_index in enumerate(rows):
            sensed[line] = self._sensed_view(old_rows[line], row_index)
        return sensed

    def _stuck_rows(self, row_indices: np.ndarray) -> Optional[np.ndarray]:
        """The stuck masks the encoder may see for a wave of rows."""
        if self.fault_knowledge == "oracle":
            return self.array.stuck_rows(row_indices)
        if self.fault_knowledge == "discovered":
            return np.stack(
                [self.fault_repository.stuck_mask(int(row)) for row in row_indices]
            )
        return None

    def _replay_generic_scalar(
        self,
        replay: ReplayResult,
        plaintext_for: Callable[[int], List[int]],
        addresses: np.ndarray,
        start: int,
        end: int,
        stop: Optional[ReplayStop],
    ):
        """Per-write fallback of :meth:`_replay_generic` (odd word widths).

        Runs when no batched ciphertext chunk exists; each write encrypts
        scalar-wise and runs the identical :meth:`_apply_line_write` core.
        """
        encryption = self.encryption
        performed = start
        stopped = False
        for index in range(start, end):
            words = plaintext_for(index)
            if encryption is not None:
                encrypted = list(
                    encryption.encrypt_line(int(addresses[index]), words).words
                )
            else:
                encrypted = [int(w) for w in words]
            (
                row_index,
                data_energy,
                aux_energy,
                cells_changed,
                bits_changed,
                saw_count,
                saw_bits,
                newly_stuck,
            ) = self._apply_line_write(int(addresses[index]), encrypted)
            replay.addresses[index] = addresses[index]
            replay.row_indices[index] = row_index
            replay.data_energy_pj[index] = data_energy
            replay.aux_energy_pj[index] = aux_energy
            replay.cells_changed[index] = cells_changed
            replay.bits_changed[index] = bits_changed
            replay.saw_cells[index] = saw_count
            replay.saw_bits_per_word[index] = saw_bits
            replay.newly_stuck_cells[index] = newly_stuck

            performed = index + 1
            if stop is not None and stop(index, row_index, saw_count, saw_bits):
                stopped = True
                break
        return performed, stopped

    # -------------------------------------------------------- random lines
    def write_random_lines(
        self,
        num_lines: int,
        rng: np.random.Generator,
        address_space: Optional[int] = None,
    ) -> ReplayResult:
        """Write ``num_lines`` uniformly random lines to random addresses.

        The batched sibling of the scalar random-line loop (one
        ``rng.integers`` address draw plus one :func:`repro.utils.bitops.random_word`
        per word, then :meth:`write_line`): line data is drawn in chunks
        with the *exact same generator call sequence* — so the addresses
        and words are bit-identical to the scalar loop's — and driven
        through :meth:`replay_trace`'s internals: chunked counter-mode
        pads, the identity-encoder fast path for the unencoded baselines,
        and per-write accounting in the preallocated arrays of a
        :class:`ReplayResult`.  Controller state (array contents,
        encryption counters, auxiliary bits, wear) after the call matches
        the scalar sequence exactly, so scalar and batched drives can
        interleave.

        Parameters
        ----------
        num_lines:
            Number of random lines to write.
        rng:
            Source generator for addresses and line data (the caller owns
            the seeding; pass a fresh ``make_rng(seed, label)`` stream for
            reproducible studies).
        address_space:
            Addresses are drawn uniformly from ``[0, address_space)``;
            defaults to the array's row count.
        """
        if num_lines < 0:
            raise ConfigurationError("num_lines must be non-negative")
        if address_space is None:
            address_space = self.array.rows
        if address_space <= 0:
            raise ConfigurationError("address_space must be positive")
        words_per_line = self.config.words_per_line
        replay = ReplayResult.empty(num_lines, words_per_line)
        if num_lines == 0:
            return replay._trim(0, False)

        # Chunked like replay_trace: pads and cell conversions are only
        # produced for a bounded window of writes at a time, with the same
        # geometric ramp.  There is no early-stop predicate here (the
        # random-line studies always run to completion), so no counter
        # rollback is ever needed.
        addresses = np.empty(num_lines, dtype=np.int64)
        chunk = 512
        start = 0
        performed = 0
        while start < num_lines:
            end = min(start + chunk, num_lines)
            chunk = min(chunk * 2, 8192)
            chunk_addresses, plaintext = self._draw_random_lines(
                rng, end - start, address_space
            )
            addresses[start:end] = chunk_addresses
            encrypted_chunk: Optional[np.ndarray] = None
            if isinstance(plaintext, np.ndarray):
                if self.encryption is None:
                    encrypted_chunk = plaintext
                else:
                    encrypted_chunk = self.encryption.encrypt_lines(
                        chunk_addresses, plaintext
                    )
            if encrypted_chunk is not None and self.encoder.is_identity:
                performed, _ = self._replay_identity(
                    replay, addresses, encrypted_chunk, start, end, None
                )
            else:
                def plaintext_for(index: int, _base=start, _rows=plaintext) -> List[int]:
                    return [int(word) for word in _rows[index - _base]]

                performed, _ = self._replay_generic(
                    replay, plaintext_for, addresses, encrypted_chunk, start, end, None
                )
            start = end
        replay._trim(performed, False)
        self.stats.absorb(replay.write_stats())
        return replay

    def _draw_random_lines(
        self, rng: np.random.Generator, count: int, address_space: int
    ):
        """Draw ``count`` random (address, line) pairs from ``rng``.

        Consumes the generator with the exact call sequence of the scalar
        oracle loop — per line one ``integers(0, address_space)`` draw
        followed by the per-word chunk draws of
        :func:`repro.utils.bitops.random_word` — so a batched drive sees
        the same addresses and words a :meth:`write_line` loop would.  The
        word-chunk draws are vectorised per line (one ``integers`` call
        covering all words), which numpy fills sequentially and therefore
        stream-identically to the scalar calls.

        Returns ``(addresses, words)`` with ``words`` a
        ``(count, words_per_line)`` ``uint64`` matrix when the word width
        fits, else a list of per-line Python-int word lists.
        """
        word_bits = self.config.word_bits
        words_per_line = self.config.words_per_line
        chunk_widths = []
        remaining = word_bits
        while remaining > 0:
            width = min(remaining, 32)
            chunk_widths.append(width)
            remaining -= width
        addresses = np.empty(count, dtype=np.int64)
        if word_bits <= 64 and len(set(chunk_widths)) == 1:
            width = chunk_widths[0]
            chunks_per_word = len(chunk_widths)
            draws_per_line = words_per_line * chunks_per_word
            high = 1 << width
            draws = np.empty((count, draws_per_line), dtype=np.uint64)
            for line in range(count):
                addresses[line] = rng.integers(0, address_space)
                draws[line] = rng.integers(0, high, size=draws_per_line)
            if chunks_per_word == 1:
                return addresses, draws
            # random_word draws the most significant chunk first.
            shaped = draws.reshape(count, words_per_line, chunks_per_word)
            words = np.zeros((count, words_per_line), dtype=np.uint64)
            for position in range(chunks_per_word):
                words = (words << np.uint64(width)) | shaped[:, :, position]
            return addresses, words
        # Mixed chunk widths (word_bits not a multiple of 32) or words
        # wider than uint64: fall back to the scalar word generator.
        lines = []
        for line in range(count):
            addresses[line] = rng.integers(0, address_space)
            lines.append([random_word(rng, word_bits) for _ in range(words_per_line)])
        if word_bits <= 64:
            return addresses, np.array(lines, dtype=np.uint64)
        return addresses, lines

    # ---------------------------------------------------------------- read
    def read_line(self, address: int) -> List[int]:
        """Read, decode, and decrypt one cache line.

        Stuck-at-wrong cells propagate into the returned plaintext exactly
        as they would in hardware; callers compare against the written data
        to measure residual corruption.
        """
        row_index = self.row_for_address(address)
        row_cells = self.array.read_row(row_index)
        codewords = cells_matrix_to_words(
            row_cells.reshape(self.config.words_per_line, -1), self.array.bits_per_cell
        )
        decoded_words = self.encoder.decode_line(codewords, self._aux_store[row_index])
        if self.encryption is None:
            return decoded_words
        counter = self.encryption.counter_for(address)
        pad = self.encryption.pad_words(address, counter)
        mask = (1 << self.config.word_bits) - 1
        return [(w ^ p) & mask for w, p in zip(decoded_words, pad)]

    # ------------------------------------------------------------ internals
    def _stuck_knowledge(self, row_index: int) -> Optional[np.ndarray]:
        """The stuck-cell mask the encoder is allowed to see for this row."""
        if self.fault_knowledge == "oracle":
            return self.array.stuck_info(row_index)
        if self.fault_knowledge == "discovered":
            return self.fault_repository.stuck_mask(row_index)
        return None

    def _migrate_row(self, source_row: int, destination_row: int) -> None:
        """Copy one row for a Start-Gap movement (a genuine, wearing write)."""
        contents = self.array.read_row(source_row)
        result = self.array.write_row(destination_row, contents)
        self.stats.rows_written += 1
        self.stats.cells_changed += result.cells_changed
        self.stats.bits_changed += self._count_changed_bits(result.old_cells, result.stored_cells)
        self.stats.data_energy_pj += float(
            self._energy_lut[  # repro: allow[NUM001] reason=migration writes reuse the scalar-oracle gather above; fresh C-contiguous result, parity-locked by the Start-Gap integration tests
                result.old_cells.astype(np.int64), result.intended_cells.astype(np.int64)
            ].sum()
        )
        # The migration write can itself land on stuck destination cells;
        # its SAW outcome counts like any other row write.
        saw_bits = self._saw_bits_per_word(result.stored_cells, result.intended_cells)
        self.stats.saw_cells += result.saw_count
        self.stats.saw_words += int(np.count_nonzero(saw_bits))
        # The auxiliary bits of the migrated row travel with the data and
        # are rewritten in the side region: charge the bits that change.
        old_dest_auxes = self._aux_store[destination_row]
        moved_auxes = self._aux_store[source_row]
        if self._wide_aux:
            changed_aux_bits = sum(
                bin(int(new) ^ int(old)).count("1")
                for new, old in zip(moved_auxes, old_dest_auxes)
            )
        else:
            changed_aux_bits = int(
                popcount64_array(
                    moved_auxes.astype(np.uint64) ^ old_dest_auxes.astype(np.uint64)
                ).sum()
            )
        self.stats.aux_energy_pj += self._aux_bit_energy * changed_aux_bits
        self._aux_store[destination_row] = moved_auxes
        if self.fault_repository is not None:
            self.fault_repository.observe_write(
                destination_row, result.intended_cells, result.stored_cells
            )

    def _count_changed_bits(self, old_cells: np.ndarray, new_cells: np.ndarray) -> int:
        xor = old_cells ^ new_cells
        if self.array.bits_per_cell == 1:
            return int(np.count_nonzero(xor))
        return int(self._bit_popcount[xor].sum())  # repro: allow[NUM001] reason=integer popcount accumulation is exact at any reduction order

    def _saw_bits_per_word(
        self, stored_cells: np.ndarray, intended_cells: np.ndarray
    ) -> np.ndarray:
        """Residual wrong bits per word of a row write, as an int64 vector."""
        xor = stored_cells ^ intended_cells
        wrong_bits = (
            self._bit_popcount[xor]
            if self.array.bits_per_cell == 2
            else (xor != 0).astype(np.int64)
        )
        return wrong_bits.reshape(self.config.words_per_line, -1).sum(axis=1)

    def _accumulate(self, line: LineWriteResult) -> None:
        self.stats.add_line(line, self.config.words_per_line)
