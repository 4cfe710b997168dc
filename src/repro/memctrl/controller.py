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
accumulated into the arrays of a :class:`ReplayResult`).

The write path is line-granular end to end: each write issues a single
:meth:`repro.coding.base.Encoder.encode_line` call (a one-line
``encode_lines`` batch, vectorised for every builtin technique),
auxiliary bits live in a preallocated
``(rows, words_per_line)`` array, and the energy / SAW accounting is
computed with NumPy over the whole row.

The batched drivers go one level further.  For every non-identity encoder
a wave scheduler works like a reorder buffer, since per-row write order is
the only true dependency between writes.  It executes out of order: each
*wave* takes, from a look-ahead window of queued writes, the earliest
pending write of each distinct row, reads the cells and stuck masks the
encoder sees with one :meth:`repro.pcm.array.PCMArray.read_rows` (and
``stuck_rows``) gather, encodes them through one
:meth:`repro.coding.base.Encoder.encode_lines` call, and applies them with
one :meth:`repro.pcm.array.PCMArray.write_rows_fast` call.  That call
gathers the rows' device state once and hands it back: the pre-write
cells, stuck masks and wear become the wave's squash snapshot, and its
changed-cell mask feeds the accounting.  The scheduler retires in order:
the early-stop predicate and Start-Gap bookkeeping see the writes in
trace order, a window never reaches past the next gap migration, and
writes that ran ahead of an early stop are squashed by restoring their
rows from per-wave snapshots.  The outcome is bit-identical to the scalar
:meth:`MemoryController.write_line` sequence.

Encryption happens before scheduling.  A trace replay slices its
ciphertext from the trace's shared
:class:`repro.crypto.counter_mode.CiphertextStream`, so controllers that
replay one trace under one key derive its pads once, and the engine's
counters are set from the stream position the replay reached.  The
random-line driver encrypts each chunk it draws with one ``encrypt_lines``
call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # runtime import would be circular via repro.traces
    from repro.faults.models import FaultModel
    from repro.traces.trace import Trace

import numpy as np

import repro.obs as obs
from repro.coding.base import (
    Encoder,
    LineBatch,
    LineContext,
    cells_matrix_to_words,
    words_matrix_to_cells,
)
from repro.crypto.counter_mode import CounterModeEngine
from repro.ecc.base import ErrorCorrector
from repro.errors import ConfigurationError, MemoryModelError
from repro.memctrl.config import ControllerConfig
from repro.pcm.array import PCMArray, RowSnapshot
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

#: Look-ahead of the wave scheduler, in waves: a wave picks its writes from
#: the next ``REPLAY_LOOKAHEAD_WAVES * replay_wave_lines`` writes after the
#: oldest pending one.  A longer window fills waves past hot rows; under an
#: early stop it also lets more writes run ahead only to be squashed.
REPLAY_LOOKAHEAD_WAVES = 2

#: Replay chunking: writes are issued in chunks ramping from _FIRST_CHUNK
#: to _MAX_CHUNK.
_FIRST_CHUNK = 512
_MAX_CHUNK = 8192

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
    "replay.conflict_cuts", "waves that deferred a write whose row was already in the wave"
)
_OBS_GAP_FLUSHES = obs.counter(
    "replay.gap_flushes", "waves whose look-ahead window ended at a pending Start-Gap move"
)
_OBS_SQUASHED_WRITES = obs.counter(
    "replay.squashed_writes", "speculatively executed writes undone by an early stop"
)
_OBS_IDENTITY_CHUNKS = obs.counter(
    "replay.identity_chunks", "chunks taken by the identity-encoder fast path"
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
_OBS_PADS = obs.counter(
    "crypto.pads",
    "one-time pads applied to performed line writes (one per encrypted write, "
    "derived for it or sliced from a shared ciphertext stream)",
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
    data_energy_fj / aux_energy_fj:
        Write energy spent on the data cells and on the auxiliary bits, in
        whole femtojoules (``data_energy_pj``/``aux_energy_pj`` read them
        in pJ).
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
    data_energy_fj: int
    aux_energy_fj: int
    cells_changed: int
    bits_changed: int
    saw_cells: int
    saw_bits_per_word: Tuple[int, ...]
    newly_stuck_cells: int

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
        """Total energy of the line write including auxiliary bits, in pJ."""
        return (self.data_energy_fj + self.aux_energy_fj) / 1000


def _changed_aux_bits(new_auxes: np.ndarray, old_auxes: np.ndarray) -> np.ndarray:
    """Auxiliary bits that differ between two int64 aux arrays, summed over words (last axis)."""
    return popcount64_array(new_auxes.astype(np.uint64) ^ old_auxes.astype(np.uint64)).sum(
        axis=-1
    )


@dataclass
class ReplayResult:
    """Per-write accounting of one :meth:`MemoryController.replay_trace` call.

    Each attribute is an array with one entry per performed write, in
    replay order (grown as the replay issues writes, then trimmed to the
    writes performed); every value is bit-identical to what the
    corresponding :class:`LineWriteResult` of a scalar
    :meth:`MemoryController.write_line` sequence would carry.

    Attributes
    ----------
    addresses / row_indices:
        Line address written and the physical row it mapped to.
    data_energy_fj / aux_energy_fj:
        Write energy spent on the data cells and the auxiliary bits, as
        int64 femtojoules (``data_energy_pj``/``aux_energy_pj`` read them
        as float64 pJ).
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

    Start-Gap migrations have no entry: the controller charges each one to
    its :attr:`MemoryController.stats` when it runs.
    """

    addresses: np.ndarray
    row_indices: np.ndarray
    data_energy_fj: np.ndarray
    aux_energy_fj: np.ndarray
    cells_changed: np.ndarray
    bits_changed: np.ndarray
    saw_cells: np.ndarray
    saw_bits_per_word: np.ndarray
    newly_stuck_cells: np.ndarray
    words_per_line: int
    writes: int = 0
    stopped_early: bool = False

    @property
    def data_energy_pj(self) -> np.ndarray:
        """Per-write data-cell energy in pJ (float64)."""
        return self.data_energy_fj / 1000

    @property
    def aux_energy_pj(self) -> np.ndarray:
        """Per-write auxiliary-bit energy in pJ (float64)."""
        return self.aux_energy_fj / 1000

    # ------------------------------------------------------- aggregation
    def total_energy_pj(self) -> float:
        """Total write energy of the replay including auxiliary bits, in pJ."""
        return (int(self.data_energy_fj.sum()) + int(self.aux_energy_fj.sum())) / 1000

    def saw_words(self) -> int:
        """Number of written words left with at least one wrong bit."""
        return int(np.count_nonzero(self.saw_bits_per_word))

    def write_stats(self) -> WriteStats:
        """Aggregate the replay into a :class:`repro.pcm.stats.WriteStats`.

        Every counter matches :meth:`WriteStats.from_line_results` over
        :meth:`line_results` exactly; like it, this leaves out Start-Gap
        migrations.
        """
        return self.add_to(WriteStats())

    def add_to(self, stats: WriteStats) -> WriteStats:
        """Add the replay's counters into ``stats`` in place; returns ``stats``."""
        stats.words_written += self.writes * self.words_per_line
        stats.rows_written += self.writes
        stats.bits_changed += int(self.bits_changed.sum())
        stats.cells_changed += int(self.cells_changed.sum())
        stats.data_energy_fj += int(self.data_energy_fj.sum())
        stats.aux_energy_fj += int(self.aux_energy_fj.sum())
        stats.saw_cells += int(self.saw_cells.sum())
        stats.saw_words += self.saw_words()
        return stats

    # ------------------------------------------------------ scalar views
    def line_result(self, index: int) -> LineWriteResult:
        """The :class:`LineWriteResult` view of one write of the replay."""
        if not 0 <= index < self.writes:
            raise MemoryModelError(f"write index {index} out of range [0, {self.writes})")
        return LineWriteResult(
            address=int(self.addresses[index]),
            row_index=int(self.row_indices[index]),
            data_energy_fj=int(self.data_energy_fj[index]),
            aux_energy_fj=int(self.aux_energy_fj[index]),
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
            data_energy_fj=np.zeros(capacity, dtype=np.int64),
            aux_energy_fj=np.zeros(capacity, dtype=np.int64),
            cells_changed=np.zeros(capacity, dtype=np.int64),
            bits_changed=np.zeros(capacity, dtype=np.int64),
            saw_cells=np.zeros(capacity, dtype=np.int64),
            saw_bits_per_word=np.zeros((capacity, words_per_line), dtype=np.int64),
            newly_stuck_cells=np.zeros(capacity, dtype=np.int64),
            words_per_line=words_per_line,
        )

    def _reserve(self, writes: int, limit: int) -> None:
        """Grow every array to hold at least ``writes`` entries.

        Capacity at least doubles on each growth (never past ``limit``), so
        a replay copies O(writes) entries in total while an early-stopped
        replay only ever allocates for the chunks it issued.
        """
        capacity = len(self.addresses)
        if writes <= capacity:
            return
        capacity = min(max(writes, 2 * capacity), limit)
        for name in _REPLAY_ARRAYS:
            array = getattr(self, name)
            grown = np.zeros((capacity,) + array.shape[1:], dtype=array.dtype)
            grown[: len(array)] = array
            setattr(self, name, grown)

    def _trim(self, writes: int, stopped_early: bool) -> "ReplayResult":
        """Shrink every array down to the writes actually performed.

        A copy (not a view) when the arrays hold spare capacity, so a
        result of a few hundred writes does not pin larger arrays in memory.
        """
        if writes < len(self.addresses):
            for name in _REPLAY_ARRAYS:
                setattr(self, name, getattr(self, name)[:writes].copy())
        self.writes = writes
        self.stopped_early = stopped_early
        return self


#: The per-write arrays of a :class:`ReplayResult`.
_REPLAY_ARRAYS = (
    "addresses",
    "row_indices",
    "data_energy_fj",
    "aux_energy_fj",
    "cells_changed",
    "bits_changed",
    "saw_cells",
    "saw_bits_per_word",
    "newly_stuck_cells",
)


@dataclass(frozen=True)
class _WaveSnapshot:
    """The state of one replay wave's rows before the wave was applied.

    ``writes`` lists the wave's chunk-local write indices (ascending); the
    other fields hold, per wave line, the row's device state, auxiliary
    bits, fault-repository table and transient-sense read count (``None``
    when the controller has no repository or transient model).
    """

    writes: List[int]
    array_rows: RowSnapshot
    auxes: np.ndarray
    faults: Optional[Dict[int, Optional[Dict[int, int]]]]
    sense_counts: Optional[np.ndarray]


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
        if encoder.aux_bits >= 64:
            raise ConfigurationError(
                f"{encoder.name} stores {encoder.aux_bits} auxiliary bits per word; "
                "the auxiliary store holds at most 63"
            )
        self._aux_store = np.zeros((array.rows, self.config.words_per_line), dtype=np.int64)
        self._bit_popcount = np.array([0, 1, 1, 2], dtype=np.int64)
        energy = mlc_energy if array.technology is CellTechnology.MLC else slc_energy
        #: int64 fJ per ``[old, new]`` cell transition and per changed aux bit.
        self._energy_lut = energy.lut()
        self._aux_bit_energy = energy.aux_bit_energy_fj
        #: ``_energy_lut`` flattened, indexed by ``old * levels + new``:
        #: one ``np.take`` gathers a wave's per-cell energies.
        self._energy_flat = self._energy_lut.reshape(-1)
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
            _OBS_PADS.inc()
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
            data_energy_fj=data_energy,
            aux_energy_fj=aux_energy,
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

        The core of :meth:`write_line`, the oracle the batched drivers
        (:meth:`replay_trace`, :meth:`write_random_lines`) match bit for
        bit.  Returns the tuple ``(row_index,
        data_energy_fj, aux_energy_fj, cells_changed, bits_changed,
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
            np.array(encoded.codewords, dtype=np.uint64),
            self.config.word_bits,
            self.array.bits_per_cell,
        ).reshape(-1)
        new_auxes = np.array(encoded.auxes, dtype=np.int64)
        aux_energy = self._aux_bit_energy * int(_changed_aux_bits(new_auxes, old_auxes))

        result = self.array.write_row(row_index, intended_row)
        data_energy = int(self._energy_lut[old_row, intended_row].sum())
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
        the arrays of a :class:`ReplayResult` instead of one
        :class:`LineWriteResult` (plus several lists and tuples) per write.
        Every accounting value is bit-identical to the scalar path — the
        wave scheduler runs the same encode / write / accounting steps on
        batches of writes whose rows cannot observe each other, and the
        identity-encoder fast path skips only work whose outcome is fixed
        (the unencoded baseline stores the ciphertext unchanged with no
        auxiliary bits).  The controller's running :attr:`stats` are
        updated once at the end with the batch totals.

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
            remaining writes).  It sees the writes in trace order, and the
            controller state after the replay is exactly the state after
            write ``index``.  Writes that ran ahead of the stop are undone
            row by row; the encryption counters never ran ahead, because
            they are set once, at the end, from the stream position the
            replay performed (see
            :meth:`repro.crypto.counter_mode.CounterModeEngine.seek`).
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
        replay = ReplayResult.empty(0, self.config.words_per_line)
        if total == 0:
            return replay._trim(0, False)

        trace_addresses = trace.addresses_array()
        encryption = self.encryption
        # An encrypted replay reads the trace's shared ciphertext stream
        # from the position this engine's counters stand at.
        if encryption is not None:
            stream, offset = encryption.replay_stream(trace)
        else:
            words = trace.words_array()

        # Chunked issue: addresses, stored words and result arrays exist
        # only for the writes about to run, so a lifetime cell that stops
        # after a few hundred writes never materialises its 200k-write cap.
        chunk = _FIRST_CHUNK
        start = 0
        performed = 0
        stopped = False
        with _OBS_SPAN("replay.trace", total_writes=total) as trace_span:
            while start < total and not stopped:
                end = min(start + chunk, total)
                chunk = min(chunk * 2, _MAX_CHUNK)
                replay._reserve(end, total)
                record_indices = np.arange(start, end, dtype=np.int64) % num_records
                stored = (
                    words[record_indices]
                    if encryption is None
                    else stream.segment(offset + start, offset + end)
                )
                performed, stopped = self._replay_chunk(
                    replay, trace_addresses[record_indices], stored, start, stop
                )
                start = end
            if stopped:
                _OBS_EARLY_STOPS.inc()
                _OBS_EARLY_STOP_INDEX.set(performed)
            trace_span.set(performed=performed, stopped=stopped)
        if encryption is not None:
            _OBS_PADS.inc(performed)
            encryption.seek(stream, offset + performed)
        replay._trim(performed, stopped)
        replay.add_to(self.stats)
        return replay

    def _replay_chunk(
        self,
        replay: ReplayResult,
        chunk_addresses: np.ndarray,
        stored: np.ndarray,
        start: int,
        stop: Optional[ReplayStop],
    ):
        """Run the writes ``[start, start + len(chunk_addresses))`` of a replay.

        ``stored`` is the chunk's ``(writes, words_per_line)`` ``uint64``
        matrix of words to store: the ciphertext, or the plaintext when
        the controller does not encrypt.  Identity encoders take
        :meth:`_replay_identity`, every other encoder the wave scheduler
        :meth:`_replay_generic`.  Returns ``(performed, stopped)`` with
        ``performed`` the global write count.
        """
        if not self.encoder.is_identity:
            return self._replay_generic(replay, chunk_addresses, stored, start, stop)
        _OBS_IDENTITY_CHUNKS.inc()
        # The identity path holds (writes, cells) matrices for the writes
        # it runs, so it takes a long chunk in blocks of _FIRST_CHUNK
        # writes: a few MB at most, instead of ~16 MB per matrix.
        for first in range(0, len(chunk_addresses), _FIRST_CHUNK):
            block = slice(first, first + _FIRST_CHUNK)
            performed, stopped = self._replay_identity(
                replay, chunk_addresses[block], stored[block], start + first, stop
            )
            if stopped:
                break
        return performed, stopped

    def _replay_identity(
        self,
        replay: ReplayResult,
        chunk_addresses: np.ndarray,
        encrypted_chunk: np.ndarray,
        start: int,
        stop: Optional[ReplayStop],
    ):
        """Replay fast path for identity encoders over one chunk of writes.

        The stored values are the ciphertext words themselves and no
        auxiliary bits exist, so the per-write work reduces to the array
        write; everything else (energy, changed bits/cells, SAW) is a pure
        function of the (old, stored, intended) cell rows and is computed
        in one vectorised flush per chunk — row-wise NumPy reductions are
        bit-identical to the scalar path's per-row reductions.  Returns
        ``(performed, stopped)`` with ``performed`` the global write count.
        """
        count = len(chunk_addresses)
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
        row_indices = None if leveler is not None else chunk_addresses % array.rows
        np.copyto(replay.addresses[start:start + count], chunk_addresses)
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
        old_rows = old_buffer[:done]
        stored_rows = stored_buffer[:done]
        # Identity encoders store no auxiliary bits: aux energy stays 0.
        self._flush_replay_accounting(
            replay,
            slice(start, performed),
            old_rows,
            stored_rows,
            cells_chunk[:done],
            stored_rows != old_rows,
        )
        return performed, stopped

    def _flush_replay_accounting(
        self,
        replay: ReplayResult,
        at,
        old_rows: np.ndarray,
        stored_rows: np.ndarray,
        intended_rows: np.ndarray,
        changed: np.ndarray,
    ) -> None:
        """Vectorised accounting flush for applied replay writes.

        ``at`` selects the writes' entries in ``replay`` (a slice or an
        index vector, one entry per buffered row) and ``changed`` is the
        write's ``stored_rows != old_rows`` mask.  Energy, changed
        bits/cells, and SAW counts are pure functions of the (old, stored,
        intended) cell rows, and all of them are integers (energy in fJ),
        so each row's sum equals the scalar path's in any order.  A
        stored cell differs from the intended value exactly at the
        stuck-at-wrong positions, so SAW counts fall out of the xor.
        """
        lines = len(old_rows)
        if lines == 0:
            return
        levels = self.array.technology.levels
        replay.data_energy_fj[at] = np.take(
            self._energy_flat, old_rows * levels + intended_rows
        ).sum(axis=1)
        cells_changed = np.count_nonzero(changed, axis=1)
        replay.cells_changed[at] = cells_changed
        wrong_xor = stored_rows ^ intended_rows
        replay.saw_cells[at] = np.count_nonzero(wrong_xor, axis=1)
        if self.array.bits_per_cell == 1:
            replay.bits_changed[at] = cells_changed
            wrong_bits = wrong_xor
        else:
            xor = old_rows ^ stored_rows
            replay.bits_changed[at] = ((xor & 1) + (xor >> 1)).sum(axis=1, dtype=np.int64)
            wrong_bits = (wrong_xor & 1) + (wrong_xor >> 1)
        replay.saw_bits_per_word[at] = wrong_bits.reshape(
            lines, self.config.words_per_line, -1
        ).sum(axis=2, dtype=np.int64)

    def _replay_generic(
        self,
        replay: ReplayResult,
        chunk_addresses: np.ndarray,
        stored: np.ndarray,
        start: int,
        stop: Optional[ReplayStop],
    ):
        """Wave scheduler for arbitrary encoders over one chunk of writes.

        The only true dependency between writes is per-row order, so the
        scheduler works like a reorder buffer: it executes out of order
        and retires in order.

        * **Wave rule.**  The look-ahead window spans
          ``REPLAY_LOOKAHEAD_WAVES * replay_wave_lines`` writes from the
          oldest pending write.  A wave takes, in trace order, the earliest
          pending write of each distinct row in the window, up to
          ``replay_wave_lines`` lines; a later write to a row already in
          the wave is deferred to a later wave instead of ending this one.
          Every earlier write to a picked row has therefore executed, so
          encoding the wave's rows of ``stored`` (the chunk's ciphertext)
          against one :meth:`repro.pcm.array.PCMArray.read_rows` gather
          through a single :meth:`repro.coding.base.Encoder.encode_lines`
          call, and applying it with one
          :meth:`repro.pcm.array.PCMArray.write_rows_fast` call, is
          bit-identical to running those writes one by one in trace order.
        * **Retirement.**  After each wave the oldest writes retire in
          trace order while they have executed: Start-Gap's
          ``record_write`` and any gap migration run here, then ``stop``.
          Under Start-Gap the window ends at the write that triggers the
          next gap move, so no write executes under a mapping that a
          migration is about to rotate.
        * **Squash.**  When ``stop`` fires at write ``k``, every executed
          write past ``k`` ran speculatively: each wave keeps its rows'
          pre-write state, and the earliest squashed write of each row
          restores that row from it.  The cells, wear and stuck masks are
          the ones ``write_rows_fast`` gathered and returned; the aux bits
          gathered for the encoder, the transient-sense read counts and
          the fault-repository entries are saved before sensing.
          Encryption counters need no undo: the chunk's ciphertext came
          precomputed and the caller sets the counters from the number of
          writes performed, so the controller ends in exactly the state
          of the ``write_line`` sequence stopped at ``k``.  Without a
          ``stop`` nothing is snapshotted.

        Accounting is flushed per wave into the writes' entries of
        ``replay`` by the same vectorised reductions as the identity fast
        path, reusing the changed-cell mask of ``write_rows_fast``.
        Returns ``(performed, stopped)`` like :meth:`_replay_identity`.
        """
        array = self.array
        leveler = self.wear_leveler
        repository = self.fault_repository
        words_per_line = self.config.words_per_line
        bits_per_cell = array.bits_per_cell
        cap = self.replay_wave_lines
        lookahead = cap * REPLAY_LOOKAHEAD_WAVES
        count = len(chunk_addresses)
        np.copyto(replay.addresses[start:start + count], chunk_addresses)
        # Without wear leveling the address-to-row mapping is fixed, so the
        # whole chunk's rows come from one vectorised modulo; under
        # Start-Gap each write is mapped as it enters the window.
        rows_of: List[int] = (
            (chunk_addresses % array.rows).tolist() if leveler is None else []
        )
        executed = bytearray(count)
        pending: List[int] = []
        snapshots: Deque[_WaveSnapshot] = deque()
        admitted = 0
        retired = 0
        while retired < count:
            # ---- admission: the window starts at the oldest pending write.
            head = pending[0] if pending else admitted
            limit = min(count, head + lookahead)
            gap_capped = False
            if leveler is not None:
                gap_end = retired + leveler.writes_until_gap_move
                if gap_end < limit:
                    limit = gap_end
                    gap_capped = True
                for local in range(admitted, limit):
                    rows_of.append(self.row_for_address(int(chunk_addresses[local])))
            if limit > admitted:
                pending.extend(range(admitted, limit))
                admitted = limit

            # ---- selection: the earliest pending write of each distinct row.
            picked: List[int] = []
            rows: List[int] = []
            seen = set()
            deferred: List[int] = []
            conflicted = False
            for position, local in enumerate(pending):
                if len(picked) == cap:
                    deferred.extend(pending[position:])
                    break
                row_index = rows_of[local]
                if row_index in seen:
                    deferred.append(local)
                    conflicted = True
                    continue
                seen.add(row_index)
                picked.append(local)
                rows.append(row_index)
            pending = deferred
            lines = len(picked)
            _OBS_WAVES.inc()
            _OBS_WAVE_LINES.observe(lines)
            if conflicted:
                _OBS_CONFLICT_CUTS.inc()
            if gap_capped:
                _OBS_GAP_FLUSHES.inc()

            # ---- execution: one gather, encode and scatter.
            local_array = np.asarray(picked, dtype=np.intp)
            at = local_array + start
            row_array = np.asarray(rows, dtype=np.intp)
            with _OBS_SPAN("replay.wave", lines=lines):
                old_auxes = self._aux_store[row_array]
                if stop is not None:
                    faults = None if repository is None else repository.snapshot_rows(row_array)
                    sense_counts = (
                        None if self._sense_counts is None else self._sense_counts[row_array]
                    )
                old_rows = array.read_rows(row_array)
                stuck_rows = self._stuck_rows(row_array)
                sensed_rows = self._sensed_rows(old_rows, rows)
                line_shape = (lines, words_per_line, -1)
                batch = LineBatch(
                    old_cells=sensed_rows.reshape(line_shape),
                    stuck_mask=None if stuck_rows is None else stuck_rows.reshape(line_shape),
                    bits_per_cell=bits_per_cell,
                    old_auxes=old_auxes,
                )
                encoded = self.encoder.encode_lines(stored[local_array], batch)
                intended_rows = words_matrix_to_cells(
                    encoded.codewords, self.config.word_bits, bits_per_cell
                ).reshape(lines, array.cells_per_row)
                new_auxes = encoded.auxes
                before, stored_rows, changed, newly = array.write_rows_fast(
                    row_array, intended_rows
                )
                if stop is not None:
                    snapshots.append(
                        _WaveSnapshot(picked, before, old_auxes, faults, sense_counts)
                    )
                self._aux_store[row_array] = new_auxes
                replay.row_indices[at] = rows
                replay.newly_stuck_cells[at] = newly
                self._flush_replay_accounting(
                    replay, at, old_rows, stored_rows, intended_rows, changed
                )
                self._flush_aux_energy(replay, at, new_auxes, old_auxes)
                if repository is not None:
                    # observe_write is a no-op for rows whose stored cells
                    # all match; only rows with SAW cells carry discoveries.
                    for line in np.nonzero(replay.saw_cells[at])[0]:
                        repository.observe_write(
                            rows[line], intended_rows[line], stored_rows[line]
                        )
            for local in picked:
                executed[local] = 1

            # ---- retirement, in trace order.
            while retired < admitted and executed[retired]:
                local = retired
                retired += 1
                index = start + local
                if leveler is not None:
                    movement = leveler.record_write()
                    if movement is not None:
                        self._migrate_row(*movement)
                if stop is not None and stop(
                    index,
                    rows_of[local],
                    int(replay.saw_cells[index]),
                    replay.saw_bits_per_word[index],
                ):
                    self._squash(snapshots, local)
                    return index + 1, True
            while snapshots and snapshots[0].writes[-1] < retired:
                snapshots.popleft()
        return start + count, False

    def _squash(self, snapshots: "Deque[_WaveSnapshot]", stop_local: int) -> None:
        """Undo every executed write of the chunk past ``stop_local``.

        Waves are visited in execution order, so the first squashed write
        met for a row is that row's earliest one and its snapshot holds the
        row's state at the stop.  Only rows are restored: encryption
        counters are set by the replay from the writes it performed.
        """
        restored = set()
        squashed = 0
        for snapshot in snapshots:
            positions = []
            for position, local in enumerate(snapshot.writes):
                if local <= stop_local:
                    continue
                squashed += 1
                row_index = int(snapshot.array_rows.rows[position])
                if row_index not in restored:
                    restored.add(row_index)
                    positions.append(position)
            if not positions:
                continue
            chosen = np.asarray(positions, dtype=np.intp)
            saved = snapshot.array_rows.select(chosen)
            self.array.restore_rows(saved)
            self._aux_store[saved.rows] = snapshot.auxes[chosen]
            if snapshot.faults is not None and self.fault_repository is not None:
                self.fault_repository.restore_rows(
                    {int(row): snapshot.faults[int(row)] for row in saved.rows}
                )
            if snapshot.sense_counts is not None and self._sense_counts is not None:
                self._sense_counts[saved.rows] = snapshot.sense_counts[chosen]
        _OBS_SQUASHED_WRITES.inc(squashed)

    def _flush_aux_energy(
        self,
        replay: ReplayResult,
        at,
        new_auxes: np.ndarray,
        old_auxes: np.ndarray,
    ) -> None:
        """Auxiliary-bit write energy for applied wave writes selected by ``at``.

        Charges the bits that changed between the stored and the new
        auxiliary values times the integer fJ per bit, exactly as
        :meth:`_apply_line_write` does per write.
        """
        if len(new_auxes) == 0:
            return
        replay.aux_energy_fj[at] = self._aux_bit_energy * _changed_aux_bits(new_auxes, old_auxes)

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
        through :meth:`replay_trace`'s internals: one batched counter-mode
        ``encrypt_lines`` call per chunk, the wave scheduler, the
        identity-encoder fast path for the
        unencoded baselines, and per-write accounting in the arrays of a
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

        # Chunked like a replay_trace that runs to completion: line data
        # and cell conversions are only produced for a bounded window of
        # writes at a time, with the same geometric ramp.  There is no
        # early-stop predicate here (the random-line studies always run to
        # completion), so every write of a chunk is performed and the
        # whole chunk is encrypted up front.
        encryption = self.encryption
        chunk = _FIRST_CHUNK
        start = 0
        performed = 0
        while start < num_lines:
            end = min(start + chunk, num_lines)
            chunk = min(chunk * 2, _MAX_CHUNK)
            chunk_addresses, plaintext = self._draw_random_lines(
                rng, end - start, address_space
            )
            stored = (
                plaintext
                if encryption is None
                else encryption.encrypt_lines(chunk_addresses, plaintext)
            )
            performed, _ = self._replay_chunk(replay, chunk_addresses, stored, start, None)
            start = end
        if encryption is not None:
            _OBS_PADS.inc(performed)
        replay._trim(performed, False)
        replay.add_to(self.stats)
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
        ``(count, words_per_line)`` ``uint64`` matrix.
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
        if len(set(chunk_widths)) == 1:
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
        # Mixed chunk widths (word_bits over 32 and not 64): draw each
        # word with the scalar word generator.
        lines = []
        for line in range(count):
            addresses[line] = rng.integers(0, address_space)
            lines.append([random_word(rng, word_bits) for _ in range(words_per_line)])
        return addresses, np.array(lines, dtype=np.uint64)

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
        """Copy one row for a Start-Gap movement (a genuine, wearing write).

        Charges every counter of the move, energy included, to :attr:`stats`.
        """
        contents = self.array.read_row(source_row)
        result = self.array.write_row(destination_row, contents)
        self.stats.rows_written += 1
        self.stats.cells_changed += result.cells_changed
        self.stats.bits_changed += self._count_changed_bits(result.old_cells, result.stored_cells)
        self.stats.data_energy_fj += int(
            self._energy_lut[result.old_cells, result.intended_cells].sum()
        )
        # The migration write can itself land on stuck destination cells;
        # its SAW outcome counts like any other row write.
        saw_bits = self._saw_bits_per_word(result.stored_cells, result.intended_cells)
        self.stats.saw_cells += result.saw_count
        self.stats.saw_words += int(np.count_nonzero(saw_bits))
        # The auxiliary bits of the migrated row travel with the data and
        # are rewritten in the side region: charge the bits that change.
        moved_auxes = self._aux_store[source_row]
        changed_aux_bits = int(_changed_aux_bits(moved_auxes, self._aux_store[destination_row]))
        self.stats.aux_energy_fj += self._aux_bit_energy * changed_aux_bits
        self._aux_store[destination_row] = moved_auxes
        if self.fault_repository is not None:
            self.fault_repository.observe_write(
                destination_row, result.intended_cells, result.stored_cells
            )

    def _count_changed_bits(self, old_cells: np.ndarray, new_cells: np.ndarray) -> int:
        xor = old_cells ^ new_cells
        if self.array.bits_per_cell == 1:
            return int(np.count_nonzero(xor))
        return int(self._bit_popcount[xor].sum())

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
