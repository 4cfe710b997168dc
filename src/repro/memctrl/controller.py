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

The batched drivers go one level further.  A wave scheduler works like a
reorder buffer, since per-row write order is the only true dependency
between writes.  It executes out of order: each *wave* takes, from a
look-ahead window of queued writes, the earliest pending write of each
distinct row, reads the cells and stuck masks the encoder sees with one
:meth:`repro.pcm.array.PCMArray.read_rows` (and ``stuck_rows``) gather,
encodes them through one :meth:`repro.coding.base.Encoder.encode_lines`
call (an identity encoder's codewords are the words themselves), and
applies them with one :meth:`repro.pcm.array.PCMArray.write_rows_fast`
call.  That call gathers the rows' device state once and hands it back:
the pre-write cells, stuck masks and wear become the wave's squash
snapshot, and its changed-cell mask feeds the accounting.  The scheduler
retires in order: the early-stop predicate and Start-Gap bookkeeping see
the writes in trace order, a window never reaches past the next gap
migration, and writes that ran ahead of an early stop are squashed by
restoring their rows from per-wave snapshots.  The outcome is
bit-identical to the scalar :meth:`MemoryController.write_line` sequence.

The schedule never depends on the encoder, so :func:`replay_stacked`
runs one trace on several controllers as the *bands* of one replay: one
schedule, and per wave one gather, one encode call per coding band, one
scatter and one accounting flush over every band's rows.  A lone
controller's :meth:`MemoryController.replay_trace` is its one-band case.

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

__all__ = ["LineWriteResult", "ReplayResult", "MemoryController", "replay_stacked"]

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
_OBS_WAVE_LINES = obs.histogram(
    "replay.wave_lines", "rows written per replay wave, over every band of a stacked replay"
)
_OBS_CONFLICT_CUTS = obs.counter(
    "replay.conflict_cuts", "waves that deferred a write whose row was already in the wave"
)
_OBS_GAP_FLUSHES = obs.counter(
    "replay.gap_flushes", "waves whose look-ahead window ended at a pending Start-Gap move"
)
_OBS_SQUASHED_WRITES = obs.counter(
    "replay.squashed_writes", "speculatively executed writes undone by an early stop"
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


class _BandResults:
    """The per-write accounting of every band of one replay.

    Each :class:`ReplayResult` array gets a leading band axis here
    (``(bands, capacity)``, or ``(bands, capacity, words_per_line)``) and
    grows as the replay issues writes.  :attr:`flat` views the same
    arrays with the band and write axes merged, so a wave's accounting
    reaches every band through one store per field, at
    ``band * capacity + write``.
    """

    def __init__(self, bands: int, words_per_line: int):
        self.bands = bands
        self.words_per_line = words_per_line
        self.capacity = 0
        self.arrays: Dict[str, np.ndarray] = {}
        self.flat: Dict[str, np.ndarray] = {}
        for name in _REPLAY_ARRAYS:
            tail = (words_per_line,) if name == "saw_bits_per_word" else ()
            self._adopt(name, np.zeros((bands, 0) + tail, dtype=np.int64))

    def _adopt(self, name: str, array: np.ndarray) -> None:
        self.arrays[name] = array
        self.flat[name] = array.reshape((-1,) + array.shape[2:])

    def reserve(self, writes: int, limit: int) -> None:
        """Grow every array to hold at least ``writes`` entries per band.

        Capacity at least doubles on each growth (never past ``limit``), so
        a replay copies O(writes) entries in total while an early-stopped
        replay only ever allocates for the chunks it issued.
        """
        if writes <= self.capacity:
            return
        capacity = min(max(writes, 2 * self.capacity), limit)
        for name, array in list(self.arrays.items()):
            grown = np.zeros(array.shape[:1] + (capacity,) + array.shape[2:], dtype=np.int64)
            grown[:, : self.capacity] = array
            self._adopt(name, grown)
        self.capacity = capacity

    def result(self, band: int, writes: int, stopped_early: bool) -> ReplayResult:
        """The :class:`ReplayResult` of one band's first ``writes`` writes.

        Its arrays are copies unless they would be the whole of a lone
        band's arrays, so a result of a few hundred writes pins no larger
        arrays in memory.
        """
        whole = self.bands == 1 and writes == self.capacity
        return ReplayResult(
            **{
                name: array[band, :writes] if whole else array[band, :writes].copy()
                for name, array in self.arrays.items()
            },
            words_per_line=self.words_per_line,
            writes=writes,
            stopped_early=stopped_early,
        )


@dataclass(frozen=True)
class _WaveSnapshot:
    """The state of one replay wave's rows before the wave was applied.

    ``writes`` lists the wave's chunk-local write indices (ascending) and
    ``bands`` the bands that ran them, in wave order; the wave's rows are
    band-major, ``len(writes)`` rows per band.  ``array_rows`` and
    ``auxes`` hold each row's device state and auxiliary bits;
    ``faults`` and ``sense_counts`` hold, per band, its fault-repository
    tables and transient-sense read counts of the wave's rows (``None``
    for all bands when no band has a repository or a transient model,
    and for a band that has neither).
    """

    writes: List[int]
    bands: Tuple[int, ...]
    array_rows: RowSnapshot
    auxes: np.ndarray
    faults: Optional[List[Optional[Dict[int, Optional[Dict[int, int]]]]]]
    sense_counts: Optional[List[Optional[np.ndarray]]]


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

        The batched sibling of a :meth:`write_line` loop, and the one-band
        case of :func:`replay_stacked`: the whole replay runs inside the
        controller, accumulating per-write accounting into the arrays of
        a :class:`ReplayResult` instead of one :class:`LineWriteResult`
        (plus several lists and tuples) per write.  Every accounting value
        is bit-identical to the scalar path: the wave scheduler runs the
        same encode / write / accounting steps on batches of writes whose
        rows cannot observe each other, and identity encoders (the
        unencoded baseline stores the ciphertext unchanged with no
        auxiliary bits) skip only the encode call.  The controller's
        running :attr:`stats` are updated once at the end with the batch
        totals.

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
        return replay_stacked([self], trace, repetitions, [stop], max_writes)[0]

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
        ``encrypt_lines`` call per chunk, the wave scheduler, and per-write
        accounting in the arrays of a :class:`ReplayResult`.  Controller state (array contents,
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
        stack = _BandStack([self], [None])
        stack.results.reserve(num_lines, num_lines)

        # Chunked like a replay_trace that runs to completion: line data
        # and cell conversions are only produced for a bounded window of
        # writes at a time, with the same geometric ramp.  There is no
        # early-stop predicate here (the random-line studies always run to
        # completion), so every write of a chunk is performed and the
        # whole chunk is encrypted up front.
        encryption = self.encryption
        chunk = _FIRST_CHUNK
        start = 0
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
            stack.run_chunk(chunk_addresses, [stored], start)
            start = end
        if encryption is not None:
            _OBS_PADS.inc(num_lines)
        replay = stack.results.result(0, num_lines, False)
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


def replay_stacked(
    controllers: Sequence[MemoryController],
    trace: "Trace",
    repetitions: int = 1,
    stops: Optional[Sequence[Optional[ReplayStop]]] = None,
    max_writes: Optional[int] = None,
) -> List[ReplayResult]:
    """Replay one trace on several controllers as one stacked replay.

    Each controller is a *band*: it replays ``trace`` exactly as its own
    :meth:`MemoryController.replay_trace` with ``stops[band]`` would, and
    gets its own :class:`ReplayResult`, controller state and running
    :attr:`MemoryController.stats`; a band whose stop fires leaves the
    stack while the others go on.  The wave schedule depends only on the
    trace's addresses, the wave cap and Start-Gap, never on the encoder,
    so one admission, selection and retirement pass serves every band,
    and each wave makes one gather, one ``encode_lines`` call per coding
    band, one :meth:`repro.pcm.array.PCMArray.write_rows_fast` scatter
    and one accounting flush over all bands' rows.  For that the bands'
    arrays and auxiliary stores are stacked into one store
    (:meth:`repro.pcm.array.PCMArray.stack`) that the controllers keep
    viewing afterwards.

    The controllers must be distinct and share their configuration,
    array geometry, energy models, wave cap and Start-Gap state (or all
    have no wear leveler); a :class:`~repro.errors.ConfigurationError`
    says which is not so.  ``stops`` defaults to no stop for every band;
    ``repetitions`` and ``max_writes`` are as for ``replay_trace`` and
    apply to every band.
    """
    if stops is None:
        stops = [None] * len(controllers)
    if len(stops) != len(controllers) or not controllers:
        raise ConfigurationError(
            f"a stacked replay needs one stop per controller and at least one controller, "
            f"got {len(controllers)} controllers and {len(stops)} stops"
        )
    first = controllers[0]
    if repetitions < 0:
        raise ConfigurationError("repetitions must be non-negative")
    if trace.word_bits != first.config.word_bits:
        raise ConfigurationError(
            f"trace word size ({trace.word_bits} bits) does not match "
            f"the controller ({first.config.word_bits} bits)"
        )
    if trace.words_per_line != first.config.words_per_line:
        raise ConfigurationError(
            f"trace geometry ({trace.words_per_line} words per line) does not "
            f"match the controller ({first.config.words_per_line} words per line)"
        )
    if max_writes is not None and max_writes < 0:
        raise ConfigurationError("max_writes must be non-negative")

    stack = _BandStack(controllers, stops)
    num_records = len(trace)
    total = num_records * repetitions
    if max_writes is not None:
        total = min(total, max_writes)
    bands = range(len(controllers))
    if total == 0:
        return [stack.results.result(band, 0, False) for band in bands]

    trace_addresses = trace.addresses_array()
    # An encrypted replay reads the trace's shared ciphertext stream from
    # the position each engine's counters stand at; bands whose engines
    # agree share one stream and one segment per chunk.
    streams = (
        [controller.encryption.replay_stream(trace) for controller in controllers]
        if first.encryption is not None
        else None
    )
    words = trace.words_array() if streams is None else None

    # Chunked issue: addresses, stored words and result arrays exist
    # only for the writes about to run, so a lifetime cell that stops
    # after a few hundred writes never materialises its 200k-write cap.
    chunk = _FIRST_CHUNK
    start = 0
    with _OBS_SPAN("replay.trace", total_writes=total, bands=len(controllers)) as trace_span:
        while start < total and stack.live:
            end = min(start + chunk, total)
            chunk = min(chunk * 2, _MAX_CHUNK)
            stack.results.reserve(end, total)
            record_indices = np.arange(start, end, dtype=np.int64) % num_records
            if streams is None:
                stored = [words[record_indices]] * len(controllers)
            else:
                stored = [None] * len(controllers)
                segments: Dict[Tuple[int, int], np.ndarray] = {}
                for band in stack.live:
                    stream, offset = streams[band]
                    key = (id(stream), offset)
                    if key not in segments:
                        segments[key] = stream.segment(offset + start, offset + end)
                    stored[band] = segments[key]
            stack.run_chunk(trace_addresses[record_indices], stored, start)
            start = end
        trace_span.set(performed=sum(stack.performed), stopped=any(stack.stopped))

    results = []
    for band, controller in enumerate(controllers):
        performed = stack.performed[band]
        if stack.stopped[band]:
            _OBS_EARLY_STOPS.inc()
            _OBS_EARLY_STOP_INDEX.set(performed)
        if streams is not None:
            _OBS_PADS.inc(performed)
            stream, offset = streams[band]
            controller.encryption.seek(stream, offset + performed)
        replay = stack.results.result(band, performed, stack.stopped[band])
        replay.add_to(controller.stats)
        results.append(replay)
    return results


def _check_stackable(controllers: Sequence[MemoryController]) -> None:
    """Reject controllers that cannot share one wave schedule and store."""
    first = controllers[0]
    if len({id(controller) for controller in controllers}) != len(controllers):
        raise ConfigurationError("stacked controllers must be distinct")
    for controller in controllers[1:]:
        if controller.config != first.config:
            raise ConfigurationError("stacked controllers must share their configuration")
        if controller.replay_wave_lines != first.replay_wave_lines:
            raise ConfigurationError("stacked controllers must share replay_wave_lines")
        if controller._aux_bit_energy != first._aux_bit_energy or not np.array_equal(
            controller._energy_lut, first._energy_lut
        ):
            raise ConfigurationError("stacked controllers must share their energy models")
        leveler, reference = controller.wear_leveler, first.wear_leveler
        if (leveler is None) != (reference is None) or (
            leveler is not None
            and reference is not None
            and (
                leveler is reference
                or (leveler.rows, leveler.gap_write_interval, leveler.gap_position)
                != (reference.rows, reference.gap_write_interval, reference.gap_position)
                or leveler.writes_until_gap_move != reference.writes_until_gap_move
                or leveler.mapping_snapshot() != reference.mapping_snapshot()
            )
        ):
            raise ConfigurationError(
                "stacked controllers must each have their own Start-Gap leveler in one "
                "state, or none"
            )


class _BandStack:
    """The memories of one replay: its controllers as bands of one store.

    A lone controller is its own band and keeps its array and auxiliary
    store.  Several controllers are stacked: band ``k``'s rows are rows
    ``k * rows`` onward of one :meth:`repro.pcm.array.PCMArray.stack`
    array and one auxiliary store, which the controllers view from then
    on.  :attr:`live` lists the bands still replaying, in band order.
    """

    def __init__(
        self, controllers: Sequence[MemoryController], stops: Sequence[Optional[ReplayStop]]
    ):
        first = controllers[0]
        self.controllers = list(controllers)
        self.stops = list(stops)
        self.band_rows = first.array.rows
        if len(controllers) == 1:
            self.array = first.array
            self.aux = first._aux_store
        else:
            _check_stackable(controllers)
            self.array = PCMArray.stack([controller.array for controller in controllers])
            self.aux = np.concatenate([controller._aux_store for controller in controllers])
            for band, controller in enumerate(controllers):
                controller._aux_store = self.aux[band * self.band_rows: (band + 1) * self.band_rows]
        self.results = _BandResults(len(controllers), first.config.words_per_line)
        self.performed = [0] * len(controllers)
        self.stopped = [False] * len(controllers)
        self.cap = first.replay_wave_lines
        self.leveled = first.wear_leveler is not None
        self.word_bits = first.config.word_bits
        self.words_per_line = first.config.words_per_line
        self.bits_per_cell = first.array.bits_per_cell
        self.cells_per_row = first.array.cells_per_row
        self.levels = first.array.technology.levels
        self.energy_flat = first._energy_flat
        self.aux_bit_energy = first._aux_bit_energy
        #: Whether any band encodes against the oracle stuck masks, keeps
        #: a fault repository, or senses reads through a transient model.
        self.oracle = any(
            c.fault_knowledge == "oracle" and not c.encoder.is_identity for c in controllers
        )
        self.repositories = any(c.fault_repository is not None for c in controllers)
        self.tracked = self.repositories or any(c._sense_counts is not None for c in controllers)
        self._set_live(list(range(len(controllers))))

    def _set_live(self, live: List[int]) -> None:
        self.live = live
        self.live_array = np.asarray(live, dtype=np.intp)
        #: Live bands with a stop predicate, in band order.
        self.checked = [band for band in live if self.stops[band] is not None]

    # ------------------------------------------------------------- waves
    def run_chunk(
        self, chunk_addresses: np.ndarray, stored: Sequence[Optional[np.ndarray]], start: int
    ) -> None:
        """Run the writes ``[start, start + len(chunk_addresses))`` on every live band.

        ``stored[band]`` is the band's ``(writes, words_per_line)``
        ``uint64`` matrix of words to store: the ciphertext, or the
        plaintext when the controllers do not encrypt.  The scheduler
        works like a reorder buffer, since per-row order is the only true
        dependency between writes: it executes out of order and retires
        in order.

        * **Wave rule.**  The look-ahead window spans
          ``REPLAY_LOOKAHEAD_WAVES * replay_wave_lines`` writes from the
          oldest pending write.  A wave takes, in trace order, the earliest
          pending write of each distinct row in the window, up to
          ``replay_wave_lines`` lines; a later write to a row already in
          the wave is deferred to a later wave instead of ending this one.
          Every earlier write to a picked row has therefore executed, so
          encoding the wave's rows against one gather through a single
          :meth:`repro.coding.base.Encoder.encode_lines` call per band, and
          applying them with one
          :meth:`repro.pcm.array.PCMArray.write_rows_fast` call, is
          bit-identical to running those writes one by one in trace order.
        * **Retirement.**  After each wave the oldest writes retire in
          trace order while they have executed: each band's Start-Gap
          ``record_write`` and any gap migration run here, then each
          band's ``stop``.  Under Start-Gap the window ends at the write
          that triggers the next gap move, so no write executes under a
          mapping that a migration is about to rotate.
        * **Squash.**  When a band's ``stop`` fires at write ``k``, every
          executed write of that band past ``k`` ran speculatively: each
          wave keeps its rows' pre-write state, and the earliest squashed
          write of each row restores that row from it (:meth:`_squash`).
          The band then leaves the stack.  Without a live band that has a
          ``stop`` nothing is snapshotted.

        Bands record their performed writes and whether they stopped in
        :attr:`performed` and :attr:`stopped`.
        """
        cap = self.cap
        lookahead = cap * REPLAY_LOOKAHEAD_WAVES
        count = len(chunk_addresses)
        capacity = self.results.capacity
        addresses = self.results.arrays["addresses"]
        saw_cells = self.results.arrays["saw_cells"]
        saw_bits = self.results.arrays["saw_bits_per_word"]
        addresses[self.live_array, start:start + count] = chunk_addresses
        # Without wear leveling the address-to-row mapping is fixed, so the
        # whole chunk's rows come from one vectorised modulo; under
        # Start-Gap each write is mapped as it enters the window.
        rows_of: List[int] = [] if self.leveled else (chunk_addresses % self.band_rows).tolist()
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
            if self.leveled:
                # Every live band's leveler is in the same state.
                scheduler = self.controllers[self.live[0]]
                gap_end = retired + scheduler.wear_leveler.writes_until_gap_move
                if gap_end < limit:
                    limit = gap_end
                    gap_capped = True
                for local in range(admitted, limit):
                    rows_of.append(scheduler.row_for_address(int(chunk_addresses[local])))
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
            _OBS_WAVES.inc()
            if conflicted:
                _OBS_CONFLICT_CUTS.inc()
            if gap_capped:
                _OBS_GAP_FLUSHES.inc()

            # ---- execution: one gather, encode per band and one scatter.
            self._wave(picked, rows, stored, start, capacity, snapshots)
            for local in picked:
                executed[local] = 1

            # ---- retirement, in trace order.
            while retired < admitted and executed[retired]:
                local = retired
                retired += 1
                index = start + local
                if self.leveled:
                    for band in self.live:
                        controller = self.controllers[band]
                        movement = controller.wear_leveler.record_write()
                        if movement is not None:
                            controller._migrate_row(*movement)
                for band in self.checked:
                    if self.stops[band](
                        index,
                        rows_of[local],
                        int(saw_cells[band, index]),
                        saw_bits[band, index],
                    ):
                        self._stop(band, local, index + 1, snapshots)
                if not self.live:
                    return
            while snapshots and snapshots[0].writes[-1] < retired:
                snapshots.popleft()
        for band in self.live:
            self.performed[band] = start + count

    def _wave(
        self,
        picked: List[int],
        rows: List[int],
        stored: Sequence[Optional[np.ndarray]],
        start: int,
        capacity: int,
        snapshots: "Deque[_WaveSnapshot]",
    ) -> None:
        """Execute one wave's writes on every live band."""
        live = self.live
        lines = len(picked)
        local_array = np.asarray(picked, dtype=np.intp)
        row_array = np.asarray(rows, dtype=np.intp)
        if len(live) == 1:
            band = live[0]
            global_rows = row_array + band * self.band_rows if band else row_array
            at = local_array + (band * capacity + start)
            row_values = row_array
        else:
            global_rows = (self.live_array[:, None] * self.band_rows + row_array).reshape(-1)
            at = (self.live_array[:, None] * capacity + (local_array + start)).reshape(-1)
            row_values = np.tile(row_array, len(live))
        _OBS_WAVE_LINES.observe(len(global_rows))
        with _OBS_SPAN("replay.wave", lines=len(global_rows)):
            old_auxes = self.aux[global_rows]
            faults = sense_counts = None
            if self.checked and self.tracked:
                bands = [self.controllers[band] for band in live]
                faults = [
                    None if c.fault_repository is None
                    else c.fault_repository.snapshot_rows(row_array)
                    for c in bands
                ]
                sense_counts = [
                    None if c._sense_counts is None else c._sense_counts[row_array] for c in bands
                ]
            old_rows = self.array.read_rows(global_rows)
            stuck_rows = self.array.stuck_rows(global_rows) if self.oracle else None
            line_shape = (lines, self.words_per_line, -1)
            codeword_parts: List[np.ndarray] = []
            aux_parts: List[np.ndarray] = []
            for position, band in enumerate(live):
                controller = self.controllers[band]
                part = slice(position * lines, (position + 1) * lines)
                words = stored[band][local_array]
                if controller.encoder.is_identity:
                    # The codewords are the words themselves; nothing is
                    # sensed and the auxiliary bits (none) stay as they are.
                    codeword_parts.append(words)
                    aux_parts.append(old_auxes[part])
                    continue
                if controller.fault_knowledge == "oracle":
                    stuck = stuck_rows[part]
                elif controller.fault_knowledge == "discovered":
                    stuck = np.stack([controller._stuck_knowledge(row) for row in rows])
                else:
                    stuck = None
                batch = LineBatch(
                    old_cells=controller._sensed_rows(old_rows[part], rows).reshape(line_shape),
                    stuck_mask=None if stuck is None else stuck.reshape(line_shape),
                    bits_per_cell=self.bits_per_cell,
                    old_auxes=old_auxes[part],
                )
                encoded = controller.encoder.encode_lines(words, batch)
                codeword_parts.append(encoded.codewords)
                aux_parts.append(encoded.auxes)
            if len(live) == 1:
                codewords, new_auxes = codeword_parts[0], aux_parts[0]
            else:
                codewords, new_auxes = np.concatenate(codeword_parts), np.concatenate(aux_parts)
            intended = words_matrix_to_cells(codewords, self.word_bits, self.bits_per_cell).reshape(
                len(global_rows), self.cells_per_row
            )
            before, stored_rows, changed, newly = self.array.write_rows_fast(global_rows, intended)
            if self.checked:
                snapshots.append(
                    _WaveSnapshot(picked, tuple(live), before, old_auxes, faults, sense_counts)
                )
            self.aux[global_rows] = new_auxes
            flat = self.results.flat
            flat["row_indices"][at] = row_values
            flat["newly_stuck_cells"][at] = newly
            self._flush_accounting(flat, at, old_rows, stored_rows, intended, changed)
            aux_bits = _changed_aux_bits(new_auxes, old_auxes)
            flat["aux_energy_fj"][at] = self.aux_bit_energy * aux_bits
            if self.repositories:
                # observe_write is a no-op for rows whose stored cells all
                # match; only rows with SAW cells carry discoveries.
                for line in np.nonzero(flat["saw_cells"][at])[0]:
                    repository = self.controllers[live[line // lines]].fault_repository
                    if repository is not None:
                        repository.observe_write(
                            rows[line % lines], intended[line], stored_rows[line]
                        )

    def _flush_accounting(
        self,
        flat: Dict[str, np.ndarray],
        at: np.ndarray,
        old_rows: np.ndarray,
        stored_rows: np.ndarray,
        intended_rows: np.ndarray,
        changed: np.ndarray,
    ) -> None:
        """Vectorised accounting of a wave's applied writes.

        ``at`` selects the writes' entries in the flat result arrays (one
        per row) and ``changed`` is the write's ``stored_rows != old_rows``
        mask.  Energy, changed bits/cells, and SAW counts are pure
        functions of the (old, stored, intended) cell rows, and all of them
        are integers (energy in fJ), so each row's sum equals the scalar
        path's in any order.  A stored cell differs from the intended
        value exactly at the stuck-at-wrong positions, so SAW counts fall
        out of the xor.
        """
        flat["data_energy_fj"][at] = np.take(
            self.energy_flat, old_rows * self.levels + intended_rows
        ).sum(axis=1)
        cells_changed = np.count_nonzero(changed, axis=1)
        flat["cells_changed"][at] = cells_changed
        wrong_xor = stored_rows ^ intended_rows
        flat["saw_cells"][at] = np.count_nonzero(wrong_xor, axis=1)
        if self.bits_per_cell == 1:
            flat["bits_changed"][at] = cells_changed
            wrong_bits = wrong_xor
        else:
            xor = old_rows ^ stored_rows
            flat["bits_changed"][at] = ((xor & 1) + (xor >> 1)).sum(axis=1, dtype=np.int64)
            wrong_bits = (wrong_xor & 1) + (wrong_xor >> 1)
        flat["saw_bits_per_word"][at] = wrong_bits.reshape(
            len(old_rows), self.words_per_line, -1
        ).sum(axis=2, dtype=np.int64)

    # ------------------------------------------------------------ stops
    def _stop(self, band: int, stop_local: int, performed: int, snapshots) -> None:
        """End one band's replay after its chunk-local write ``stop_local``."""
        self.performed[band] = performed
        self.stopped[band] = True
        self._squash(band, stop_local, snapshots)
        self._set_live([live for live in self.live if live != band])

    def _squash(self, band: int, stop_local: int, snapshots: "Deque[_WaveSnapshot]") -> None:
        """Undo every executed write of ``band`` in the chunk past ``stop_local``.

        Waves are visited in execution order, so the first squashed write
        met for a row is that row's earliest one and its snapshot holds the
        row's state at the stop.  Only rows are restored: encryption
        counters are set by the replay from the writes it performed.  The
        cells, wear and stuck masks are the ones ``write_rows_fast``
        gathered and returned; the aux bits gathered for the encoder, the
        transient-sense read counts and the fault-repository entries were
        saved before sensing.
        """
        controller = self.controllers[band]
        offset = band * self.band_rows
        restored = set()
        squashed = 0
        for snapshot in snapshots:
            if band not in snapshot.bands:
                continue
            position = snapshot.bands.index(band)
            base = position * len(snapshot.writes)
            entries = []
            for line, local in enumerate(snapshot.writes):
                if local <= stop_local:
                    continue
                squashed += 1
                row_index = int(snapshot.array_rows.rows[base + line])
                if row_index not in restored:
                    restored.add(row_index)
                    entries.append(base + line)
            if not entries:
                continue
            chosen = np.asarray(entries, dtype=np.intp)
            saved = snapshot.array_rows.select(chosen)
            self.array.restore_rows(saved)
            self.aux[saved.rows] = snapshot.auxes[chosen]
            band_rows = saved.rows - offset
            if snapshot.faults is not None and snapshot.faults[position] is not None:
                faults = snapshot.faults[position]
                controller.fault_repository.restore_rows(
                    {int(row): faults[int(row)] for row in band_rows}
                )
            if snapshot.sense_counts is not None and snapshot.sense_counts[position] is not None:
                controller._sense_counts[band_rows] = snapshot.sense_counts[position][chosen - base]
        _OBS_SQUASHED_WRITES.inc(squashed)
