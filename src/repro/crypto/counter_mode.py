"""Counter-mode one-time-pad engine for cache-line encryption.

The on-chip encryption unit in the paper (Fig. 4) generates a 512-bit pad
per cache-line write from ``(256-bit key, line address, per-line counter)``
using four AES engines, XORs it with the plaintext line, and bumps the
counter so every stored value sees a fresh pad.  Reads regenerate the same
pad from the stored counter and XOR it away.

:class:`CounterModeEngine` reproduces that behaviour with a keyed BLAKE2b
PRF in place of AES: its pads are uniform and unique per address and
counter, which is all the downstream encoders depend on (they only need
the ciphertext to be unbiased).

:meth:`CounterModeEngine.encrypt_line` is the per-line oracle and
:meth:`CounterModeEngine.encrypt_lines` its batched twin.  A replayed
trace is encrypted once, not once per controller: the ciphertext of a
trace repeated end to end, from one set of starting counters, is a fixed
sequence, so :meth:`CounterModeEngine.replay_stream` keeps it as a
:class:`CiphertextStream` on the trace, extended lazily through
``encrypt_lines`` and kept up to a bounded prefix.  Every engine with the
same key, geometry and starting counters on the trace's addresses reads
the same stream, and its counters after a replay are a stream position
(:meth:`CounterModeEngine.seek`): each address's counter is its start
plus its occurrences among the writes performed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.utils.validation import require, require_word_bits

if TYPE_CHECKING:  # runtime import would be circular via repro.traces
    from repro.traces.trace import Trace

__all__ = ["CiphertextStream", "CounterModeEngine", "EncryptedLine"]

# Encryption-engine telemetry, bumped per call (the derived-pads counter
# adds a whole chunk's line count in one increment).  The pads applied to
# performed writes are counted by the memory controller as ``crypto.pads``.
_OBS_PAD_CHUNKS = obs.counter(
    "crypto.pad_chunks", "batched encrypt_lines calls (one pad chunk each)"
)
_OBS_DERIVED_PADS = obs.counter(
    "crypto.derived_pads", "one-time pads derived by the PRF (encrypt_line/encrypt_lines)"
)
_OBS_ROLLBACKS = obs.counter(
    "crypto.rollbacks", "rollback_counters calls (no replay path makes one)"
)
_OBS_ROLLED_BACK = obs.counter(
    "crypto.rolled_back_counters", "per-line counter bumps undone by rollbacks"
)

#: Ciphertext a :class:`CiphertextStream` keeps, per stream: 16,384
#: positions of 512-bit lines.  A cached trace holds its streams, so
#: this bounds what a long replay leaves behind.
_STREAM_RETAINED_BYTES = 1 << 20


@dataclass(frozen=True)
class EncryptedLine:
    """An encrypted cache line plus the metadata needed to decrypt it.

    Attributes
    ----------
    address:
        Line-aligned physical address of the write.
    counter:
        Value of the per-line write counter used to derive the pad.
    words:
        Tuple of ciphertext words (``word_bits`` wide each).
    """

    address: int
    counter: int
    words: Tuple[int, ...]


class CounterModeEngine:
    """Counter-mode encryption of fixed-size cache lines.

    Parameters
    ----------
    key:
        Encryption key bytes.  Any length is accepted; the first 64 bytes
        key the pad derivation.
    line_bits:
        Cache-line size in bits (default 512, matching the paper).
    word_bits:
        Word granularity used by the encoders (default 64, at most 64).
    """

    def __init__(
        self,
        key: bytes = b"\x00" * 32,
        line_bits: int = 512,
        word_bits: int = 64,
    ):
        require_word_bits(word_bits)
        require(line_bits > 0, "line_bits must be positive")
        require(
            line_bits % word_bits == 0,
            f"line_bits ({line_bits}) must be a multiple of word_bits ({word_bits})",
        )
        self.key = bytes(key)
        if not self.key:
            raise ConfigurationError("encryption key must not be empty")
        self.line_bits = line_bits
        self.word_bits = word_bits
        self.words_per_line = line_bits // word_bits
        #: Pad bytes per word: word ``i``'s pad is bytes ``[i * k, (i + 1) * k)``
        #: of the line's pad stream, read big-endian and masked to
        #: ``word_bits`` (at 8/16/32/64-bit words, exactly ``word_bits / 8``).
        self.word_bytes = -(-word_bits // 8)
        #: Pad-stream bytes derived per line.
        self._pad_length = self.words_per_line * self.word_bytes
        self._counters: Dict[int, int] = {}
        # The keyed PRF with its key block already compressed; pad
        # derivations copy it per pad block instead of re-keying.
        self._prf = hashlib.blake2b(key=self.key[:64], digest_size=32)

    # ------------------------------------------------------------- counters
    def counter_for(self, address: int) -> int:
        """Return the current write counter for ``address`` (0 if never written)."""
        return self._counters.get(address, 0)

    def rollback_counters(self, addresses: Sequence[int]) -> None:
        """Un-bump the counters of lines that were encrypted but not stored.

        Undoes one :meth:`encrypt_line`/:meth:`encrypt_lines` bump per
        listed address.  The replay drivers never call it: a trace replay
        reads a :class:`CiphertextStream` and sets the counters of the
        writes it performed with :meth:`seek`.
        """
        counters = self._counters
        for address in addresses:
            address = int(address)
            current = counters.get(address, 0)
            if current <= 0:
                raise ConfigurationError(
                    f"cannot roll back counter of address {address}: never encrypted"
                )
            counters[address] = current - 1
        _OBS_ROLLBACKS.inc()
        _OBS_ROLLED_BACK.inc(len(addresses))

    def reset_counters(self) -> None:
        """Forget all per-line counters (used between experiment repetitions)."""
        self._counters.clear()

    # --------------------------------------------------------------- streams
    def replay_stream(self, trace: "Trace") -> Tuple["CiphertextStream", int]:
        """The ciphertext stream a replay of ``trace`` from these counters reads.

        Returns ``(stream, position)``: the replay's ``i``-th write is
        stored as ``stream.segment(position + i, position + i + 1)[0]``.  The
        stream is kept on the trace (:meth:`repro.traces.trace.Trace.derived`),
        keyed by this engine's key, geometry and *base* counters on the
        trace's addresses.  The base is the current counters minus as
        many whole passes over the trace as they hold, and ``position``
        skips those passes, so a fresh engine and one that already
        replayed the trace ``k`` times read the same stream.
        """
        addresses, inverse, per_pass = trace.derived(
            "address-index",
            lambda: np.unique(trace.addresses_array(), return_inverse=True, return_counts=True),
        )
        counters = self._counters
        current = np.fromiter(
            (counters.get(address, 0) for address in addresses.tolist()),
            dtype=np.int64,
            count=len(addresses),
        )
        passes = int((current // per_pass).min()) if len(addresses) else 0
        base = current - passes * per_pass
        key = ("ciphertext", self.key, self.line_bits, self.word_bits, base.tobytes())

        def build() -> CiphertextStream:
            engine = CounterModeEngine(self.key, self.line_bits, self.word_bits)
            return CiphertextStream(engine, trace, addresses, inverse, per_pass, base)

        return trace.derived(key, build), passes * len(trace)

    def seek(self, stream: "CiphertextStream", position: int) -> None:
        """Set the counters of the stream's addresses to their values at ``position``.

        That is the state of this engine after a replay that started on
        ``stream`` (see :meth:`replay_stream`) and performed writes up to
        ``position``: each address's counter is its base counter plus
        its occurrences among the stream's first ``position`` writes.
        """
        counters = stream.counters_at(position)
        touched = np.nonzero(counters)[0]
        self._counters.update(
            zip(stream.addresses[touched].tolist(), counters[touched].tolist())
        )

    # ------------------------------------------------------------------ pad
    def pad_words(self, address: int, counter: int) -> List[int]:
        """Generate the one-time pad for ``(address, counter)`` as a word list.

        Word ``i`` takes its :attr:`word_bytes` byte slot of the pad
        stream, so every one of its ``word_bits`` bits is covered.
        """
        pad_bytes = self._pad_bytes(address, counter)
        size = self.word_bytes
        mask = (1 << self.word_bits) - 1
        return [
            int.from_bytes(pad_bytes[index * size: (index + 1) * size], "big") & mask
            for index in range(self.words_per_line)
        ]

    def _pad_bytes(self, address: int, counter: int) -> bytes:
        needed = self._pad_length
        out = bytearray()
        block_index = 0
        while len(out) < needed:
            digest = hashlib.blake2b(
                address.to_bytes(8, "big")
                + counter.to_bytes(8, "big")
                + block_index.to_bytes(4, "big"),
                key=self.key[:64],
                digest_size=32,
            ).digest()
            out.extend(digest)
            block_index += 1
        return bytes(out[:needed])

    def _prf_pad_chunk(
        self, address_values: np.ndarray, counter_values: np.ndarray
    ) -> np.ndarray:
        """Pad bytes for a whole chunk from the engine's keyed BLAKE2b state.

        hashlib has no batched entry point, so blocks stay one digest
        each, but every block copies the keyed state built once per
        engine rather than compressing the key block again, and the
        chunk's digests are decoded together.  Returns ``(lines,
        words_per_line * word_bytes)`` uint8 pad bytes, bit-identical to
        :meth:`_pad_bytes`.
        """
        prf = self._prf
        needed = self._pad_length
        block_suffixes = [
            index.to_bytes(4, "big") for index in range(-(-needed // prf.digest_size))
        ]
        digests = []
        for address, counter in zip(address_values.tolist(), counter_values.tolist()):
            prefix = address.to_bytes(8, "big") + counter.to_bytes(8, "big")
            for suffix in block_suffixes:
                block = prf.copy()
                block.update(prefix + suffix)
                digests.append(block.digest())
        pads = np.frombuffer(b"".join(digests), dtype=np.uint8)
        width = len(block_suffixes) * prf.digest_size
        return np.ascontiguousarray(pads.reshape(address_values.shape[0], width)[:, :needed])

    # -------------------------------------------------------------- encrypt
    def encrypt_line(self, address: int, plaintext_words: List[int]) -> EncryptedLine:
        """Encrypt one cache line, bumping the per-line counter.

        Parameters
        ----------
        address:
            Line-aligned address.
        plaintext_words:
            ``words_per_line`` plaintext words of ``word_bits`` bits each.
        """
        if len(plaintext_words) != self.words_per_line:
            raise ConfigurationError(
                f"expected {self.words_per_line} words per line, got {len(plaintext_words)}"
            )
        word_mask = (1 << self.word_bits) - 1
        counter = self._counters.get(address, 0) + 1
        self._counters[address] = counter
        pad = self.pad_words(address, counter)
        _OBS_DERIVED_PADS.inc()
        cipher = tuple((int(w) ^ p) & word_mask for w, p in zip(plaintext_words, pad))
        return EncryptedLine(address=address, counter=counter, words=cipher)

    def encrypt_lines(
        self, addresses: Sequence[int], plaintext_words: np.ndarray
    ) -> np.ndarray:
        """Encrypt many cache lines at once, bumping each per-line counter.

        Bit-identical to calling :meth:`encrypt_line` once per row of
        ``plaintext_words`` (a ``(lines, words_per_line)`` unsigned-integer
        matrix) in order: counters advance per occurrence of an address and
        the pads are the same keyed-PRF streams.  Only the word packing
        and the XOR are vectorised — which is exactly the part that
        dominates the scalar path once the caller replays a long trace.
        Each word's pad bytes go into the low bytes of an 8-byte slot, and
        the slots are read as big-endian ``uint64`` words, so one layout
        serves every word width up to 64 bits.

        Returns the ciphertext as a ``(lines, words_per_line)`` ``uint64``
        matrix.
        """
        matrix = np.ascontiguousarray(plaintext_words, dtype=np.uint64)
        if matrix.ndim != 2 or matrix.shape[1] != self.words_per_line:
            raise ConfigurationError(
                f"expected a (lines, {self.words_per_line}) word matrix, "
                f"got shape {matrix.shape}"
            )
        if len(addresses) != matrix.shape[0]:
            raise ConfigurationError("one address per plaintext line is required")
        _OBS_PAD_CHUNKS.inc()
        _OBS_DERIVED_PADS.inc(matrix.shape[0])
        counters = self._counters
        count = matrix.shape[0]
        address_values = np.empty(count, dtype=np.uint64)
        counter_values = np.empty(count, dtype=np.uint64)
        for index, address in enumerate(addresses):
            address = int(address)
            counter = counters.get(address, 0) + 1
            counters[address] = counter
            address_values[index] = address
            counter_values[index] = counter
        pad_bytes = self._prf_pad_chunk(address_values, counter_values)
        shape = (count, self.words_per_line)
        slots = np.zeros(shape + (8,), dtype=np.uint8)
        slots[:, :, 8 - self.word_bytes:] = pad_bytes.reshape(shape + (self.word_bytes,))
        cipher = matrix ^ slots.view(">u8").reshape(shape).astype(np.uint64)
        if self.word_bits < 64:
            cipher &= np.uint64((1 << self.word_bits) - 1)
        return cipher

    def decrypt_line(self, line: EncryptedLine) -> List[int]:
        """Decrypt an :class:`EncryptedLine` back to plaintext words."""
        word_mask = (1 << self.word_bits) - 1
        pad = self.pad_words(line.address, line.counter)
        return [(int(w) ^ p) & word_mask for w, p in zip(line.words, pad)]


class CiphertextStream:
    """The ciphertext of one trace replayed end to end, pass after pass.

    Position ``p`` holds the encryption of trace record ``p % len(trace)``
    as the ``p``-th write of a replay whose engine starts from the
    stream's base counters.  Positions are derived on demand by
    :meth:`CounterModeEngine.encrypt_lines` on a private engine whose
    counters are first set to their values at the first derived
    position (:meth:`counters_at`), so the stream is bit-identical to
    encrypting the same writes one by one with
    :meth:`CounterModeEngine.encrypt_line`, and a derivation cut short
    (a timeout, an interrupt) leaves nothing that a later one reads.

    The first :data:`_STREAM_RETAINED_BYTES` of ciphertext are kept and
    shared; later positions are derived for each request and dropped, so
    a replay that outlives many passes does not pin its whole ciphertext
    to a cached trace.  Build streams with
    :meth:`CounterModeEngine.replay_stream`.
    """

    def __init__(
        self,
        engine: CounterModeEngine,
        trace: "Trace",
        addresses: np.ndarray,
        inverse: np.ndarray,
        per_pass: np.ndarray,
        base: np.ndarray,
    ):
        words = trace.words_array()
        #: Distinct addresses of the trace, ascending.
        self.addresses = addresses
        self._engine = engine
        self._record_addresses = trace.addresses_array()
        self._words = words
        self._inverse = inverse.reshape(-1)
        self._per_pass = per_pass
        self._base = base
        self._cipher = np.empty((0, engine.words_per_line), dtype=np.uint64)
        #: Positions kept so far.
        self.length = 0
        #: Positions past this one are never kept.
        self.retained = _STREAM_RETAINED_BYTES // (8 * engine.words_per_line)

    def segment(self, start: int, end: int) -> np.ndarray:
        """Positions ``[start, end)`` as a read-only ``(end - start, words_per_line)`` array.

        Read-only because every controller replaying the trace may share
        it.  Within the retained prefix the missing positions are derived
        with one ``encrypt_lines`` call and kept; the buffer at least
        doubles when it grows, so extending a stream one chunk at a time
        copies O(length) words in total.  A segment that ends past the
        prefix is derived whole and not kept.
        """
        if end > self.retained:
            segment = self._derive(start, end)
        else:
            if end > self.length:
                if end > len(self._cipher):
                    grown = np.empty(
                        (min(max(end, 2 * len(self._cipher)), self.retained),
                         self._engine.words_per_line),
                        dtype=np.uint64,
                    )
                    grown[: self.length] = self._cipher[: self.length]
                    self._cipher = grown
                self._cipher[self.length:end] = self._derive(self.length, end)
                self.length = end
            segment = self._cipher[start:end]
        segment.flags.writeable = False
        return segment

    def _derive(self, start: int, end: int) -> np.ndarray:
        """Encrypt positions ``[start, end)`` from the counters at ``start``."""
        engine = self._engine
        engine._counters = dict(
            zip(self.addresses.tolist(), self.counters_at(start).tolist())
        )
        records = np.arange(start, end, dtype=np.int64) % len(self._record_addresses)
        return engine.encrypt_lines(self._record_addresses[records], self._words[records])

    def counters_at(self, position: int) -> np.ndarray:
        """Each address's counter after the stream's first ``position`` writes."""
        passes, partial = divmod(position, len(self._record_addresses))
        return (
            self._base
            + passes * self._per_pass
            + np.bincount(self._inverse[:partial], minlength=len(self.addresses))
        )
