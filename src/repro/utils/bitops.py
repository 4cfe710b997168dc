"""Bit- and symbol-level helpers for fixed-width memory words.

All encoders in this repository operate on fixed-width data blocks (the
paper uses 64-bit words split into 16-bit sub-blocks, and 2-bit Gray-coded
MLC symbols).  The helpers here keep that arithmetic in one place:

* words are plain Python ``int`` values at API boundaries;
* bulk simulation paths use ``numpy`` arrays of ``uint64`` and a 16-bit
  popcount lookup table (:data:`POPCOUNT16`) for speed;
* MLC words are viewed either as a sequence of 2-bit symbols
  (:func:`split_symbols`) or as two bitplanes — the "left" (most
  significant) digit plane and the "right" (least significant) digit plane
  (:func:`split_planes`) — which is how Section IV-B of the paper applies
  VCC to multi-level cells.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "POPCOUNT16",
    "bits_to_int",
    "concat_subblocks",
    "hamming_distance",
    "hamming_weight",
    "int_to_bits",
    "interleave_planes",
    "merge_symbols",
    "popcount64_array",
    "random_word",
    "split_planes",
    "split_planes_array",
    "split_subblocks",
    "split_symbols",
    "spread_even_bits",
    "to_uint64_array",
]

#: Lookup table mapping every 16-bit value to its population count.  Used to
#: vectorise Hamming-weight computations over ``uint64`` arrays.
POPCOUNT16: np.ndarray = np.array(
    [bin(value).count("1") for value in range(1 << 16)], dtype=np.uint8
)


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits."""
    if width < 0:
        raise ConfigurationError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def hamming_weight(value: int) -> int:
    """Return the number of '1' bits in a non-negative integer."""
    if value < 0:
        raise ConfigurationError(f"hamming_weight expects a non-negative value, got {value}")
    return bin(value).count("1")


def hamming_distance(a: int, b: int) -> int:
    """Return the number of bit positions in which ``a`` and ``b`` differ."""
    return hamming_weight(a ^ b)


def popcount64_array(words: np.ndarray) -> np.ndarray:
    """Vectorised popcount of an array of ``uint64`` words.

    Parameters
    ----------
    words:
        Array of unsigned 64-bit integers (any shape).

    Returns
    -------
    numpy.ndarray
        Array of the same shape holding the per-word popcount as ``uint8``
        promoted to ``int64`` for safe summation.
    """
    words = np.asarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):  # numpy >= 2.0: hardware popcount
        return np.bitwise_count(words).astype(np.int64)
    total = np.zeros(words.shape, dtype=np.int64)
    for shift in (0, 16, 32, 48):
        chunk = (words >> np.uint64(shift)) & np.uint64(0xFFFF)
        total += POPCOUNT16[chunk.astype(np.uint32)]
    return total


def to_uint64_array(words: Iterable[int]) -> np.ndarray:
    """Convert an iterable of Python ints (each < 2**64) to a uint64 array."""
    out = np.fromiter((int(w) & 0xFFFFFFFFFFFFFFFF for w in words), dtype=np.uint64)
    return out


def int_to_bits(value: int, width: int) -> List[int]:
    """Return ``width`` bits of ``value``, most-significant bit first."""
    if value < 0 or value >= (1 << width):
        raise ConfigurationError(
            f"value {value} does not fit in {width} bits"
        )
    return [(value >> (width - 1 - i)) & 1 for i in range(width)]


def bits_to_int(bits: Sequence[int]) -> int:
    """Inverse of :func:`int_to_bits`: interpret ``bits`` MSB-first."""
    value = 0
    for bit in bits:
        if bit not in (0, 1):
            raise ConfigurationError(f"bits must be 0 or 1, got {bit!r}")
        value = (value << 1) | bit
    return value


def split_subblocks(value: int, width: int, sub_width: int) -> List[int]:
    """Split a ``width``-bit word into ``width // sub_width`` sub-blocks.

    Sub-block 0 holds the *most significant* bits, matching the layout of
    Fig. 3 in the paper where ``d0`` is the left-most partition of ``D``.
    """
    if width % sub_width != 0:
        raise ConfigurationError(
            f"block width {width} is not a multiple of sub-block width {sub_width}"
        )
    if value < 0 or value >= (1 << width):
        raise ConfigurationError(f"value {value} does not fit in {width} bits")
    count = width // sub_width
    sub_mask = mask(sub_width)
    return [
        (value >> (sub_width * (count - 1 - index))) & sub_mask
        for index in range(count)
    ]


def concat_subblocks(subblocks: Sequence[int], sub_width: int) -> int:
    """Inverse of :func:`split_subblocks` (sub-block 0 is most significant)."""
    sub_mask = mask(sub_width)
    value = 0
    for block in subblocks:
        if block < 0 or block > sub_mask:
            raise ConfigurationError(
                f"sub-block {block} does not fit in {sub_width} bits"
            )
        value = (value << sub_width) | block
    return value


def split_symbols(value: int, width: int) -> List[int]:
    """View a word as a sequence of 2-bit MLC symbols, MSB pair first.

    A ``width``-bit word holds ``width // 2`` symbols; symbol 0 occupies the
    two most significant bits.  Each symbol is returned as an integer in
    ``[0, 3]`` whose high bit is the "left" digit and low bit the "right"
    digit in the paper's terminology.
    """
    if width % 2 != 0:
        raise ConfigurationError(f"MLC words need an even bit width, got {width}")
    return split_subblocks(value, width, 2)


def merge_symbols(symbols: Sequence[int]) -> int:
    """Inverse of :func:`split_symbols`."""
    return concat_subblocks(symbols, 2)


def split_planes(value: int, width: int) -> Tuple[int, int]:
    """Split an MLC word into its (left, right) digit bitplanes.

    Returns a pair ``(left_plane, right_plane)`` of ``width // 2``-bit
    integers.  Bit ``k`` (MSB-first) of each plane is the corresponding
    digit of symbol ``k``.  This is the decomposition used by the MLC mode
    of VCC: the right plane is encoded, the left plane seeds the kernel
    generator (Section IV-B).
    """
    symbols = split_symbols(value, width)
    left = 0
    right = 0
    for symbol in symbols:
        left = (left << 1) | ((symbol >> 1) & 1)
        right = (right << 1) | (symbol & 1)
    return left, right


#: Magic masks of the classic Morton-decode bit compaction: after the k-th
#: step, the bits originally at even positions occupy contiguous groups of
#: 2^k bits.  Used to split whole arrays of MLC words into bitplanes.
_EVEN_BIT_MASKS = (
    (1, 0x3333333333333333),
    (2, 0x0F0F0F0F0F0F0F0F),
    (4, 0x00FF00FF00FF00FF),
    (8, 0x0000FFFF0000FFFF),
    (16, 0x00000000FFFFFFFF),
)


def _compact_even_bits(values: np.ndarray) -> np.ndarray:
    """Gather the bits at even positions of each uint64 into the low half."""
    out = values & np.uint64(0x5555555555555555)
    for shift, mask in _EVEN_BIT_MASKS:
        out = (out | (out >> np.uint64(shift))) & np.uint64(mask)
    return out


def split_planes_array(words: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised :func:`split_planes` over an array of ``uint64`` words.

    Returns ``(left, right)`` arrays of ``width // 2``-bit plane values,
    bit-compatible with the scalar helper: bit ``k`` (MSB-first) of each
    plane is the corresponding digit of symbol ``k``.
    """
    if width % 2 != 0 or width > 64:
        raise ConfigurationError(
            f"split_planes_array needs an even width of at most 64 bits, got {width}"
        )
    values = np.asarray(words, dtype=np.uint64)
    right = _compact_even_bits(values)
    left = _compact_even_bits(values >> np.uint64(1))
    return left, right


def interleave_planes(left: int, right: int, width: int) -> int:
    """Inverse of :func:`split_planes`.

    ``width`` is the full word width in bits (so each plane is
    ``width // 2`` bits).
    """
    if width % 2 != 0:
        raise ConfigurationError(f"MLC words need an even bit width, got {width}")
    half = width // 2
    if left < 0 or left >= (1 << half) or right < 0 or right >= (1 << half):
        raise ConfigurationError("bitplane value does not fit in width // 2 bits")
    value = 0
    for index in range(half):
        shift = half - 1 - index
        left_bit = (left >> shift) & 1
        right_bit = (right >> shift) & 1
        value = (value << 2) | (left_bit << 1) | right_bit
    return value


#: Magic masks of the classic Morton-encode bit spreading (inverse of
#: :data:`_EVEN_BIT_MASKS`): after the k-th step, contiguous groups of
#: 2^(4-k) bits sit at their even-position targets.
_SPREAD_BIT_MASKS = (
    (16, 0x0000FFFF0000FFFF),
    (8, 0x00FF00FF00FF00FF),
    (4, 0x0F0F0F0F0F0F0F0F),
    (2, 0x3333333333333333),
    (1, 0x5555555555555555),
)


def spread_even_bits(values: np.ndarray) -> np.ndarray:
    """Scatter the low 32 bits of each uint64 onto the even positions.

    Bit ``k`` of a right-digit plane value lands on bit ``2k``, the right
    digit of its MLC cell, so ``word ^ spread_even_bits(plane_mask)`` flips
    right digits only (the inverse of the right half of
    :func:`split_planes_array`).
    """
    out = np.asarray(values, dtype=np.uint64) & np.uint64(0xFFFFFFFF)
    for shift, mask in _SPREAD_BIT_MASKS:
        out = (out | (out << np.uint64(shift))) & np.uint64(mask)
    return out


def random_word(rng: np.random.Generator, width: int = 64) -> int:
    """Draw a uniformly random ``width``-bit word from ``rng``."""
    if width <= 0:
        raise ConfigurationError(f"word width must be positive, got {width}")
    value = 0
    remaining = width
    while remaining > 0:
        chunk = min(remaining, 32)
        value = (value << chunk) | int(rng.integers(0, 1 << chunk))
        remaining -= chunk
    return value
