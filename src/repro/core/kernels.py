"""Coset-kernel providers: stored ROM kernels and the Algorithm 2 generator.

VCC builds its virtual coset candidates from ``r`` short (m-bit) kernels.
The paper evaluates two sources for those kernels:

* **stored kernels** — pre-generated random m-bit strings held in a small
  ROM next to the encoder (the "VCC-Stored" design points);
* **generated kernels** — Algorithm 2 derives the kernels at run time from
  the *left digits* of the encrypted data block itself.  Because the MLC
  design never modifies the left digits (write energy is insensitive to
  them), the decoder can regenerate exactly the same kernels from the
  stored codeword, and no kernel material exists at rest that an attacker
  could learn to defeat the scheme.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import EncodeRegion, VCCConfig
from repro.errors import ConfigurationError
from repro.utils.bitops import random_word, split_planes, split_planes_array, split_subblocks
from repro.utils.rng import make_rng

__all__ = ["KernelProvider", "StoredKernelProvider", "GeneratedKernelProvider"]


class KernelProvider(abc.ABC):
    """Produces the ``r`` coset kernels used to encode/decode one word."""

    def __init__(self, kernel_bits: int, num_kernels: int):
        if kernel_bits <= 0:
            raise ConfigurationError("kernel_bits must be positive")
        if num_kernels <= 0:
            raise ConfigurationError("num_kernels must be positive")
        self.kernel_bits = kernel_bits
        self.num_kernels = num_kernels

    @abc.abstractmethod
    def kernels_for(self, word: int) -> List[int]:
        """Return the ``r`` kernels applicable to ``word``.

        ``word`` is the encrypted data block at encode time and the stored
        codeword at decode time; providers that do not depend on the data
        (stored ROM) ignore it.  The two calls must return identical
        kernels for any word whose unencoded region is unchanged, which is
        what makes decode possible.
        """

    def kernels_for_batch(self, words: np.ndarray) -> np.ndarray:
        """Kernels for a whole line at once, as a ``(words, r)`` array.

        The default loops over :meth:`kernels_for`, so custom providers
        stay correct on the batched encode path; both builtin providers
        override it with vectorised implementations.
        """
        return np.array(
            [self.kernels_for(int(word)) for word in np.asarray(words).ravel()],
            dtype=np.uint64,
        )

    @property
    def is_stored(self) -> bool:
        """True when kernels come from a ROM rather than from the data."""
        return False


class StoredKernelProvider(KernelProvider):
    """A ROM of ``r`` pre-generated random m-bit kernels.

    Parameters
    ----------
    kernel_bits:
        Kernel width m.
    num_kernels:
        Kernel count r.
    seed:
        Seed used to fill the ROM (ignored when ``kernels`` is given).
    kernels:
        Explicit kernel values, e.g. the four 16-bit kernels of the Fig. 3
        worked example.
    include_biased:
        Reserve the first ROM slot for the all-zeros (identity) kernel, as
        the paper's conclusion proposes for systems that mix encrypted and
        unencrypted data: together with the per-partition XNOR alternative
        the identity kernel realises exactly the biased Flip-N-Write
        candidates, so the hybrid encoder degrades gracefully on biased
        plaintext while the remaining random kernels handle encrypted data.
    """

    def __init__(
        self,
        kernel_bits: int,
        num_kernels: int,
        seed: Optional[int] = 12345,
        kernels: Optional[Sequence[int]] = None,
        include_biased: bool = False,
    ):
        super().__init__(kernel_bits, num_kernels)
        self.include_biased = include_biased
        limit = 1 << kernel_bits
        if kernels is not None:
            values = [int(k) for k in kernels]
            if len(values) != num_kernels:
                raise ConfigurationError(
                    f"expected {num_kernels} kernels, got {len(values)}"
                )
            for value in values:
                if not 0 <= value < limit:
                    raise ConfigurationError(
                        f"kernel {value:#x} does not fit in {kernel_bits} bits"
                    )
            self._kernels = values
            return
        # Random picks exclude 0, all-ones and each other's complements: one
        # kernel per complementary pair, plus the identity when biased.
        available = (1 << (kernel_bits - 1)) - 1 + int(include_biased)
        if num_kernels > available:
            raise ConfigurationError(
                f"a ROM of {kernel_bits}-bit kernels holds at most {available} "
                f"kernels, not {num_kernels}"
            )
        rng = make_rng(seed, "vcc-stored-kernels")
        chosen: List[int] = []
        seen = set()
        if include_biased:
            # The identity kernel (plus its XNOR alternative, i.e. whole-
            # partition inversion) reproduces the biased FNW candidates.
            chosen.append(0)
            seen.add(0)
        # Avoid adding the all-zeros / all-ones kernels as *random* picks:
        # together with the XNOR alternative they duplicate the biased
        # candidates that `include_biased` adds explicitly.
        forbidden = {0, limit - 1}
        while len(chosen) < num_kernels:
            candidate = random_word(rng, kernel_bits)
            if candidate in seen or candidate in forbidden:
                continue
            complement = candidate ^ (limit - 1)
            if complement in seen:
                continue
            seen.add(candidate)
            chosen.append(candidate)
        self._kernels = chosen

    @property
    def is_stored(self) -> bool:
        return True

    @property
    def kernels(self) -> List[int]:
        """The ROM contents (copy)."""
        return list(self._kernels)

    def kernels_for(self, word: int) -> List[int]:
        del word
        return list(self._kernels)

    def kernels_for_batch(self, words: np.ndarray) -> np.ndarray:
        num_words = int(np.asarray(words).size)
        rom = np.array(self._kernels, dtype=np.uint64)
        return np.broadcast_to(rom, (num_words, self.num_kernels))


class GeneratedKernelProvider(KernelProvider):
    """Algorithm 2: derive kernels from the left digits of the data block.

    The ``l = n/2`` left digits of the (encrypted, hence uniformly random)
    word are split into ``b = l / m`` m-bit *base vectors*.  Kernel ``i``
    is built from base vector ``i mod b`` XORed with a short mask that
    encodes ``i // b``, tiled across the kernel width; the extra mask bit
    of the paper keeps complementary patterns out of the generated set.
    Because the left digits are never modified by right-plane encoding, the
    decoder regenerates identical kernels from the stored codeword.
    """

    def __init__(self, config: VCCConfig):
        if config.encode_region is not EncodeRegion.RIGHT_PLANE:
            raise ConfigurationError(
                "generated kernels require right-plane encoding (the left digits "
                "must remain unchanged to regenerate kernels at decode time)"
            )
        super().__init__(config.kernel_bits, config.num_kernels)
        self.config = config
        self.plane_bits = config.word_bits // 2
        if self.plane_bits % self.kernel_bits != 0:
            raise ConfigurationError(
                f"the left-digit plane ({self.plane_bits} bits) must be divisible by "
                f"kernel_bits ({self.kernel_bits}) to form base vectors"
            )
        self.num_base_vectors = self.plane_bits // self.kernel_bits
        masks_needed = max(1, -(-self.num_kernels // self.num_base_vectors))  # ceil div
        self.mask_bits = 1 + max(1, (masks_needed - 1).bit_length()) if masks_needed > 1 else 1
        # The tiled mask of kernel i depends only on i, so both the scalar
        # and the batched path read it from this table.
        self._index_masks = [
            self._tiled_mask(index // self.num_base_vectors)
            for index in range(self.num_kernels)
        ]
        self._base_indices = np.arange(self.num_kernels) % self.num_base_vectors
        self._index_mask_array = np.array(self._index_masks, dtype=np.uint64)

    def _tiled_mask(self, mask_index: int) -> int:
        """Tile the ``mask_bits``-bit pattern of ``mask_index`` across a kernel."""
        if mask_index == 0:
            return 0
        pattern = mask_index & ((1 << self.mask_bits) - 1)
        tiled = 0
        filled = 0
        while filled < self.kernel_bits:
            take = min(self.mask_bits, self.kernel_bits - filled)
            tiled = (tiled << take) | (pattern >> (self.mask_bits - take))
            filled += take
        return tiled

    def kernels_for(self, word: int) -> List[int]:
        if word < 0 or word >= (1 << self.config.word_bits):
            raise ConfigurationError(
                f"word {word:#x} does not fit in {self.config.word_bits} bits"
            )
        left_plane, _right_plane = split_planes(word, self.config.word_bits)
        bases = split_subblocks(left_plane, self.plane_bits, self.kernel_bits)
        return [
            bases[index % self.num_base_vectors] ^ self._index_masks[index]
            for index in range(self.num_kernels)
        ]

    def kernels_for_batch(self, words: np.ndarray) -> np.ndarray:
        values = np.asarray(words, dtype=np.uint64).ravel()
        left_planes, _right = split_planes_array(values, self.config.word_bits)
        shifts = np.array(
            [
                self.kernel_bits * (self.num_base_vectors - 1 - index)
                for index in range(self.num_base_vectors)
            ],
            dtype=np.uint64,
        )
        bases = (left_planes[:, None] >> shifts) & np.uint64((1 << self.kernel_bits) - 1)
        return bases[:, self._base_indices] ^ self._index_mask_array[None, :]
