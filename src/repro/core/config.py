"""Configuration of the VCC(n, N, r) design space.

A VCC instance is described by:

* ``word_bits`` (n) — the data-block width handled per encode, 64 bits in
  the paper's evaluation (32 supported for legacy machines);
* ``kernel_bits`` (m) — the width of each coset kernel;
* ``num_kernels`` (r) — how many kernels are stored or generated;
* the *encoded region*: for SLC (and optionally MLC) the full n-bit word;
  for the paper's MLC design (Section IV-B) only the right-digit bitplane
  of the word (n/2 bits), which leaves the left digits untouched so they
  can seed the kernel generator and remain recoverable at decode time;
* ``stored_kernels`` — whether kernels live in a ROM (pre-generated random
  strings) or are derived from the encrypted block itself via Algorithm 2.

Derived quantities follow the paper: the encoded region is split into
``p = encoded_bits / m`` partitions, each kernel contributes ``2^p``
virtual cosets, so ``N = r * 2^p`` and the auxiliary information per word
is ``log2(r) + p = log2(N)`` bits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.validation import (
    require,
    require_divisible,
    require_power_of_two,
    require_word_bits,
)

__all__ = ["EncodeRegion", "VCCConfig"]


class EncodeRegion(enum.Enum):
    """Which bits of the word the coset kernels are applied to."""

    #: Apply kernels to the full n-bit word (SLC, or MLC with stored kernels
    #: when left-digit recoverability is not needed).
    FULL_WORD = "full"

    #: Apply kernels only to the right-digit bitplane of an MLC word (the
    #: paper's MLC design): write energy is insensitive to the left digit,
    #: and leaving it unchanged lets Algorithm 2 regenerate the kernels at
    #: decode time.
    RIGHT_PLANE = "right-plane"


@dataclass(frozen=True)
class VCCConfig:
    """Static parameters of a VCC encoder instance."""

    word_bits: int = 64
    kernel_bits: int = 8
    num_kernels: int = 16
    technology: CellTechnology = CellTechnology.MLC
    encode_region: EncodeRegion = EncodeRegion.RIGHT_PLANE
    stored_kernels: bool = False

    def __post_init__(self) -> None:
        require_word_bits(self.word_bits)
        require(self.kernel_bits > 0, "kernel_bits must be positive")
        require_power_of_two(self.num_kernels, "num_kernels")
        require_divisible(
            self.word_bits,
            self.technology.bits_per_cell,
            "word_bits must hold an integer number of cells",
        )
        if self.encode_region is EncodeRegion.RIGHT_PLANE:
            if self.technology is not CellTechnology.MLC:
                raise ConfigurationError(
                    "right-plane encoding only applies to MLC memories"
                )
        if not self.stored_kernels:
            if self.encode_region is not EncodeRegion.RIGHT_PLANE:
                raise ConfigurationError(
                    "generated kernels (Algorithm 2) require right-plane encoding: "
                    "the left digits must stay unchanged so the decoder can "
                    "regenerate the kernels"
                )
        require_divisible(
            self.encoded_bits,
            self.kernel_bits,
            f"the encoded region ({self.encoded_bits} bits) must be divisible by "
            f"kernel_bits ({self.kernel_bits})",
        )
        if self.encode_region is EncodeRegion.FULL_WORD:
            require_divisible(
                self.kernel_bits,
                self.technology.bits_per_cell,
                "kernel_bits must hold whole cells when encoding the full word",
            )
        if self.partitions > 24:
            raise ConfigurationError(
                "more than 24 partitions would make the virtual-coset count unwieldy"
            )

    # ------------------------------------------------------------- derived
    @property
    def encoded_bits(self) -> int:
        """Number of bits the kernels are applied to (n or n/2)."""
        if self.encode_region is EncodeRegion.RIGHT_PLANE:
            return self.word_bits // 2
        return self.word_bits

    @property
    def partitions(self) -> int:
        """Number of kernel-sized partitions p of the encoded region."""
        return self.encoded_bits // self.kernel_bits

    @property
    def num_cosets(self) -> int:
        """Total number of virtual coset candidates N = r * 2^p."""
        return self.num_kernels * (1 << self.partitions)

    @property
    def aux_bits(self) -> int:
        """Auxiliary bits per word: log2(r) kernel index + p flip flags."""
        return (self.num_kernels.bit_length() - 1) + self.partitions

    @property
    def cells_per_word(self) -> int:
        """Number of physical cells backing one word."""
        return self.word_bits // self.technology.bits_per_cell

    @property
    def cells_per_partition(self) -> int:
        """Number of cells covered by one kernel-sized partition."""
        return self.cells_per_word // self.partitions

    def describe(self) -> str:
        """Human-readable VCC(n, N, r) summary string."""
        return (
            f"VCC(n={self.word_bits}, N={self.num_cosets}, r={self.num_kernels}; "
            f"m={self.kernel_bits}, p={self.partitions}, "
            f"{'stored' if self.stored_kernels else 'generated'} kernels, "
            f"{self.encode_region.value}, {self.technology.value})"
        )

    # ------------------------------------------------------------ builders
    @classmethod
    def for_cosets(
        cls,
        num_cosets: int,
        word_bits: int = 64,
        technology: CellTechnology = CellTechnology.MLC,
        stored_kernels: bool = False,
        partitions: int = 4,
    ) -> "VCCConfig":
        """Build the paper's default configuration for ``N`` virtual cosets.

        With the default four partitions this reproduces the evaluation
        configurations VCC(64, N, N/16): each kernel contributes
        ``2^4 = 16`` virtual cosets, so ``r = N / 16`` kernels are needed
        and the auxiliary information is exactly ``log2 N`` bits.
        """
        require_power_of_two(num_cosets, "num_cosets")
        per_kernel = 1 << partitions
        if num_cosets < per_kernel * 2 and num_cosets != per_kernel:
            # Allow N == 2^p (a single kernel) but otherwise require a
            # power-of-two kernel count of at least one.
            raise ConfigurationError(
                f"num_cosets ({num_cosets}) must be at least 2^partitions = {per_kernel}"
            )
        if num_cosets % per_kernel != 0:
            raise ConfigurationError(
                f"num_cosets ({num_cosets}) must be a multiple of 2^partitions = {per_kernel}"
            )
        num_kernels = num_cosets // per_kernel
        if technology is CellTechnology.MLC and not stored_kernels:
            # Generated kernels (Algorithm 2) need the left-digit plane to
            # stay unchanged, so only the right-digit plane is encoded.
            region = EncodeRegion.RIGHT_PLANE
            encoded_bits = word_bits // 2
        else:
            # Stored kernels (and SLC) encode the full word, which is what
            # gives VCC its RCC-like stuck-at-wrong masking flexibility.
            region = EncodeRegion.FULL_WORD
            encoded_bits = word_bits
            stored_kernels = True
        kernel_bits = encoded_bits // partitions
        return cls(
            word_bits=word_bits,
            kernel_bits=kernel_bits,
            num_kernels=num_kernels,
            technology=technology,
            encode_region=region,
            stored_kernels=stored_kernels,
        )
