"""Configuration of the memory-controller model."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.validation import require_word_bits

__all__ = ["ControllerConfig"]


@dataclass(frozen=True)
class ControllerConfig:
    """Static parameters of the write path.

    Attributes
    ----------
    line_bits:
        Cache-line size in bits (512 in the paper).
    word_bits:
        Encoding granularity (64 in the paper, at most 64).
    encrypt:
        Whether the counter-mode encryption unit is in the path.  Disabling
        it models the unencrypted systems the motivation section compares
        against.
    """

    line_bits: int = 512
    word_bits: int = 64
    encrypt: bool = True

    def __post_init__(self) -> None:
        require_word_bits(self.word_bits)
        if self.line_bits <= 0:
            raise ConfigurationError("line_bits must be positive")
        if self.line_bits % self.word_bits != 0:
            raise ConfigurationError("line_bits must be a multiple of word_bits")

    @property
    def words_per_line(self) -> int:
        """Number of encoder words per cache line."""
        return self.line_bits // self.word_bits
