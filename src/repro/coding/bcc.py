"""Biased Coset Coding (BCC).

Section III of the paper analyses "biased" coset coding: the word is
divided into ``k = log2(N)`` sections and each section is written either
unchanged or inverted, yielding ``2^k = N`` biased coset candidates built
from the all-zeros and all-ones vectors.  Structurally this is Flip-N-Write
with ``log2(N)`` partitions, so the encoder simply parameterises
:class:`repro.coding.fnw.FNWEncoder` by the candidate count.
"""

from __future__ import annotations

from repro.coding.cost import CostFunction
from repro.coding.fnw import FNWEncoder
from repro.coding.registry import register_encoder
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology
from repro.utils.validation import require_power_of_two

__all__ = ["BCCEncoder"]


@register_encoder(
    "bcc",
    description="Biased coset coding: log2(N) independently inverted sections",
    params=("word_bits", "num_cosets", "technology", "cost_function"),
)
class BCCEncoder(FNWEncoder):
    """Biased coset coding with ``N`` candidates (``log2 N`` partitions).

    Inherits Flip-N-Write's vectorised ``encode_lines``, the fast path of
    the memory controller's replay waves.
    """

    name = "bcc"

    def __init__(
        self,
        word_bits: int = 64,
        num_cosets: int = 16,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
    ):
        require_power_of_two(num_cosets, "num_cosets")
        partitions = num_cosets.bit_length() - 1
        if partitions == 0:
            raise ConfigurationError("BCC needs at least 2 coset candidates")
        # BCC needs equal-width sections.  When log2(N) does not divide the
        # word width (e.g. N = 64 over 64 bits would need 6 sections), fall
        # back to the largest feasible section count so the encoder remains
        # usable; the effective candidate count is then 2^partitions.
        while word_bits % partitions != 0 or (word_bits // partitions) % technology.bits_per_cell != 0:
            partitions -= 1
            if partitions == 0:
                raise ConfigurationError(
                    f"no feasible BCC partitioning of a {word_bits}-bit word for N={num_cosets}"
                )
        super().__init__(
            word_bits=word_bits,
            partitions=partitions,
            technology=technology,
            cost_function=cost_function,
        )
        self.num_cosets = num_cosets
