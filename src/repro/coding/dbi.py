"""Data Block Inversion (DBI).

DBI writes either the data block or its bitwise complement, whichever is
cheaper, and records the choice in a single auxiliary bit.  It is the
single-partition special case of Flip-N-Write and is implemented as such.
"""

from __future__ import annotations

from repro.coding.cost import CostFunction
from repro.coding.fnw import FNWEncoder
from repro.coding.registry import register_encoder
from repro.pcm.cell import CellTechnology

__all__ = ["DBIEncoder"]


@register_encoder(
    "dbi",
    description="Data Block Inversion: whole-word conditional inversion (1 aux bit)",
    params=("word_bits", "technology", "cost_function"),
)
class DBIEncoder(FNWEncoder):
    """Whole-block conditional inversion (1 auxiliary bit per word).

    Inherits Flip-N-Write's vectorised ``encode_lines``, the fast path of
    the memory controller's replay waves.
    """

    name = "dbi"

    def __init__(
        self,
        word_bits: int = 64,
        technology: CellTechnology = CellTechnology.MLC,
        cost_function: CostFunction = None,
    ):
        super().__init__(
            word_bits=word_bits,
            partitions=1,
            technology=technology,
            cost_function=cost_function,
        )
