"""Memory-controller model: the encrypt -> encode -> write pipeline of Fig. 4.

:class:`~repro.memctrl.controller.MemoryController` ties the substrates
together: dirty cache lines arrive from the LLC, are encrypted by the
counter-mode unit, split into words, encoded by the configured technique
(with read-modify-write context from the PCM array), written into the
array, and accounted for (energy, bit changes, stuck-at-wrong cells).
Reads run the inverse pipeline: decode with the stored auxiliary bits,
then decrypt with the stored counter.
"""

from repro.memctrl.config import ControllerConfig
from repro.memctrl.controller import LineWriteResult, MemoryController, ReplayResult, replay_stacked

__all__ = [
    "ControllerConfig",
    "LineWriteResult",
    "MemoryController",
    "ReplayResult",
    "replay_stacked",
]
