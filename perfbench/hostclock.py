"""Pass timing normalised to a reference host speed.

A shared 2-CPU host can change speed by 40% within tens of seconds, and
a slow stretch slows most kinds of work alike.  So a pass is timed in
segments of about ``CADENCE_S``, and between segments a fixed
calibration loop is timed too: plain interpreter work, small NumPy
gathers and reductions, and one large memory-bound gather — the kinds of
work the simulator does, and no ``repro`` code.  On a 2-CPU host, that
mix tracked the speed of VCC and RCC wave replays to within 5%
(quartile spread of 20 s window medians), against 8-28% for the raw
times.  Each segment's host seconds are scaled by ``REFERENCE_S`` over
the mean calibration time at its two ends: the figure is the host time
the segment would have taken while the calibration loop ran at
``REFERENCE_S``.  A change to ``repro`` moves the scaled figures; a
change in host speed mostly does not.  Raw host seconds are kept next
to the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Callable, List, Tuple

import numpy as np

__all__ = ["HostClock", "REFERENCE_S", "calibration_s"]

#: Calibration loop time that defines the reference host speed (roughly
#: the loop's time on a 2-CPU x86 host).  Any constant would do: figures
#: are only ever compared against figures from the same host.
REFERENCE_S = 0.020
#: Host seconds between calibrations.
CADENCE_S = 0.3

_RNG = np.random.default_rng(20220402)
_CELLS = _RNG.integers(0, 4, size=(32, 256), dtype=np.uint8)
_LUT = _RNG.random((4, 4))
_WIDE_CELLS = _RNG.integers(0, 16, size=(16, 256, 8, 32), dtype=np.uint8)
_WIDE_LUT = _RNG.random(16)


def _interpreter() -> None:
    total = 0
    table = {}
    for index in range(20000):
        total += (index * 7) % 13
        table[index & 255] = total


def _small_arrays() -> None:
    for _ in range(200):
        _LUT[_CELLS, _CELLS[::-1]].sum(axis=1).argmax()


def _large_gather() -> None:
    _WIDE_LUT[_WIDE_CELLS].sum(axis=3).argmin(axis=1)


def _timed(part: Callable[[], None]) -> float:
    begin = time.perf_counter()
    part()
    return time.perf_counter() - begin


def calibration_s() -> float:
    """Host seconds of the calibration loop now (each part's median of three)."""
    return sum(
        statistics.median(_timed(part) for _ in range(3))
        for part in (_interpreter, _small_arrays, _large_gather)
    )


class HostClock:
    """Times one pass as units of work, calibrating between them.

    ``call(function, ...)`` runs one unit of work and returns its result
    and unit index.  After ``stop()``, ``wall_s()`` and ``unit_s(index)``
    give scaled host seconds (``scaled=False`` for raw ones).
    Calibration time is excluded from every figure.
    """

    def __init__(self) -> None:
        self._samples: List[float] = [calibration_s()]
        self._segments: List[float] = []
        self._units: List[Tuple[int, float]] = []
        self._segment_begin = time.perf_counter()

    def call(self, function: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[Any, int]:
        begin = time.perf_counter()
        result = function(*args, **kwargs)
        now = time.perf_counter()
        self._units.append((len(self._segments), now - begin))
        if now - self._segment_begin >= CADENCE_S:
            self._segments.append(now - self._segment_begin)
            self._samples.append(calibration_s())
            self._segment_begin = time.perf_counter()
        return result, len(self._units) - 1

    def stop(self) -> None:
        self._segments.append(time.perf_counter() - self._segment_begin)
        self._samples.append(calibration_s())

    def _scale(self, segment: int) -> float:
        return REFERENCE_S / ((self._samples[segment] + self._samples[segment + 1]) / 2)

    def wall_s(self, scaled: bool = True) -> float:
        if not scaled:
            return sum(self._segments)
        return sum(raw * self._scale(k) for k, raw in enumerate(self._segments))

    def unit_s(self, index: int, scaled: bool = True) -> float:
        segment, raw = self._units[index]
        return raw * self._scale(segment) if scaled else raw

    def units_s(self, scaled: bool = True) -> float:
        return sum(self.unit_s(index, scaled) for index in range(len(self._units)))
