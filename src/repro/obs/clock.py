"""The sanctioned clock of the instrumentation layer.

Every timing measurement in ``src``, ``benchmarks`` and ``examples``
routes through this module, so hot-path timings land in the aggregatable
telemetry layer instead of ad-hoc ``time.perf_counter()`` deltas (the
``OBS001`` analysis rule flags any other stopwatch clock).  A clock value
that reached a result row would break the jobs=1 vs jobs=4 row comparison
every figure sweep must pass.

:func:`monotonic` reads ``CLOCK_MONOTONIC``, which on every supported
platform is shared between processes on the same host — the campaign
executors rely on that to subtract a worker-side timestamp from a
coordinator-side one (queue-wait and result-transfer times).
"""

from __future__ import annotations

import time

__all__ = ["monotonic"]


def monotonic() -> float:
    """Seconds on the host-wide monotonic clock (comparable across processes)."""
    return time.monotonic()  # repro: allow[OBS001] reason=repro.obs is the sanctioned clock; every value stays in telemetry and never reaches a result row or a seed
