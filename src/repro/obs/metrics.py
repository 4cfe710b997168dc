"""Process-local metrics: named counters, gauges, and histograms.

Mirrors the decorator-driven registries of the encoders
(:mod:`repro.coding.registry`) and the campaign task kinds
(:mod:`repro.campaign.tasks`): an instrumented module registers its
metrics once at import time and holds on to the returned handle::

    from repro import obs

    _OBS_WAVES = obs.counter("replay.waves", "encode waves executed")

    def run_chunk(...):
        _OBS_WAVES.inc()

Handles are registered in the process-local :data:`REGISTRY` keyed by
name; registering the same name twice returns the same handle (so a
module re-import cannot double-count), while registering it as a
different metric kind is a configuration error.  The
:func:`~MetricsRegistry.snapshot` /
:func:`~MetricsRegistry.merge` pair is what carries worker-side
measurements back to the campaign coordinator: a worker snapshots its
registry after each task (or stack of tasks) and the engine merges the payload into the main
process, so ``run_campaign`` can report cache hits, wave counts, and pad
chunks no matter where they were incremented.

Metric updates are plain attribute arithmetic on ``__slots__`` objects —
cheap enough to stay enabled permanently.  The instrumented hot paths
only touch them at wave/chunk/task granularity, and
``benchmarks/bench_obs_overhead.py`` enforces that the whole disabled-mode
telemetry layer costs the replay engine less than 2%.
"""

from __future__ import annotations

import functools
import sys
from typing import Any, Callable, Dict, List, Optional, TypeVar, Union

from repro.errors import ConfigurationError
from repro.obs.clock import monotonic

if sys.version_info >= (3, 10):
    from typing import ParamSpec
else:  # pragma: no cover - the package requires >= 3.10
    from typing_extensions import ParamSpec

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "REGISTRY",
    "counter",
    "gauge",
    "histogram",
    "merge_metrics",
    "metrics_snapshot",
    "reset_metrics",
    "timed",
]

_P = ParamSpec("_P")
_T = TypeVar("_T")


class Counter:
    """Monotonically increasing count of events (waves, cache hits, ...)."""

    kind = "counter"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def reset(self) -> None:
        """Zero the counter."""
        self.value = 0

    def to_snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable state of the counter."""
        return {"kind": self.kind, "value": self.value}

    def merge(self, payload: Dict[str, Any]) -> None:
        """Absorb a snapshot produced by another process's counter."""
        self.value += int(payload.get("value", 0))

    def is_zero(self) -> bool:
        """True when the metric carries no observations yet."""
        return self.value == 0


class Gauge:
    """Last-observed value of a quantity (e.g. the latest early-stop index)."""

    kind = "gauge"
    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value: Optional[float] = None

    def set(self, value: float) -> None:
        """Record the current value of the gauge."""
        self.value = float(value)

    def reset(self) -> None:
        """Forget the recorded value."""
        self.value = None

    def to_snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable state of the gauge."""
        return {"kind": self.kind, "value": self.value}

    def merge(self, payload: Dict[str, Any]) -> None:
        """Absorb a snapshot: the incoming observation (if any) wins."""
        value = payload.get("value")
        if value is not None:
            self.value = float(value)

    def is_zero(self) -> bool:
        """True when the metric carries no observations yet."""
        return self.value is None


class Histogram:
    """Streaming summary (count / total / min / max) of observed values."""

    kind = "histogram"
    __slots__ = ("name", "description", "count", "total", "min", "max")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def reset(self) -> None:
        """Forget every observation."""
        self.count = 0
        self.total = 0.0
        self.min = None
        self.max = None

    @property
    def mean(self) -> Optional[float]:
        """Mean of the observations, or None before the first one."""
        return self.total / self.count if self.count else None

    def to_snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable state of the histogram."""
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    def merge(self, payload: Dict[str, Any]) -> None:
        """Absorb a snapshot produced by another process's histogram."""
        self.count += int(payload.get("count", 0))
        self.total += float(payload.get("total", 0.0))
        for bound, better in (("min", min), ("max", max)):
            incoming = payload.get(bound)
            if incoming is None:
                continue
            current = getattr(self, bound)
            setattr(
                self,
                bound,
                float(incoming) if current is None else better(current, float(incoming)),
            )

    def is_zero(self) -> bool:
        """True when the metric carries no observations yet."""
        return self.count == 0


Metric = Union[Counter, Gauge, Histogram]

_KINDS: Dict[str, type] = {
    Counter.kind: Counter,
    Gauge.kind: Gauge,
    Histogram.kind: Histogram,
}


class _NullCounter(Counter):
    """A counter that ignores updates (stand-in for overhead benchmarks)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", "no-op counter")

    def inc(self, amount: int = 1) -> None:
        """Ignore the update."""


class _NullGauge(Gauge):
    """A gauge that ignores updates (stand-in for overhead benchmarks)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", "no-op gauge")

    def set(self, value: float) -> None:
        """Ignore the update."""


class _NullHistogram(Histogram):
    """A histogram that ignores updates (stand-in for overhead benchmarks)."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", "no-op histogram")

    def observe(self, value: float) -> None:
        """Ignore the update."""


#: Shared no-op handles; ``bench_obs_overhead.py`` swaps the instrumented
#: modules' ``_OBS_*`` globals for these to measure the cost of the real
#: (enabled-but-idle) handles against a true no-op.
NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry:
    """Process-local, name-keyed home of every registered metric."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # ---------------------------------------------------------- registration
    def _register(self, kind: str, name: str, description: str) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise ConfigurationError(
                    f"metric {name!r} is already registered as a "
                    f"{existing.kind}, not a {kind}"
                )
            return existing
        metric = _KINDS[kind](name, description)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        """Get-or-create the counter registered under ``name``."""
        metric = self._register(Counter.kind, name, description)
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get-or-create the gauge registered under ``name``."""
        metric = self._register(Gauge.kind, name, description)
        assert isinstance(metric, Gauge)
        return metric

    def histogram(self, name: str, description: str = "") -> Histogram:
        """Get-or-create the histogram registered under ``name``."""
        metric = self._register(Histogram.kind, name, description)
        assert isinstance(metric, Histogram)
        return metric

    # --------------------------------------------------------------- queries
    def get(self, name: str) -> Metric:
        """The metric registered under ``name`` (raises when unknown)."""
        metric = self._metrics.get(name)
        if metric is None:
            raise ConfigurationError(
                f"unknown metric {name!r}; registered: {', '.join(self.names())}"
            )
        return metric

    def names(self) -> List[str]:
        """Sorted names of every registered metric."""
        return sorted(self._metrics)

    def describe(self) -> Dict[str, str]:
        """Metric name -> description, for glossaries and ``--list`` output."""
        return {name: self._metrics[name].description for name in self.names()}

    # ------------------------------------------------------- snapshot / merge
    def snapshot(self, include_zero: bool = False) -> Dict[str, Dict[str, Any]]:
        """JSON-serialisable state of every metric.

        Zero-valued metrics are dropped unless ``include_zero`` so worker
        payloads and ``BENCH_*.json`` records stay small; a merge treats a
        missing metric as zero anyway.
        """
        return {
            name: self._metrics[name].to_snapshot()
            for name in self.names()
            if include_zero or not self._metrics[name].is_zero()
        }

    def merge(self, snapshot: Dict[str, Dict[str, Any]]) -> None:
        """Absorb a :meth:`snapshot` from another process's registry.

        Counters and histogram summaries add; gauges take the incoming
        observation.  Metrics not registered locally yet are created from
        the payload's recorded kind, so a coordinator aggregates metrics
        of task kinds it never imported itself.
        """
        for name in sorted(snapshot):
            payload = snapshot[name]
            kind = payload.get("kind")
            if kind not in _KINDS:
                raise ConfigurationError(
                    f"metric snapshot entry {name!r} has unknown kind {kind!r}"
                )
            self._register(kind, name, "").merge(payload)

    def reset(self) -> None:
        """Zero every registered metric (workers do this between tasks)."""
        for name in self.names():
            self._metrics[name].reset()


#: The process-local registry every instrumented module registers into.
REGISTRY = MetricsRegistry()


def counter(name: str, description: str = "") -> Counter:
    """Register (or fetch) a counter in the process registry."""
    return REGISTRY.counter(name, description)


def gauge(name: str, description: str = "") -> Gauge:
    """Register (or fetch) a gauge in the process registry."""
    return REGISTRY.gauge(name, description)


def histogram(name: str, description: str = "") -> Histogram:
    """Register (or fetch) a histogram in the process registry."""
    return REGISTRY.histogram(name, description)


def metrics_snapshot(include_zero: bool = False) -> Dict[str, Dict[str, Any]]:
    """Snapshot of the process registry (see :meth:`MetricsRegistry.snapshot`)."""
    return REGISTRY.snapshot(include_zero=include_zero)


def merge_metrics(snapshot: Dict[str, Dict[str, Any]]) -> None:
    """Merge a worker-side snapshot into the process registry."""
    REGISTRY.merge(snapshot)


def reset_metrics() -> None:
    """Zero every metric in the process registry."""
    REGISTRY.reset()


def timed(
    name: str, description: str = ""
) -> Callable[[Callable[_P, _T]], Callable[_P, _T]]:
    """Decorator registering a histogram and timing every call into it.

    The registration happens at decoration time — importing the module is
    what makes the metric appear, exactly like ``@register_encoder`` /
    ``@register_task`` make their subjects resolvable::

        @obs.timed("store.put_s", "seconds spent persisting task results")
        def put(self, task, rows): ...
    """
    metric = histogram(name, description)

    def decorator(function: Callable[_P, _T]) -> Callable[_P, _T]:
        @functools.wraps(function)
        def wrapper(*args: _P.args, **kwargs: _P.kwargs) -> _T:
            begin = monotonic()
            try:
                return function(*args, **kwargs)
            finally:
                metric.observe(monotonic() - begin)

        return wrapper

    return decorator
