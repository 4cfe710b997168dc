"""Per-layer host-time attribution for the benchmark's traced run.

The traced run wraps the public entry points of each layer of ``repro``
with in-memory timers, from the outside, so no program source changes.
Every wrapped call is one frame: its inclusive time, and its self time
(inclusive minus the time of wrapped calls made inside it).  Summing self
time by layer splits the traced run's host time across the layers
without double counting, so the layer self times add up to the share of
wall time the wrapped entry points cover.

A wrapped entry point that is re-entered while already on the stack (an
encoder whose ``encode_lines`` calls another encoder's) runs untimed, so
the outer frame keeps the whole cost.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["LayerClock", "traced"]

#: ``count(args, result)`` -> items of work one call did (rows, lines, ...).
Count = Callable[[Tuple[Any, ...], Any], int]


class LayerClock:
    """Calls, inclusive time, self time and item counts per entry-point key.

    Keys are ``"<layer>.<entry>"``; :meth:`layer_self_s` sums self time
    over every key of one layer.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.inclusive_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.items: Dict[str, int] = {}
        self._child_s: List[float] = []
        self._active: set = set()

    def wrap(self, key: str, function: Callable[..., Any], count: Optional[Count] = None):
        """A timed stand-in for ``function`` recording under ``key``."""
        for table in (self.calls, self.items):
            table.setdefault(key, 0)
        for table in (self.inclusive_s, self.self_s):
            table.setdefault(key, 0.0)
        child_s = self._child_s
        active = self._active

        def timed(*args: Any, **kwargs: Any) -> Any:
            if key in active:
                return function(*args, **kwargs)
            active.add(key)
            child_s.append(0.0)
            result = None
            begin = time.perf_counter()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - begin
                children = child_s.pop()
                active.discard(key)
                if child_s:
                    child_s[-1] += elapsed
                self.calls[key] += 1
                self.inclusive_s[key] += elapsed
                self.self_s[key] += elapsed - children
                if count is not None and result is not None:
                    self.items[key] += count(args, result)

        return timed

    def layer_self_s(self, layer: str) -> float:
        """Self time summed over every entry point of ``layer``."""
        prefix = layer + "."
        return sum(value for key, value in self.self_s.items() if key.startswith(prefix))

    def total_self_s(self) -> float:
        """Self time of every wrapped frame: the host time the layers cover."""
        return sum(self.self_s.values())


def _rows_written(args: Tuple[Any, ...], _result: Any) -> int:
    # write_rows_fast(self, row_indices, intended)
    return len(args[1])


def _one(_args: Tuple[Any, ...], _result: Any) -> int:
    return 1


def _lines_encoded(args: Tuple[Any, ...], _result: Any) -> int:
    # encode_lines(self, words_matrix, contexts)
    return len(args[2])


def _lifetime_writes(_args: Tuple[Any, ...], result: Any) -> int:
    return int(result.writes)


#: Module-level functions: (defining module, name, key, count).  Every
#: loaded module that imported the function by name is patched too.
_FUNCTIONS = (
    ("repro.traces.synthetic", "generate_trace", "traces.generate", _one),
    ("repro.sim.harness", "build_controller", "sim.build", None),
    ("repro.sim.lifetime_sim", "simulate_lifetime", "sim.lifetime", _lifetime_writes),
)

#: Methods: (module, class, method, key, count).
_METHODS = (
    ("repro.crypto.counter_mode", "CounterModeEngine", "encrypt_lines", "crypto.encrypt", None),
    ("repro.crypto.counter_mode", "CounterModeEngine", "rollback_counters", "crypto.rollback", None),
    ("repro.pcm.array", "PCMArray", "read_rows", "pcm.read", None),
    ("repro.pcm.array", "PCMArray", "stuck_rows", "pcm.read", None),
    ("repro.pcm.array", "PCMArray", "write_row_fast", "pcm.write", _one),
    ("repro.pcm.array", "PCMArray", "write_rows_fast", "pcm.write", _rows_written),
    ("repro.memctrl.controller", "MemoryController", "replay_trace", "memctrl.replay", None),
    ("repro.memctrl.controller", "MemoryController", "write_random_lines", "memctrl.replay", None),
    ("repro.campaign.store", "ResultStore", "get", "store.get", None),
    ("repro.campaign.store", "ResultStore", "put", "store.put", None),
)


def _encoder_classes() -> Iterator[type]:
    """Every loaded encoder class that defines its own ``encode_lines``."""
    from repro.coding.base import Encoder
    from repro.coding.registry import available_encoders

    available_encoders()  # imports the lazily registered builtin encoders
    pending = [Encoder]
    seen = set()
    while pending:
        cls = pending.pop()
        if cls in seen:
            continue
        seen.add(cls)
        pending.extend(cls.__subclasses__())
        if "encode_lines" in vars(cls):
            yield cls


@contextlib.contextmanager
def traced(clock: LayerClock) -> Iterator[LayerClock]:
    """Install ``clock``'s timers on every layer entry point, then restore."""
    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, replacement: Any) -> None:
        patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, replacement)

    try:
        for module_name, name, key, count in _FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            replacement = clock.wrap(key, original, count)
            for module in list(sys.modules.values()):
                if getattr(module, "__dict__", {}).get(name) is original:
                    patch(module, name, replacement)
        for module_name, class_name, name, key, count in _METHODS:
            owner = getattr(importlib.import_module(module_name), class_name)
            patch(owner, name, clock.wrap(key, owner.__dict__[name], count))
        for cls in _encoder_classes():
            patch(cls, "encode_lines", clock.wrap("coding.encode", vars(cls)["encode_lines"], _lines_encoded))
        yield clock
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)
