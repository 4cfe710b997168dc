"""Decorator-driven registry of campaign task kinds.

A *task kind* is a named pure function ``params -> rows``: it receives
the task's parameter mapping and returns a list of JSON-serialisable row
dictionaries.  Task functions must derive every bit of randomness from
the parameters (conventionally a ``seed`` entry fed through
:func:`repro.utils.rng.derive_seed`), which is what makes campaign
results independent of worker count and scheduling order.

Builtin kinds — one cell of each campaign-backed figure — live next to
the task builders and tables of those figures (:mod:`repro.sim.energy_sim`,
:mod:`repro.sim.saw_sim`, :mod:`repro.sim.lifetime_sim`,
:mod:`repro.experiments.fig01_coding_analysis`,
:mod:`repro.experiments.fig13_ipc`; the experiment table in
:mod:`repro.experiments.registry` pairs them with each figure's
defaults) and are imported lazily on first resolution, mirroring
:mod:`repro.coding.registry`.  Third-party kinds register the same way::

    from repro.campaign import register_task

    @register_task("my-study-cell", description="one cell of my study")
    def my_cell(params):
        ...
        return [{"metric": value}]

For multi-process execution the registering module must be importable in
the worker (a plain module-level decorator suffices; kinds defined in
``__main__`` only work with the ``fork`` start method).
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

import repro.obs as obs
from repro.campaign.spec import Task, _canonical_value
from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "TaskFunction",
    "TaskKind",
    "available_task_kinds",
    "get_task_kind",
    "register_task",
    "run_task",
    "unregister_task",
]

#: Signature of a task-kind function: one params mapping in, row dicts out.
TaskFunction = Callable[[Dict[str, Any]], List[Dict[str, Any]]]

#: Modules whose import registers the builtin task kinds.
_BUILTIN_MODULES: Tuple[str, ...] = (
    "repro.sim.energy_sim",
    "repro.sim.saw_sim",
    "repro.sim.lifetime_sim",
    "repro.experiments.fig01_coding_analysis",
    "repro.experiments.fig13_ipc",
)

_builtins_loaded = False

# Bumped once per task-kind execution, in whichever process ran it; the
# batched executor snapshots the worker registry per task, so the
# coordinator's merged total still equals the executed-task count.
_OBS_TASKS = obs.counter("campaign.tasks_run", "campaign task-kind executions")


@dataclass(frozen=True)
class TaskKind:
    """One registered task kind: a name plus its ``params -> rows`` function."""

    name: str
    function: Callable[[Dict[str, Any]], List[Dict[str, Any]]]
    description: str = ""


_KINDS: Dict[str, TaskKind] = {}


def register_task(
    name: str, *, description: str = ""
) -> Callable[[TaskFunction], TaskFunction]:
    """Function decorator registering a campaign task kind."""

    def decorator(function: TaskFunction) -> TaskFunction:
        key = name.lower()
        if key in _KINDS:
            raise ConfigurationError(f"task kind {name!r} is already registered")
        _KINDS[key] = TaskKind(name=key, function=function, description=description)
        return function

    return decorator


def unregister_task(name: str) -> None:
    """Remove a task kind (for tests and plugin replacement)."""
    key = name.lower()
    if key not in _KINDS:
        raise ConfigurationError(f"unknown task kind {name!r}")
    del _KINDS[key]


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def available_task_kinds() -> List[TaskKind]:
    """All registered task kinds, sorted by name."""
    _ensure_builtins()
    return [_KINDS[name] for name in sorted(_KINDS)]


def get_task_kind(name: str) -> TaskKind:
    """Resolve a (case-insensitive) task-kind name."""
    _ensure_builtins()
    kind = _KINDS.get(name.lower())
    if kind is None:
        names = ", ".join(k.name for k in available_task_kinds())
        raise ConfigurationError(f"unknown task kind {name!r}; available: {names}")
    return kind


def run_task(task: Task) -> List[Dict[str, Any]]:
    """Execute one task and validate its rows are JSON-serialisable."""
    _OBS_TASKS.inc()
    kind = get_task_kind(task.kind)
    rows = kind.function(dict(task.params))
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise SimulationError(
            f"task kind {task.kind!r} must return a list of row dicts, got {type(rows).__name__}"
        )
    return [_canonical_value(row, "row") for row in rows]
