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

:func:`register_task` checks a kind when it registers, so a broken
plugin fails at import in every entry point: the name must be a
non-empty ``str`` (it is hashed into every task's content address), and
the function must take exactly one positional parameter with no
``*args``, ``**kwargs`` or keyword-only parameters, because
:func:`run_task` calls it as ``function(dict(task.params))``.  Anything
else raises :class:`~repro.errors.ConfigurationError`.  The name should
also be a literal: one computed differently in another process gives the
same task another hash, so a resumed sweep finds none of its stored rows.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.obs as obs
from repro.campaign.spec import Task, _canonical_value
from repro.errors import ConfigurationError, SimulationError

__all__ = [
    "StackFunction",
    "TaskFunction",
    "TaskKind",
    "available_task_kinds",
    "get_task_kind",
    "register_task",
    "run_stack",
    "run_task",
    "task_stacks",
    "unregister_task",
]

#: Signature of a task-kind function: one params mapping in, row dicts out.
TaskFunction = Callable[[Dict[str, Any]], List[Dict[str, Any]]]

#: Signature of a task kind's stack runner: the params of several tasks of
#: the kind in, each task's rows out, in the same order.
StackFunction = Callable[[List[Dict[str, Any]]], List[List[Dict[str, Any]]]]

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
    """One registered task kind: a name plus its ``params -> rows`` function.

    ``stack``, when set, runs several tasks of the kind in one call and
    must give each exactly the rows ``function`` gives it alone.
    """

    name: str
    function: Callable[[Dict[str, Any]], List[Dict[str, Any]]]
    description: str = ""
    stack: Optional[StackFunction] = None


_KINDS: Dict[str, TaskKind] = {}


def register_task(
    name: str, *, description: str = "", stack: Optional[StackFunction] = None
) -> Callable[[TaskFunction], TaskFunction]:
    """Function decorator registering a campaign task kind.

    ``stack`` optionally runs several consecutive tasks of the kind at
    once (see :func:`run_stack`).
    """
    if not isinstance(name, str) or not name:
        raise ConfigurationError(f"task kind name must be a non-empty str, got {name!r}")
    if stack is not None:
        _require_one_argument(name, stack, "stack runner", "run_stack calls stack(params_list)")

    def decorator(function: TaskFunction) -> TaskFunction:
        _require_one_argument(
            name, function, "function", "run_task calls function(dict(task.params))"
        )
        key = name.lower()
        if key in _KINDS:
            raise ConfigurationError(f"task kind {name!r} is already registered")
        _KINDS[key] = TaskKind(name=key, function=function, description=description, stack=stack)
        return function

    return decorator


def _require_one_argument(name: str, function: Callable[..., Any], role: str, call: str) -> None:
    """Reject a task-kind callable that cannot be called with one positional argument."""
    parameters = list(inspect.signature(function).parameters.values())
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    if len(parameters) != 1 or parameters[0].kind not in positional:
        raise ConfigurationError(
            f"task kind {name!r} {role} must take exactly one positional params argument "
            f"({call}), not {inspect.signature(function)}"
        )


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
    return _checked_rows(task, kind.function(dict(task.params)))


def task_stacks(tasks: Sequence[Task]) -> List[List[Task]]:
    """Split ``tasks`` in order into the stacks :func:`run_stack` runs.

    A stack is a maximal run of consecutive tasks of one kind that has a
    stack runner; every other task is a stack of its own.
    """
    stacks: List[List[Task]] = []
    for task in tasks:
        if stacks and stacks[-1][0].kind == task.kind and get_task_kind(task.kind).stack:
            stacks[-1].append(task)
        else:
            stacks.append([task])
    return stacks


def run_stack(tasks: Sequence[Task]) -> List[List[Dict[str, Any]]]:
    """Execute one stack of :func:`task_stacks`; returns each task's rows.

    A lone task runs through :func:`run_task`; several run through their
    kind's stack runner in one call, and must get exactly the rows each
    would get alone.  Any error propagates, so a caller that must fail
    only the failing task runs the stack's tasks one by one then.
    """
    if len(tasks) == 1:
        return [run_task(tasks[0])]
    kind = get_task_kind(tasks[0].kind)
    if kind.stack is None or any(task.kind != tasks[0].kind for task in tasks):
        raise SimulationError(f"tasks of kind {tasks[0].kind!r} cannot run as one stack")
    _OBS_TASKS.inc(len(tasks))
    results = kind.stack([dict(task.params) for task in tasks])
    if not isinstance(results, list) or len(results) != len(tasks):
        raise SimulationError(
            f"the stack runner of task kind {kind.name!r} must return one row list per "
            f"task ({len(tasks)})"
        )
    return [_checked_rows(task, rows) for task, rows in zip(tasks, results)]


def _checked_rows(task: Task, rows: Any) -> List[Dict[str, Any]]:
    """Validate a task's rows and canonicalise them (JSON-serialisable)."""
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise SimulationError(
            f"task kind {task.kind!r} must return a list of row dicts, got {type(rows).__name__}"
        )
    return [_canonical_value(row, "row") for row in rows]
