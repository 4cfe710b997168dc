"""Declarative sweep specifications and content-addressed tasks.

A campaign is a set of :class:`Task` objects, each one an independent,
deterministic unit of work: a *kind* naming a registered task function
(:mod:`repro.campaign.tasks`) plus a JSON-serialisable parameter mapping.
Because the parameters carry the seed and every simulator in this
repository derives all of its randomness from that seed, a task's result
is a pure function of its content — which is why tasks are addressed by
the SHA-256 hash of their canonical JSON form and why results can be
cached, resumed, and executed on any number of workers without changing
a single bit of the output.

:class:`SweepSpec` is the declarative front end: a base parameter set
plus named grid axes (over :class:`~repro.sim.harness.TechniqueSpec`
fields, benchmark traces, seeds, …) that expand into the full
cross-product of tasks in a deterministic order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError

__all__ = ["Task", "SweepSpec", "canonical_json"]

#: Bumped whenever the meaning of task parameters changes incompatibly,
#: so stale result stores invalidate themselves instead of serving rows
#: computed under the old semantics.  Version 2: lifetime-cell rows carry
#: a ``censored`` flag (hitting ``max_line_writes`` is no longer silently
#: reported as a failure time).  Version 3: one ``lifetime-cell`` kind
#: replaces the Fig. 11/12 kinds; its params hold only what the cell
#: simulates (no display label, no coset count for encoders that ignore it).
TASK_SCHEMA_VERSION = 3


def _canonical_value(value: Any, path: str) -> Any:
    """Normalise one parameter value to plain JSON-able Python types."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, (list, tuple)):
        return [_canonical_value(item, f"{path}[]") for item in value]
    if isinstance(value, Mapping):
        out = {}
        for key in value:
            if not isinstance(key, str):
                raise ConfigurationError(f"task parameter {path!r} has a non-string key {key!r}")
            out[key] = _canonical_value(value[key], f"{path}.{key}")
        return out
    # numpy scalars sneak in easily from experiment configs; accept them.
    # ``.item()`` raises ValueError on size != 1 arrays and TypeError when
    # the attribute is not numpy's scalar extractor; both mean "not a
    # scalar after all" and fall through to the unserialisable error.
    for attribute in ("item",):
        if hasattr(value, attribute):
            try:
                return _canonical_value(value.item(), path)
            except (TypeError, ValueError):  # pragma: no cover - defensive
                break
    raise ConfigurationError(
        f"task parameter {path!r} has unserialisable type {type(value).__name__}"
    )


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as canonical JSON (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True, eq=False)
class Task:
    """One hashable unit of campaign work.

    Attributes
    ----------
    kind:
        Name of a registered task function (see
        :func:`repro.campaign.tasks.register_task`).
    params:
        JSON-serialisable keyword parameters the task function receives.
        Normalised on construction (tuples become lists, numpy scalars
        become Python scalars) so equal content always hashes equally.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigurationError("task kind must be a non-empty string")
        normalised = _canonical_value(dict(self.params), "params")
        object.__setattr__(self, "params", normalised)
        canonical = canonical_json(
            {"kind": self.kind, "params": self.params, "version": TASK_SCHEMA_VERSION}
        )
        object.__setattr__(self, "_canonical", canonical)
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_hash", digest)

    @property
    def canonical(self) -> str:
        """Canonical JSON form the task hash is computed over."""
        return self._canonical  # type: ignore[attr-defined]

    @property
    def task_hash(self) -> str:
        """Hex SHA-256 of the canonical form — the task's content address."""
        return self._hash  # type: ignore[attr-defined]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Task):
            return NotImplemented
        return self.task_hash == other.task_hash

    def __hash__(self) -> int:
        return hash(self.task_hash)

    def describe(self) -> str:
        """Short human-readable label for progress reporting."""
        hints = [
            str(self.params[key])
            for key in (
                "benchmark", "label", "series", "technique", "encoder", "corrector", "rep", "seed"
            )
            if self.params.get(key) is not None
        ]
        suffix = f" ({', '.join(hints)})" if hints else ""
        return f"{self.kind}{suffix} [{self.task_hash[:10]}]"


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of tasks of one kind.

    ``base`` holds the parameters shared by every task; ``grid`` maps
    parameter names to the values each axis sweeps over (the expansion is
    the cross-product, last axis varying fastest); ``seeds`` is shorthand
    for a trailing ``seed`` axis.  Axis order is the insertion order of
    ``grid``, so expansion order — and therefore row order after
    aggregation — is deterministic and independent of execution order.
    """

    kind: str
    base: Mapping[str, Any] = field(default_factory=dict)
    grid: Mapping[str, Sequence[Any]] = field(default_factory=dict)
    seeds: Sequence[int] = ()

    def axes(self) -> List[Tuple[str, List[Any]]]:
        """The sweep axes (name, values) in expansion order."""
        axes = [(name, list(values)) for name, values in self.grid.items()]
        if self.seeds:
            axes.append(("seed", [int(seed) for seed in self.seeds]))
        return axes

    def expand(self) -> List[Task]:
        """Expand the grid into the full cross-product of tasks."""
        axes = self.axes()
        for name, values in axes:
            if name in self.base:
                raise ConfigurationError(
                    f"sweep axis {name!r} collides with a base parameter of the same name"
                )
            if not values:
                raise ConfigurationError(f"sweep axis {name!r} has no values")
        names = [name for name, _ in axes]
        tasks: List[Task] = []
        seen = set()
        for combo in itertools.product(*(values for _, values in axes)):
            params = dict(self.base)
            params.update(zip(names, combo))
            task = Task(kind=self.kind, params=params)
            if task.task_hash not in seen:
                seen.add(task.task_hash)
                tasks.append(task)
        return tasks

    def __len__(self) -> int:
        return len(self.expand())
