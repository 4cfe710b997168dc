"""Decorator-driven registry of fault models.

Mirrors the encoder registry (:mod:`repro.coding.registry`) and the task
registry (:mod:`repro.campaign.tasks`): a fault model registers itself by
decorating its class, builtin models are imported lazily on first
resolution, and everything resolves by name::

    from repro.faults.registry import register_fault_model

    @register_fault_model
    class MyModel(FaultModel):
        name = "my-model"
        ...

Experiments carry the model *name* in their task parameters (so task
hashes stay content-addressed) and materialise the model object with
:func:`make_fault_model` inside the worker.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Any, Dict, List, Type

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - the runtime import would be circular
    from repro.faults.models import FaultModel

__all__ = [
    "available_fault_models",
    "get_fault_model_class",
    "make_fault_model",
    "register_fault_model",
    "unregister_fault_model",
]

#: Modules whose import registers the builtin fault models (lazily,
#: mirroring the encoder and task-kind registries).
_BUILTIN_MODULES = ("repro.faults.models",)

_REGISTRY: Dict[str, Type["FaultModel"]] = {}

_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    _builtins_loaded = True
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)


def register_fault_model(model_class: Type["FaultModel"]) -> Type["FaultModel"]:
    """Class decorator: make a :class:`FaultModel` resolvable by its name."""
    name = getattr(model_class, "name", "")
    if not name or not isinstance(name, str):
        raise ConfigurationError(
            f"fault model class {model_class.__name__} must define a non-empty name"
        )
    if name in _REGISTRY and _REGISTRY[name] is not model_class:
        raise ConfigurationError(f"fault model {name!r} is already registered")
    _REGISTRY[name] = model_class
    return model_class


def unregister_fault_model(name: str) -> None:
    """Remove a registered model (tests re-register fakes around this)."""
    _REGISTRY.pop(name, None)


def get_fault_model_class(name: str) -> Type["FaultModel"]:
    """Resolve a registered fault-model class by name."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "none"
        raise ConfigurationError(
            f"unknown fault model {name!r}; registered models: {known}"
        ) from None


def make_fault_model(name: str, **params: Any) -> "FaultModel":
    """Instantiate a registered fault model with keyword overrides."""
    model_class = get_fault_model_class(name)
    try:
        return model_class(**params)
    except TypeError as error:
        raise ConfigurationError(f"fault model {name!r}: {error}") from error


def available_fault_models() -> List[Type["FaultModel"]]:
    """The registered model classes sorted by name (for docs and CLIs)."""
    _ensure_builtins()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
