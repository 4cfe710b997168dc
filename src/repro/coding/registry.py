"""Decorator-driven plugin registry for encoding techniques.

Every technique registers itself with :func:`register_encoder`, either by
decorating the :class:`~repro.coding.base.Encoder` subclass directly::

    @register_encoder("flipcy", description="...", params=("word_bits", ...))
    class FlipcyEncoder(Encoder):
        ...

or, when construction needs more than keyword-forwarding (VCC builds a
:class:`~repro.core.config.VCCConfig` first), by decorating a factory
function that accepts the shared construction parameters::

    @register_encoder("vcc", description="...")
    def _build_vcc(word_bits, num_cosets, technology, cost_function, seed):
        ...

The experiment harness (:mod:`repro.sim.harness`), the per-figure
experiments, and external code all resolve techniques the same way —
through :func:`make_encoder` / :func:`available_encoders` — so a new
technique plugs in by decorating itself; no factory table needs editing.

The shared construction parameters are ``word_bits``, ``num_cosets``,
``technology``, ``cost_function``, and ``seed``; a plugin's ``params``
tuple records which of them its technique actually consumes (the rest are
accepted and ignored, so every simulator can build its line-up uniformly).

A decorated :class:`~repro.coding.base.Encoder` subclass is checked when
the decorator runs, so a broken plugin fails at import in every entry
point; :class:`~repro.errors.ConfigurationError` is raised when

* the class derives from ``Encoder`` alone and does not override
  ``encode_lines`` (the batched path would fall back to the scalar
  reference loop, 3-15x slower), or
* an ``encode_line``, ``encode_lines`` or ``decode_line`` it defines or
  inherits renames the base class's positional parameters (the replay
  engine calls them positionally, callers and docs by those names).
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

from repro.coding.base import Encoder
from repro.coding.cost import CostFunction
from repro.errors import ConfigurationError
from repro.pcm.cell import CellTechnology

__all__ = [
    "EncoderPlugin",
    "available_encoders",
    "encoder_plugins",
    "get_encoder_plugin",
    "make_encoder",
    "register_encoder",
    "unregister_encoder",
]

#: Shared construction parameters every plugin factory is offered.
SHARED_PARAMS: Tuple[str, ...] = (
    "word_bits",
    "num_cosets",
    "technology",
    "cost_function",
    "seed",
)

#: Modules whose import registers the builtin techniques.  Imported lazily
#: on first resolution to avoid circular imports (repro.core depends on
#: repro.coding for the Encoder interface).
_BUILTIN_MODULES: Tuple[str, ...] = (
    "repro.coding.unencoded",
    "repro.coding.dbi",
    "repro.coding.fnw",
    "repro.coding.flipcy",
    "repro.coding.bcc",
    "repro.coding.rcc",
    "repro.core.vcc",
)

_builtins_loaded = False


@dataclass(frozen=True)
class EncoderPlugin:
    """One registered encoding technique.

    Attributes
    ----------
    name:
        Canonical short (figure) name the technique resolves under.
    factory:
        Callable building a configured :class:`Encoder` from the shared
        construction parameters (always invoked with keyword arguments).
    aliases:
        Additional names resolving to the same technique (e.g. the paper's
        "dbi/fnw" spelling of the FNW baseline).
    description:
        One-line summary used in documentation tables.
    params:
        The shared parameters this technique actually consumes.
    defaults:
        Extra fixed keyword arguments passed to a class-based factory
        (e.g. FNW's ``partitions=4``).
    """

    name: str
    factory: Callable[..., Encoder]
    aliases: Tuple[str, ...] = ()
    description: str = ""
    params: Tuple[str, ...] = SHARED_PARAMS
    defaults: Dict[str, object] = field(default_factory=dict)

    def build(
        self,
        word_bits: int,
        num_cosets: int,
        technology: CellTechnology,
        cost_function: Optional[CostFunction],
        seed: Optional[int],
    ) -> Encoder:
        """Instantiate the technique from the shared parameters."""
        shared = {
            "word_bits": word_bits,
            "num_cosets": num_cosets,
            "technology": technology,
            "cost_function": cost_function,
            "seed": seed,
        }
        kwargs = {key: shared[key] for key in self.params}
        kwargs.update(self.defaults)
        return self.factory(**kwargs)


_PLUGINS: Dict[str, EncoderPlugin] = {}
_ALIASES: Dict[str, str] = {}

#: A registered factory: an :class:`Encoder` subclass or a factory function.
_FactoryT = TypeVar("_FactoryT", bound=Callable[..., Any])


def register_encoder(
    name: str,
    *,
    aliases: Tuple[str, ...] = (),
    description: str = "",
    params: Optional[Tuple[str, ...]] = None,
    defaults: Optional[Dict[str, object]] = None,
) -> Callable[[_FactoryT], _FactoryT]:
    """Class/function decorator registering an encoding technique.

    Parameters
    ----------
    name:
        Canonical registry name (lower-case; matching is case-insensitive).
    aliases:
        Additional accepted names.
    description:
        One-line summary shown in documentation tables.
    params:
        Which of :data:`SHARED_PARAMS` the factory accepts.  Defaults to
        every shared parameter for factory functions and must be given
        explicitly when decorating an :class:`Encoder` subclass whose
        constructor takes only a subset.
    defaults:
        Extra fixed keyword arguments for class-based registration.
    """
    unknown = tuple(p for p in (params or ()) if p not in SHARED_PARAMS)
    if unknown:
        raise ConfigurationError(
            f"unknown shared parameter(s) {unknown}; expected a subset of {SHARED_PARAMS}"
        )

    def decorator(obj: _FactoryT) -> _FactoryT:
        if isinstance(obj, type) and issubclass(obj, Encoder):
            _check_encoder_class(obj)
        plugin = EncoderPlugin(
            name=name.lower(),
            factory=obj,
            aliases=tuple(a.lower() for a in aliases),
            description=description,
            params=tuple(params) if params is not None else SHARED_PARAMS,
            defaults=dict(defaults or {}),
        )
        _register(plugin)
        return obj

    return decorator


#: The line API whose positional parameter names every override keeps.
_LINE_API: Tuple[str, ...] = ("encode_line", "encode_lines", "decode_line")


def _positional_names(function: Callable[..., Any]) -> List[str]:
    """Positional parameter names of a method, ``self`` excluded."""
    kinds = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    names = [p.name for p in inspect.signature(function).parameters.values() if p.kind in kinds]
    return names[1:]


def _check_encoder_class(cls: type) -> None:
    """Reject an encoder class that breaks the line-API contract."""
    if cls.__bases__ == (Encoder,) and "encode_lines" not in vars(cls):
        raise ConfigurationError(
            f"encoder class {cls.__name__} derives from Encoder alone and must override "
            "encode_lines; otherwise the batched path falls back to the scalar reference "
            "loop (or derive from a concrete encoder that overrides it)"
        )
    for name in _LINE_API:
        expected = _positional_names(getattr(Encoder, name))
        actual = _positional_names(getattr(cls, name))
        if actual != expected:
            raise ConfigurationError(
                f"{cls.__name__}.{name}({', '.join(actual)}) must keep the positional "
                f"parameters of Encoder.{name}({', '.join(expected)})"
            )


def _register(plugin: EncoderPlugin) -> None:
    for key in (plugin.name, *plugin.aliases):
        existing = _ALIASES.get(key)
        if existing is not None and existing != plugin.name:
            raise ConfigurationError(
                f"encoder name {key!r} is already registered for {existing!r}"
            )
    if plugin.name in _PLUGINS:
        raise ConfigurationError(f"encoder {plugin.name!r} is already registered")
    _PLUGINS[plugin.name] = plugin
    for key in (plugin.name, *plugin.aliases):
        _ALIASES[key] = plugin.name


def unregister_encoder(name: str) -> None:
    """Remove a technique (and its aliases) from the registry.

    Intended for tests and for plugins that replace a builtin; unknown
    names raise so typos do not pass silently.
    """
    _ensure_builtins()
    key = name.lower()
    canonical = _ALIASES.get(key)
    if canonical is None:
        raise ConfigurationError(f"unknown encoder {name!r}")
    plugin = _PLUGINS.pop(canonical)
    for alias in (plugin.name, *plugin.aliases):
        _ALIASES.pop(alias, None)


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    # Only mark loaded once every import succeeded, so a transient import
    # failure surfaces again on the next call instead of leaving a silently
    # partial registry.
    _builtins_loaded = True


def encoder_plugins() -> List[EncoderPlugin]:
    """All registered plugins, sorted by canonical name."""
    _ensure_builtins()
    return [_PLUGINS[name] for name in sorted(_PLUGINS)]


def get_encoder_plugin(name: str) -> EncoderPlugin:
    """Resolve a (case-insensitive) name or alias to its plugin."""
    _ensure_builtins()
    key = name.lower()
    canonical = _ALIASES.get(key)
    if canonical is None:
        raise ConfigurationError(
            f"unknown encoder {name!r}; available: {', '.join(available_encoders())}"
        )
    return _PLUGINS[canonical]


def available_encoders() -> List[str]:
    """Names accepted by :func:`make_encoder` (canonical names and aliases)."""
    _ensure_builtins()
    return sorted(_ALIASES)


def make_encoder(
    name: str,
    word_bits: int = 64,
    num_cosets: int = 256,
    technology: CellTechnology = CellTechnology.MLC,
    cost_function: Optional[CostFunction] = None,
    seed: Optional[int] = 12345,
) -> Encoder:
    """Build an encoder by its short (figure) name.

    Parameters
    ----------
    name:
        One of :func:`available_encoders` (case-insensitive).
    word_bits, num_cosets, technology, cost_function, seed:
        Shared construction parameters; encoders that do not use
        ``num_cosets`` (e.g. DBI) ignore it.
    """
    return get_encoder_plugin(name).build(
        word_bits=word_bits,
        num_cosets=num_cosets,
        technology=technology,
        cost_function=cost_function,
        seed=seed,
    )
