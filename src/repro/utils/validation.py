"""Argument-validation helpers used by public constructors.

These helpers raise :class:`repro.errors.ConfigurationError` with a
descriptive message so misconfigured experiments fail loudly and early.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Type, Union

from repro.errors import ConfigurationError, ReproError

__all__ = [
    "json_payload",
    "require",
    "require_divisible",
    "require_in_range",
    "require_power_of_two",
]


def json_payload(
    source: Union[str, Path],
    error_cls: Type[ReproError] = ConfigurationError,
    what: str = "payload",
) -> Any:
    """Load JSON from a payload string or a path to a JSON file.

    ``source`` strings starting with ``{`` are treated as the payload
    itself; anything else is read as a file path.  Invalid JSON raises
    ``error_cls`` (a :class:`ReproError` subclass) naming ``what``.
    Used by `ResultTable.from_json`.
    """
    if isinstance(source, Path) or not str(source).lstrip().startswith("{"):
        text = Path(source).read_text(encoding="utf-8")
    else:
        text = str(source)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error_cls(f"{what} is not valid JSON: {exc}") from exc


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_power_of_two(value: int, name: str) -> None:
    """Require ``value`` to be a positive power of two."""
    if value <= 0 or (value & (value - 1)) != 0:
        raise ConfigurationError(f"{name} must be a positive power of two, got {value}")


def require_divisible(numerator: int, denominator: int, message: str) -> None:
    """Require ``numerator`` to be an exact multiple of ``denominator``."""
    if denominator == 0 or numerator % denominator != 0:
        raise ConfigurationError(message)


def require_in_range(value: Any, low: Any, high: Any, name: str) -> None:
    """Require ``low <= value <= high``."""
    if not (low <= value <= high):
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value}")
