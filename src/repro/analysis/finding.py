"""The :class:`Finding` record produced by every analysis rule.

A finding pins one rule violation to one source location.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict

__all__ = ["Finding"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    rule:
        Rule code (e.g. ``DET001``); the leading letters name the family.
    path:
        Path of the analyzed file as reported to the user (POSIX-style,
        relative to the analysis root whenever possible).
    line, column:
        1-based line and 0-based column of the violating node.
    message:
        Human-readable description of the violation and the expected fix.
    snippet:
        The stripped source line the finding points at.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str
    snippet: str = ""

    def to_json(self) -> Dict[str, Any]:
        """JSON-serialisable representation used by the CLI."""
        return asdict(self)

    def render(self) -> str:
        """One-line ``path:line:col CODE message`` text rendering."""
        return f"{self.path}:{self.line}:{self.column} {self.rule} {self.message}"
