"""Inline waiver comments: ``# repro: allow[<CODE>] reason=...``.

A waiver suppresses findings of the named rule(s) on its own line, or —
when the comment stands alone — on the next code line.  The reason string
is **mandatory**: a waiver without one does not suppress anything and is
itself reported under ``WVR001``, so every suppressed finding carries a
human-readable justification next to the code it excuses.  A waiver
naming a code or family that no check has is reported under ``WVR001``
too, so a waiver cannot outlive the rule it names.

Syntax (one comment, one or more comma-separated codes)::

    start = time.monotonic()  # repro: allow[OBS001] reason=the clock repro.obs wraps

    # repro: allow[API001,API003] reason=cleanup handler must catch everything
    except Exception:
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["Waiver", "WaiverTable", "parse_waivers"]

#: Matches a waiver in a comment token; the reason runs to the end of the
#: comment (it is prose, not code).
_WAIVER_RE = re.compile(
    r"#\s*repro:\s*allow\[(?P<codes>[A-Za-z0-9_,\s]+)\]\s*(?:reason\s*=\s*(?P<reason>.*))?"
)


@dataclass(frozen=True)
class Waiver:
    """One parsed waiver comment."""

    line: int
    codes: Tuple[str, ...]
    reason: str

    @property
    def valid(self) -> bool:
        """True when the mandatory reason string is present and non-empty."""
        return bool(self.reason.strip())

    def covers(self, rule: str) -> bool:
        """True when this waiver names ``rule`` or its whole family."""
        family = rule.rstrip("0123456789")
        return any(code in (rule, family) for code in self.codes)


class WaiverTable:
    """All waivers of one module, indexed by the line(s) they cover.

    Coverage forwards in two ways beyond the waiver's own line:

    * a waiver on a comment-only line covers the next line holding code;
    * when the covered code line is a decorator (``@...``), coverage
      extends through any further decorator lines to the decorated
      ``def``/``class`` line — so a waiver above ``@register_task(...)``
      still excuses a finding anchored at the function definition.
    """

    def __init__(
        self,
        waivers: Sequence[Waiver],
        code_lines: Sequence[int],
        source_lines: Optional[Sequence[str]] = None,
    ):
        self.waivers: List[Waiver] = list(waivers)
        #: line -> waivers covering findings on that line.
        self._by_line: Dict[int, List[Waiver]] = {}
        code_sorted = sorted(code_lines)
        code_set = set(code_sorted)

        def stripped(line: int) -> str:
            if source_lines is not None and 1 <= line <= len(source_lines):
                return source_lines[line - 1].strip()
            return ""

        def forward(line: int) -> List[int]:
            """Lines covered downstream of ``line`` (decorator chains)."""
            covered: List[int] = []
            current = line
            while stripped(current).startswith("@"):
                following = [number for number in code_sorted if number > current]
                if not following:
                    break
                current = following[0]
                covered.append(current)
            return covered

        for waiver in self.waivers:
            if not waiver.valid:
                continue
            lines = [waiver.line]
            anchor = waiver.line
            if waiver.line not in code_set:
                following = [number for number in code_sorted if number > waiver.line]
                if following:
                    anchor = following[0]
                    lines.append(anchor)
            lines.extend(forward(anchor))
            for line in lines:
                self._by_line.setdefault(line, []).append(waiver)

    def waives(self, rule: str, line: int) -> bool:
        """True when a valid waiver covers ``rule`` at ``line``."""
        return any(waiver.covers(rule) for waiver in self._by_line.get(line, ()))


def parse_waivers(lines: Sequence[str]) -> List[Waiver]:
    """Extract every waiver comment from a module's source lines.

    Only real comment tokens count: text that looks like a waiver inside
    a string literal or docstring waives nothing.  Source that stops
    tokenizing (it does not parse) yields the waivers before that point.
    """
    waivers: List[Waiver] = []
    readline = io.StringIO("\n".join(lines) + "\n").readline
    try:
        for token in tokenize.generate_tokens(readline):
            if token.type != tokenize.COMMENT or "repro:" not in token.string:
                continue
            match = _WAIVER_RE.search(token.string)
            if match is None:
                continue
            codes = tuple(
                code.strip().upper() for code in match.group("codes").split(",") if code.strip()
            )
            reason = (match.group("reason") or "").strip()
            waivers.append(Waiver(line=token.start[0], codes=codes, reason=reason))
    except (tokenize.TokenError, SyntaxError):
        pass
    return waivers
