"""The analysis pass: parse each module, run every check, apply waivers.

Each module is analyzed on its own: parsed once, walked once
(:meth:`ModuleContext.walk` memoises the node list), and every check of
:data:`repro.analysis.rules.CHECKS` runs on it.  Findings covered by an
inline waiver (:mod:`repro.analysis.waivers`) are dropped.  A waiver
that has no reason, or that names a code or family no check has, is
itself reported under ``WVR001``; a file that does not decode or parse
is reported under ``SYN001``.  Neither can be waived.

Entry points: :func:`analyze_source` (one module given as text),
:func:`analyze_paths` (every ``.py`` file under files and directories,
reported relative to the working directory) and :func:`main`, the
``python -m repro.analysis PATH...`` command line.  Findings come back
sorted by location.
"""

from __future__ import annotations

import ast
import importlib.util
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

from repro.analysis.rules import CHECKS
from repro.analysis.waivers import WaiverTable, parse_waivers
from repro.errors import ConfigurationError

__all__ = ["Finding", "ModuleContext", "analyze_paths", "analyze_source", "main"]

#: Code of a file that cannot be decoded or parsed.
PARSE_RULE = "SYN001"

#: Code of a malformed waiver: no reason, or no check with the named code.
WAIVER_RULE = "WVR001"

#: The codes and families a waiver may name.
WAIVABLE = frozenset(code for code, _ in CHECKS) | frozenset(
    code.rstrip("0123456789") for code, _ in CHECKS
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``line`` is 1-based and ``column`` 0-based; ``path`` is POSIX-style,
    relative to the working directory whenever possible.
    """

    rule: str
    path: str
    line: int
    column: int
    message: str

    def render(self) -> str:
        """One-line ``path:line:col CODE message`` text rendering."""
        return f"{self.path}:{self.line}:{self.column} {self.rule} {self.message}"


@dataclass
class ModuleContext:
    """One parsed module: its display path, AST and source lines."""

    path: str
    tree: ast.Module
    lines: List[str]

    @cached_property
    def _nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once."""
        return list(ast.walk(self.tree))

    def walk(self, *types: type) -> Iterator[Any]:
        """Yield the tree's nodes of the requested types, in ``ast.walk`` order.

        Typed ``Iterator[Any]`` deliberately: callers pass several node
        classes at once (``walk(ast.FunctionDef, ast.Lambda)``) and read
        their shared-but-unrelated attributes, which no common AST base
        class can express.
        """
        for node in self._nodes:
            if isinstance(node, types):
                yield node

    def finding(self, rule: str, node: Union[ast.AST, int], message: str) -> Finding:
        """A finding anchored at ``node`` (an AST node or a line number)."""
        if isinstance(node, ast.AST):
            line, column = getattr(node, "lineno", 1), getattr(node, "col_offset", 0)
        else:
            line, column = node, 0
        return Finding(rule=rule, path=self.path, line=line, column=column, message=message)


def _parse_module(source: Union[str, bytes], path: str) -> Union[ModuleContext, Finding]:
    """Parse one module, or the SYN001 finding when it does not parse.

    Bytes are decoded the way the interpreter decodes a source file: a
    PEP 263 coding cookie or a UTF-8 BOM picks the codec, UTF-8 otherwise.
    """
    try:
        text = source if isinstance(source, str) else importlib.util.decode_source(source)
        tree = ast.parse(text)
    except SyntaxError as error:
        return Finding(
            rule=PARSE_RULE,
            path=path,
            line=error.lineno or 1,
            column=(error.offset or 1) - 1,
            message=f"file does not parse: {error.msg}",
        )
    except UnicodeDecodeError as error:
        return Finding(
            rule=PARSE_RULE,
            path=path,
            line=error.object.count(b"\n", 0, error.start) + 1,
            column=0,
            message=f"file does not decode as {error.encoding}: {error.reason}",
        )
    return ModuleContext(path=path, tree=tree, lines=text.splitlines())


def _analyze_module(source: Union[str, bytes], path: str) -> List[Finding]:
    """Run every check on one module and drop the findings its waivers cover."""
    module = _parse_module(source, path)
    if isinstance(module, Finding):
        return [module]
    code_lines = [
        number
        for number, text in enumerate(module.lines, start=1)
        if text.strip() and not text.strip().startswith("#")
    ]
    table = WaiverTable(parse_waivers(module.lines), code_lines, module.lines)
    hits = (
        module.finding(code, node, message)
        for code, check in CHECKS
        for node, message in check(module)
    )
    findings = [finding for finding in hits if not table.waives(finding.rule, finding.line)]
    for waiver in table.waivers:
        if not waiver.valid:
            findings.append(
                module.finding(
                    WAIVER_RULE,
                    waiver.line,
                    "waiver is missing its mandatory reason "
                    "(write `# repro: allow[<CODE>] reason=...`)",
                )
            )
        unknown = [code for code in waiver.codes if code not in WAIVABLE]
        if unknown:
            findings.append(
                module.finding(
                    WAIVER_RULE,
                    waiver.line,
                    f"waiver names {', '.join(unknown)}, which no check has; remove or "
                    f"correct it (the codes are {', '.join(code for code, _ in CHECKS)})",
                )
            )
    return findings


def _sorted(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.column, f.rule))


def analyze_source(source: str, path: str = "<string>") -> List[Finding]:
    """Analyze one module given as source text."""
    return _sorted(_analyze_module(source, path))


def _display_path(path: Path) -> str:
    """POSIX-style path relative to the working directory when possible."""
    resolved = path.resolve()
    try:
        return resolved.relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return resolved.as_posix()


def analyze_paths(paths: Sequence[Union[str, Path]]) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths`` (each file once)."""
    files: List[Path] = []
    for entry in map(Path, paths):
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.is_file():
            files.append(entry)
        else:
            raise ConfigurationError(f"no such file or directory: {entry}")
    sources: Dict[str, bytes] = {}
    for file_path in files:
        try:
            sources.setdefault(_display_path(file_path), file_path.read_bytes())
        except OSError as error:
            raise ConfigurationError(f"cannot read {file_path}: {error}") from error
    return _sorted([item for path in sources for item in _analyze_module(sources[path], path)])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.analysis PATH...``; returns the exit code.

    Prints one line per finding and a count.  Exit 0: no findings; 1:
    findings; 2: usage error (no path, or an option: there are none) or
    a path that cannot be read.
    """
    paths = list(sys.argv[1:] if argv is None else argv)
    if not paths or any(path.startswith("-") for path in paths):
        print("usage: python -m repro.analysis PATH...", file=sys.stderr)
        return 2
    try:
        findings = analyze_paths(paths)
    except ConfigurationError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding.render())
    print(f"repro.analysis: {len(findings)} finding(s)")
    return 1 if findings else 0
