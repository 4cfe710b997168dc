"""The analysis engine: parse modules, run rules, apply waivers.

The engine runs one pass per module: parse it, run every selected rule
on it, and drop the findings an inline waiver covers
(:class:`~repro.analysis.waivers.WaiverTable`).  Each rule sees one
module at a time, so modules are analyzed independently and in any
order.

Every run is cold: each module's tree is walked once and the node list
memoised (:meth:`ModuleContext.walk`), which keeps a full pass over the
repository fast enough to need no cache.

Public entry points: :func:`analyze_source` (one in-memory module, what
the per-rule test fixtures use), :func:`analyze_sources` (an in-memory
*set* of modules), and :func:`analyze_paths` (reads every ``.py`` file
under files/directories, then runs :func:`analyze_sources`).  All return
:class:`~repro.analysis.finding.Finding` lists sorted by location.
"""

from __future__ import annotations

import ast
import importlib.util
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.finding import Finding
from repro.analysis.registry import RuleSpec, select_rules
from repro.analysis.waivers import WaiverTable, parse_waivers
from repro.errors import ConfigurationError

__all__ = [
    "ModuleContext",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "iter_python_files",
]

#: Rule code used for files that cannot be decoded or parsed; never
#: waivable (a file that does not parse cannot be analyzed at all).
PARSE_RULE = "SYN001"

#: Rule code for malformed waivers (missing reason); emitted by the engine
#: itself so a reasonless waiver can never be excused by another waiver.
WAIVER_RULE = "WVR001"


@dataclass
class ModuleContext:
    """Everything a rule needs to know about one module.

    Attributes
    ----------
    path:
        Display path of the module (POSIX-style, relative to the analysis
        root when possible); used in findings and path-scoped rules.
    tree:
        Parsed AST of the module.
    lines:
        Source split into lines (1-based indexing via ``line_text``).
    """

    path: str
    tree: ast.Module
    lines: List[str]

    def line_text(self, line: int) -> str:
        """The stripped source text of 1-based ``line`` ('' out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    @cached_property
    def _nodes(self) -> List[ast.AST]:
        """Every node of the tree in ``ast.walk`` order, walked once."""
        return list(ast.walk(self.tree))

    def walk(self, *types: type) -> Iterator[Any]:
        """Yield the tree's nodes of the requested types, in ``ast.walk`` order.

        The tree is walked once per module; every call filters the
        memoised node list.  Typed ``Iterator[Any]`` deliberately: callers
        pass several node classes at once (``walk(ast.FunctionDef,
        ast.Lambda)``) and read their shared-but-unrelated attributes,
        which no common AST base class can express.
        """
        for node in self._nodes:
            if isinstance(node, types):
                yield node

    def finding(
        self, rule: str, node: Union[ast.AST, int], message: str
    ) -> Finding:
        """Build a finding anchored at ``node`` (an AST node or line number)."""
        if isinstance(node, ast.AST):
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0)
        else:
            line, column = int(node), 0
        return Finding(
            rule=rule.upper(),
            path=self.path,
            line=line,
            column=column,
            message=message,
            snippet=self.line_text(line),
        )

    def in_path(self, *fragments: str) -> bool:
        """True when the module lives under any of the given path fragments.

        Fragments are POSIX-style and match against the module's display
        path (``module.in_path("repro/experiments/")``).
        """
        normalised = self.path.replace("\\", "/")
        return any(fragment in normalised for fragment in fragments)


def _location(finding: Finding) -> Tuple[str, int, int, str]:
    return (finding.path, finding.line, finding.column, finding.rule)


def _code_lines(lines: Sequence[str]) -> List[int]:
    """1-based numbers of lines holding code (non-blank, not pure comment)."""
    return [
        number
        for number, text in enumerate(lines, start=1)
        if text.strip() and not text.strip().startswith("#")
    ]


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
            snippet=(error.text or "").strip(),
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


def _analyze_module(
    source: Union[str, bytes], path: str, specs: Sequence[RuleSpec]
) -> List[Finding]:
    """Run the rules on one module and drop the findings its waivers cover."""
    module = _parse_module(source, path)
    if isinstance(module, Finding):
        return [module]
    table = WaiverTable(
        parse_waivers(module.lines), _code_lines(module.lines), module.lines
    )
    findings = [
        item
        for spec in specs
        for item in spec.check(module)
        if not table.waives(item.rule, item.line)
    ]
    for waiver in table.invalid():
        findings.append(
            module.finding(
                WAIVER_RULE,
                waiver.line,
                "waiver is missing its mandatory reason "
                "(write `# repro: allow[RULE] reason=...`)",
            )
        )
    return findings


def analyze_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Analyze one module given as source text.

    Runs the selected rules, drops findings covered by a valid inline
    waiver, reports reasonless waivers under ``WVR001``, and returns the
    remaining findings sorted by location.
    """
    return sorted(_analyze_module(source, path, select_rules(select, ignore)), key=_location)


def analyze_sources(
    sources: Mapping[str, Union[str, bytes]],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Analyze a set of modules.

    ``sources`` maps display paths (e.g. ``"src/mypkg/worker.py"``) to
    module source: text, or the raw bytes of a file, decoded as the
    interpreter would.
    """
    specs = select_rules(select, ignore)
    findings = [
        item for path in sorted(sources) for item in _analyze_module(sources[path], path, specs)
    ]
    return sorted(findings, key=_location)


def _display_path(path: Path, root: Path) -> str:
    """POSIX-style path relative to ``root`` when possible."""
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into the sorted list of ``.py`` files."""
    files: List[Path] = []
    for entry in paths:
        path = Path(entry)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise ConfigurationError(f"no such file or directory: {path}")
    unique: List[Path] = []
    seen = set()
    for path in files:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def analyze_paths(
    paths: Sequence[Union[str, Path]],
    root: Optional[Union[str, Path]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Analyze every ``.py`` file under ``paths``.

    ``root`` (default: the current working directory) anchors the
    relative paths findings report.
    """
    base = Path(root) if root is not None else Path.cwd()
    sources: Dict[str, bytes] = {}
    for file_path in iter_python_files(paths):
        try:
            sources[_display_path(file_path, base)] = file_path.read_bytes()
        except OSError as error:
            raise ConfigurationError(f"cannot read {file_path}: {error}") from error
    return analyze_sources(sources, select=select, ignore=ignore)
