"""Whole-program model for the project-scope analysis pass.

Pass 1 of the engine distils every module into a :class:`ModuleSummary` —
its import bindings, module-level state, and one :class:`FunctionSummary`
per function (which module globals it reads and writes, what it calls,
whether it is a registered task kind, what it submits to executors).
Pass 2 assembles the summaries into a :class:`ProjectContext`: an import
graph, a conservative call graph over statically-resolvable ``repro.*``
calls, and transitive global-mutation closures, which the project-scope
rules (the ``PAR`` and ``IMP`` families) consume.

The call graph is *conservative in the practical sense*: an edge exists
only when the callee is statically nameable and resolves to a function in
an analyzed module (a local ``def``, an imported name, or a dotted
``module.function`` reference, with re-exports chased through package
``__init__`` bindings).  Method calls on objects are not resolved; the
PAR rules are therefore under- rather than over-approximate, which is the
right trade for a lint gate.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.rules.common import call_name, decorator_name, dotted_name

__all__ = [
    "FunctionSummary",
    "GlobalBinding",
    "ImportRecord",
    "ModuleSummary",
    "ProjectContext",
    "SubmitSite",
    "WriteSite",
    "module_name_for_path",
    "summarize_module",
]

#: Methods whose call mutates their receiver in place.  Deliberately broad
#: — a false "mutation" on an immutable receiver costs nothing, a missed
#: one hides a cross-process hazard.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "increment",
        "observe",
        "set",
        "reset",
        "merge",
        "push",
        "write",
        "register",
        "unregister",
    }
)

#: Call tails that construct a random-number generator object.
_RNG_CONSTRUCTORS = frozenset({"make_rng", "default_rng", "Generator", "RandomState"})

#: Executor fan-out methods.  ``submit`` is distinctive on its own;
#: the map/apply family only counts on a pool/executor-named receiver.
_SUBMIT_METHODS = frozenset({"submit"})
_MAP_METHODS = frozenset({"map", "starmap", "apply_async", "imap", "imap_unordered"})
_EXECUTOR_RECEIVER_HINTS = ("pool", "executor", "exec")


def module_name_for_path(relpath: str) -> str:
    """Dotted module name for a repository-relative path.

    ``src/repro/coding/base.py`` → ``repro.coding.base``;
    ``src/repro/analysis/__init__.py`` → ``repro.analysis``;
    ``benchmarks/bench_x.py`` → ``benchmarks.bench_x``.
    """
    normalised = relpath.replace("\\", "/")
    if normalised.startswith("src/"):
        normalised = normalised[len("src/") :]
    if normalised.endswith(".py"):
        normalised = normalised[: -len(".py")]
    dotted = normalised.strip("/").replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


@dataclass(frozen=True)
class ImportRecord:
    """One module-level import edge (lazy in-function imports excluded)."""

    target: str
    lineno: int
    snippet: str


@dataclass(frozen=True)
class GlobalBinding:
    """One module-level name binding."""

    name: str
    lineno: int
    snippet: str
    mutable: bool
    is_rng: bool


@dataclass(frozen=True)
class WriteSite:
    """One direct write to a module-level name inside a function body."""

    name: str
    lineno: int
    snippet: str
    kind: str  # rebind | augment | mutate-call | subscript | attribute | delete


@dataclass(frozen=True)
class SubmitSite:
    """One call handing a callable to an executor/pool fan-out method."""

    lineno: int
    snippet: str
    method: str
    receiver: str
    callable_kind: str  # lambda | nested-function | bound-method | name | unknown
    callable_name: str


@dataclass(frozen=True)
class FunctionSummary:
    """Flattened facts about one top-level function or method.

    Nested functions (closures, decorator factories) fold into their
    enclosing top-level definition: their reads, writes, and calls are
    attributed to the outermost ``def`` so call-graph propagation and the
    sanctioned-setter check both key off the name a reader sees.
    """

    name: str  # local qualname, e.g. "run_campaign" or "Engine.run"
    module: str
    lineno: int
    snippet: str
    decorators: Tuple[str, ...]
    task_kind: Optional[str]
    global_reads: FrozenSet[str]
    global_writes: Tuple[WriteSite, ...]
    calls: Tuple[str, ...]
    submits: Tuple[SubmitSite, ...]
    nested_names: FrozenSet[str]

    @property
    def qualname(self) -> str:
        """Project-wide identity: ``module:local_qualname``."""
        return f"{self.module}:{self.name}"

    @property
    def outer_name(self) -> str:
        """Name of the outermost definition (sanction checks key on it)."""
        return self.name.split(".", 1)[0]


@dataclass
class ModuleSummary:
    """Everything the project pass needs to know about one module."""

    module: str
    path: str
    imports: List[ImportRecord] = field(default_factory=list)
    import_bindings: Dict[str, str] = field(default_factory=dict)
    globals_: Dict[str, GlobalBinding] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)


# --------------------------------------------------------------- extraction


def _line_text(lines: Sequence[str], lineno: int) -> str:
    if 1 <= lineno <= len(lines):
        return lines[lineno - 1].strip()
    return ""


def _is_mutable_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("list", "dict", "set", "bytearray", "defaultdict", "deque", "Counter"):
            return True
        # A call to a CamelCase constructor yields an object with state;
        # treat it as mutable unless it is an obvious value constructor.
        tail = (name or "").rpartition(".")[2]
        if tail[:1].isupper() and tail not in ("True", "False", "None"):
            return True
    return False


def _is_rng_constructor(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name is None:
        return False
    return name.rpartition(".")[2] in _RNG_CONSTRUCTORS


def _literal_task_kind(decorators: Sequence[ast.expr]) -> Optional[str]:
    """The literal kind name when decorated with ``@register_task("kind")``."""
    for dec in decorators:
        if decorator_name(dec) != "register_task":
            continue
        if isinstance(dec, ast.Call):
            name_arg: Optional[ast.expr] = dec.args[0] if dec.args else None
            if name_arg is None:
                keyword = next((kw for kw in dec.keywords if kw.arg == "name"), None)
                name_arg = keyword.value if keyword is not None else None
            if isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str):
                return name_arg.value
        return "<unnamed>"
    return None


def _toplevel_import_records(
    tree: ast.Module, lines: Sequence[str]
) -> Tuple[List[ImportRecord], Dict[str, str]]:
    """Module-level imports and the local-name → dotted-target bindings.

    Imports guarded by ``if TYPE_CHECKING:`` are excluded from the edge
    list (they never execute, so they cannot create a runtime cycle) but
    still contribute name bindings for call resolution.
    """
    records: List[ImportRecord] = []
    bindings: Dict[str, str] = {}

    def visit(body: Sequence[ast.stmt], runtime: bool) -> None:
        for statement in body:
            if isinstance(statement, ast.Import):
                for alias in statement.names:
                    local = alias.asname or alias.name.split(".", 1)[0]
                    bindings[local] = alias.name if alias.asname else local
                    if runtime:
                        records.append(
                            ImportRecord(
                                target=alias.name,
                                lineno=statement.lineno,
                                snippet=_line_text(lines, statement.lineno),
                            )
                        )
            elif isinstance(statement, ast.ImportFrom):
                if statement.module is None or statement.level:
                    continue  # relative imports stay un-modelled (none in-tree)
                for alias in statement.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    bindings[local] = f"{statement.module}.{alias.name}"
                if runtime:
                    records.append(
                        ImportRecord(
                            target=statement.module,
                            lineno=statement.lineno,
                            snippet=_line_text(lines, statement.lineno),
                        )
                    )
            elif isinstance(statement, ast.If):
                test_src = ast.dump(statement.test)
                type_checking = "TYPE_CHECKING" in test_src
                visit(statement.body, runtime and not type_checking)
                visit(statement.orelse, runtime)
            elif isinstance(statement, ast.Try):
                visit(statement.body, runtime)
                for handler in statement.handlers:
                    visit(handler.body, runtime)
                visit(statement.orelse, runtime)
                visit(statement.finalbody, runtime)

    visit(tree.body, True)
    return records, bindings


def _target_names(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _module_globals(tree: ast.Module, lines: Sequence[str]) -> Dict[str, GlobalBinding]:
    """Module-level name bindings (first binding wins for the location)."""
    out: Dict[str, GlobalBinding] = {}

    def record(name: str, lineno: int, value: Optional[ast.expr]) -> None:
        if name in out:
            return
        out[name] = GlobalBinding(
            name=name,
            lineno=lineno,
            snippet=_line_text(lines, lineno),
            mutable=_is_mutable_literal(value) if value is not None else False,
            is_rng=_is_rng_constructor(value) if value is not None else False,
        )

    for statement in tree.body:
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                for name in _target_names(target):
                    record(name, statement.lineno, statement.value)
        elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
            record(statement.target.id, statement.lineno, statement.value)
        elif isinstance(statement, ast.AugAssign) and isinstance(statement.target, ast.Name):
            record(statement.target.id, statement.lineno, None)
    return out


class _FunctionVisitor(ast.NodeVisitor):
    """Collect reads/writes/calls of one function, nested defs flattened."""

    def __init__(self, lines: Sequence[str]):
        self.lines = lines
        self.declared_global: Set[str] = set()
        self.local_names: Set[str] = set()
        self.nested_names: Set[str] = set()
        self.reads: Set[str] = set()
        self.writes: List[WriteSite] = []
        self.calls: List[str] = []
        self.submits: List[SubmitSite] = []

    # -- helpers
    def _write(self, name: str, node: ast.AST, kind: str) -> None:
        lineno = getattr(node, "lineno", 1)
        self.writes.append(
            WriteSite(
                name=name,
                lineno=lineno,
                snippet=_line_text(self.lines, lineno),
                kind=kind,
            )
        )

    def _record_target(self, target: ast.expr, node: ast.AST, kind: str) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_global:
                self._write(target.id, node, kind)
            else:
                self.local_names.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._record_target(element, node, kind)
        elif isinstance(target, ast.Subscript):
            base = _root_name(target.value)
            if base is not None and base not in self.local_names:
                self._write(base, node, "subscript")
        elif isinstance(target, ast.Attribute):
            base = _root_name(target.value)
            if base is not None and base not in self.local_names and base not in ("self", "cls"):
                self._write(base, node, "attribute")

    # -- visitors
    def visit_Global(self, node: ast.Global) -> None:
        self.declared_global.update(node.names)

    def visit_Nonlocal(self, node: ast.Nonlocal) -> None:
        self.local_names.update(node.names)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node, "rebind")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_target(node.target, node, "rebind")
        if node.value is not None:
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node, "augment")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                base = _root_name(target.value)
                if base is not None and base not in self.local_names:
                    self._write(base, node, "delete")
            elif isinstance(target, ast.Name) and target.id in self.declared_global:
                self._write(target.id, node, "delete")

    def visit_For(self, node: ast.For) -> None:
        self._record_target(node.target, node, "rebind")
        self.visit(node.iter)
        for statement in node.body + node.orelse:
            self.visit(statement)

    def visit_withitem(self, node: ast.withitem) -> None:
        self.visit(node.context_expr)
        if node.optional_vars is not None:
            self._record_target(node.optional_vars, node.context_expr, "rebind")

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self._record_target(node.target, node, "rebind")
        self.visit(node.value)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._nested(node)

    def _nested(self, node: ast.AST) -> None:
        name = getattr(node, "name", "<lambda>")
        self.local_names.add(name)
        self.nested_names.add(name)
        for arg in _all_args(node):
            self.local_names.add(arg)
        for statement in getattr(node, "body", []):
            self.visit(statement)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for arg in _all_args(node):
            self.local_names.add(arg)
        self.visit(node.body)

    def visit_Call(self, node: ast.Call) -> None:
        name = call_name(node)
        if name is not None:
            self.calls.append(name)
            root, _, method = name.rpartition(".")
            base = root.rpartition(".")[2] if root else ""
            if root and method in _MUTATING_METHODS:
                receiver_root = _root_name(node.func.value) if isinstance(
                    node.func, ast.Attribute
                ) else base
                if (
                    receiver_root is not None
                    and receiver_root not in self.local_names
                    and receiver_root not in ("self", "cls")
                ):
                    self._write(receiver_root, node, "mutate-call")
            self._maybe_submit(node, name)
        self.generic_visit(node)

    def _maybe_submit(self, node: ast.Call, name: str) -> None:
        receiver, _, method = name.rpartition(".")
        if not receiver:
            return
        receiver_tail = receiver.rpartition(".")[2].lower()
        is_submit = method in _SUBMIT_METHODS
        is_map = method in _MAP_METHODS and any(
            hint in receiver_tail for hint in _EXECUTOR_RECEIVER_HINTS
        )
        if not (is_submit or is_map):
            return
        target = node.args[0] if node.args else None
        kind, callable_name = "unknown", ""
        if isinstance(target, ast.Lambda):
            kind, callable_name = "lambda", "<lambda>"
        elif isinstance(target, ast.Name):
            callable_name = target.id
            kind = "nested-function" if target.id in self.nested_names else "name"
        elif isinstance(target, ast.Attribute):
            callable_name = dotted_name(target) or target.attr
            kind = "bound-method"
        self.submits.append(
            SubmitSite(
                lineno=node.lineno,
                snippet=_line_text(self.lines, node.lineno),
                method=method,
                receiver=receiver,
                callable_kind=kind,
                callable_name=callable_name,
            )
        )

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load) and node.id not in self.local_names:
            self.reads.add(node.id)


def _all_args(node: ast.AST) -> List[str]:
    args = getattr(node, "args", None)
    if not isinstance(args, ast.arguments):
        return []
    names = [
        arg.arg
        for arg in args.posonlyargs + args.args + args.kwonlyargs
    ]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _root_name(node: ast.expr) -> Optional[str]:
    """The leftmost name of a Name/Attribute/Subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _summarize_function(
    node: ast.AST,
    qualname: str,
    module: str,
    lines: Sequence[str],
) -> FunctionSummary:
    visitor = _FunctionVisitor(lines)
    for arg in _all_args(node):
        visitor.local_names.add(arg)
    for statement in getattr(node, "body", []):
        visitor.visit(statement)
    decorators = tuple(
        name
        for name in (
            decorator_name(dec) for dec in getattr(node, "decorator_list", [])
        )
        if name is not None
    )
    lineno = getattr(node, "lineno", 1)
    return FunctionSummary(
        name=qualname,
        module=module,
        lineno=lineno,
        snippet=_line_text(lines, lineno),
        decorators=decorators,
        task_kind=_literal_task_kind(getattr(node, "decorator_list", [])),
        global_reads=frozenset(visitor.reads),
        global_writes=tuple(visitor.writes),
        calls=tuple(visitor.calls),
        submits=tuple(visitor.submits),
        nested_names=frozenset(visitor.nested_names),
    )


def summarize_module(relpath: str, tree: ast.Module, lines: Sequence[str]) -> ModuleSummary:
    """Distil one parsed module into its project-pass summary."""
    module = module_name_for_path(relpath)
    imports, bindings = _toplevel_import_records(tree, lines)
    summary = ModuleSummary(
        module=module,
        path=relpath,
        imports=imports,
        import_bindings=bindings,
        globals_=_module_globals(tree, lines),
    )
    for statement in tree.body:
        if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.functions[statement.name] = _summarize_function(
                statement, statement.name, module, lines
            )
        elif isinstance(statement, ast.ClassDef):
            for item in statement.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{statement.name}.{item.name}"
                    summary.functions[qualname] = _summarize_function(
                        item, qualname, module, lines
                    )
    return summary


# ------------------------------------------------------------ project view


class ProjectContext:
    """The assembled whole-program view handed to project-scope rules."""

    def __init__(self, summaries: Sequence[ModuleSummary]):
        self.modules: Dict[str, ModuleSummary] = {}
        for summary in summaries:
            self.modules[summary.module] = summary
        #: module → set of imported modules that are themselves analyzed.
        self.import_graph: Dict[str, Set[str]] = {}
        for summary in self.modules.values():
            edges = set()
            for record in summary.imports:
                resolved = self.resolve_module(record.target)
                if resolved is not None and resolved != summary.module:
                    edges.add(resolved)
            self.import_graph[summary.module] = edges
        self._call_edges: Dict[str, Tuple[str, ...]] = {}
        self._transitive_writes: Dict[str, Tuple[Tuple[str, WriteSite, Tuple[str, ...]], ...]] = {}
        self._transitive_reads: Dict[str, FrozenSet[Tuple[str, str]]] = {}

    # -- module helpers
    def resolve_module(self, dotted: str) -> Optional[str]:
        """Longest analyzed-module prefix of a dotted import target."""
        parts = dotted.split(".")
        for length in range(len(parts), 0, -1):
            candidate = ".".join(parts[:length])
            if candidate in self.modules:
                return candidate
        return None

    def function(self, qualname: str) -> Optional[FunctionSummary]:
        """Look up a function by its ``module:name`` qualname."""
        module, _, name = qualname.partition(":")
        summary = self.modules.get(module)
        if summary is None:
            return None
        return summary.functions.get(name)

    def functions(self) -> Iterator[FunctionSummary]:
        """Every function of every analyzed module, in stable order."""
        for module in sorted(self.modules):
            summary = self.modules[module]
            for name in sorted(summary.functions):
                yield summary.functions[name]

    def task_functions(self) -> Iterator[FunctionSummary]:
        """Functions registered as campaign task kinds."""
        for function in self.functions():
            if function.task_kind is not None:
                yield function

    # -- call graph
    def _chase_reexport(self, dotted: str, hops: int = 3) -> str:
        """Follow package ``__init__`` re-export bindings to the definition."""
        current = dotted
        for _ in range(hops):
            module, _, name = current.rpartition(".")
            summary = self.modules.get(module)
            if summary is None or not name:
                return current
            if name in summary.functions:
                return current
            binding = summary.import_bindings.get(name)
            if binding is None or binding == current:
                return current
            current = binding
        return current

    def resolve_call(self, caller: FunctionSummary, raw: str) -> Optional[str]:
        """Resolve one raw call name to a ``module:function`` qualname."""
        summary = self.modules.get(caller.module)
        if summary is None:
            return None
        head, _, tail = raw.rpartition(".")
        if not head:
            # Bare name: a sibling top-level function, or an imported one.
            if raw in summary.functions:
                return f"{caller.module}:{raw}"
            binding = summary.import_bindings.get(raw)
            if binding is not None:
                return self._qualname_for(binding)
            return None
        # Dotted: resolve the root through the import bindings, then look
        # the full chain up as module.attr.
        root = raw.split(".", 1)[0]
        binding = summary.import_bindings.get(root)
        if binding is None:
            return None
        dotted = binding + raw[len(root) :]
        return self._qualname_for(dotted)

    def _qualname_for(self, dotted: str) -> Optional[str]:
        dotted = self._chase_reexport(dotted)
        module, _, name = dotted.rpartition(".")
        summary = self.modules.get(module)
        if summary is None or not name:
            return None
        if name in summary.functions:
            return f"{module}:{name}"
        return None

    def call_edges(self, function: FunctionSummary) -> Tuple[str, ...]:
        """Resolved callee qualnames of one function (memoised)."""
        cached = self._call_edges.get(function.qualname)
        if cached is not None:
            return cached
        seen: List[str] = []
        for raw in function.calls:
            resolved = self.resolve_call(function, raw)
            if resolved is not None and resolved not in seen:
                seen.append(resolved)
        edges = tuple(seen)
        self._call_edges[function.qualname] = edges
        return edges

    def transitive_writes(
        self, function: FunctionSummary
    ) -> Tuple[Tuple[str, WriteSite, Tuple[str, ...]], ...]:
        """Every module-global write reachable from ``function``.

        Returns ``(module, site, chain)`` triples where ``chain`` is the
        call path from ``function`` to the writer (inclusive), and the
        write targets a *module-level binding* of the writer's module.
        """
        cached = self._transitive_writes.get(function.qualname)
        if cached is not None:
            return cached
        out: List[Tuple[str, WriteSite, Tuple[str, ...]]] = []
        seen_sites: Set[Tuple[str, str, int]] = set()
        visited: Set[str] = set()

        def visit(current: FunctionSummary, chain: Tuple[str, ...]) -> None:
            if current.qualname in visited:
                return
            visited.add(current.qualname)
            module_globals = self.modules[current.module].globals_ if (
                current.module in self.modules
            ) else {}
            for site in current.global_writes:
                if site.name not in module_globals and site.kind in (
                    "subscript",
                    "attribute",
                    "mutate-call",
                    "delete",
                ):
                    # Mutation through a name that is not module-level
                    # state of the writer's module (e.g. a parameter that
                    # shadows nothing) — not a global write.
                    continue
                key = (current.module, site.name, site.lineno)
                if key in seen_sites:
                    continue
                seen_sites.add(key)
                out.append((current.module, site, chain))
            for callee in self.call_edges(current):
                target = self.function(callee)
                if target is not None:
                    visit(target, chain + (target.qualname,))

        visit(function, (function.qualname,))
        result = tuple(out)
        self._transitive_writes[function.qualname] = result
        return result

    def transitive_reads(self, function: FunctionSummary) -> FrozenSet[Tuple[str, str]]:
        """``(module, name)`` pairs of module-level bindings read
        (transitively) from ``function``."""
        cached = self._transitive_reads.get(function.qualname)
        if cached is not None:
            return cached
        out: Set[Tuple[str, str]] = set()
        visited: Set[str] = set()

        def visit(current: FunctionSummary) -> None:
            if current.qualname in visited:
                return
            visited.add(current.qualname)
            summary = self.modules.get(current.module)
            if summary is not None:
                for name in current.global_reads:
                    if name in summary.globals_:
                        out.add((current.module, name))
            for callee in self.call_edges(current):
                target = self.function(callee)
                if target is not None:
                    visit(target)

        visit(function)
        result = frozenset(out)
        self._transitive_reads[function.qualname] = result
        return result

    # -- import cycles
    def import_cycles(self) -> List[List[str]]:
        """Strongly-connected components of size > 1 (plus self-loops),
        each rotated to start at its lexicographically-first module."""
        index_counter = [0]
        stack: List[str] = []
        lowlink: Dict[str, int] = {}
        index: Dict[str, int] = {}
        on_stack: Set[str] = set()
        components: List[List[str]] = []

        def strongconnect(node: str) -> None:
            index[node] = lowlink[node] = index_counter[0]
            index_counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            for neighbour in sorted(self.import_graph.get(node, ())):
                if neighbour not in index:
                    strongconnect(neighbour)
                    lowlink[node] = min(lowlink[node], lowlink[neighbour])
                elif neighbour in on_stack:
                    lowlink[node] = min(lowlink[node], index[neighbour])
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or node in self.import_graph.get(node, ()):
                    components.append(component)

        for node in sorted(self.import_graph):
            if node not in index:
                strongconnect(node)

        cycles: List[List[str]] = []
        for component in components:
            first = min(component)
            pivot = component.index(first)
            cycles.append(component[pivot:] + component[:pivot])
        return sorted(cycles)
