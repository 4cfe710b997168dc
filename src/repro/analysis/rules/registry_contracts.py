"""REG — registry contract rules.

The encoder registry (:func:`repro.coding.registry.register_encoder`) and
the campaign task registry (:func:`repro.campaign.tasks.register_task`)
are the repository's plugin seams; both have contracts the runtime only
checks partially:

* a registered encoder *class* is expected to override the batched
  ``encode_lines`` fast path — a missing override silently falls back to
  the scalar reference loop and costs 3-15x throughput — and any override
  of the line APIs must keep the base-class signature so the wave-replay
  engine can call it positionally;
* a registered task kind must be resolvable and replayable from its
  content address: a literal kind name (the SHA-256 canonical form hashes
  ``kind`` + ``params`` + ``TASK_SCHEMA_VERSION``) and a single ``params``
  mapping argument (``run_task`` calls ``function(dict(task.params))``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.analysis.engine import ModuleContext
from repro.analysis.finding import Finding
from repro.analysis.registry import register_rule
from repro.analysis.rules.common import decorator_name, dotted_name

#: Base-class signatures from repro/coding/base.py (positional arg names,
#: excluding ``self``).  Overrides must match so batch drivers can call
#: them uniformly.
_ENCODER_SIGNATURES: Dict[str, List[str]] = {
    "encode_line": ["words", "context"],
    "encode_lines": ["words", "batch"],
    "decode_line": ["codewords", "auxes"],
}

#: Overrides required when a class derives straight from the abstract
#: ``Encoder`` base: without them the batched path (which ``encode_line``
#: is a view of) silently degrades to the scalar per-word loop.
_REQUIRED_OVERRIDES = ("encode_lines",)


def _registered_with(node: ast.AST, decorator: str) -> Optional[ast.expr]:
    """The matching decorator expression, when ``node`` is decorated."""
    for dec in getattr(node, "decorator_list", []):
        if decorator_name(dec) == decorator:
            return dec
    return None


def _method_defs(node: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _positional_args(function: ast.FunctionDef) -> List[str]:
    names = [arg.arg for arg in function.args.posonlyargs + function.args.args]
    return names[1:] if names and names[0] in ("self", "cls") else names


@register_rule(
    "REG001",
    summary="@register_encoder class missing the batched encode_lines "
    "override or mismatching the encode_line/encode_lines/decode_line signatures",
)
def check_encoder_contract(module: ModuleContext) -> Iterator[Finding]:
    """Check every ``@register_encoder`` class against the
    ``coding/base.py`` contract: the batched ``encode_lines`` override
    present and the line-API signatures matching."""
    for node in module.walk(ast.ClassDef):
        if _registered_with(node, "register_encoder") is None:
            continue
        methods = _method_defs(node)
        # Signature drift: any override of the three line APIs must keep
        # the base-class positional names (callers pass positionally, but
        # keyword call sites and docs rely on the shared vocabulary).
        for name, expected in _ENCODER_SIGNATURES.items():
            function = methods.get(name)
            if function is None:
                continue
            actual = _positional_args(function)
            if actual != expected:
                yield module.finding(
                    "REG001",
                    function,
                    f"{node.name}.{name} signature ({', '.join(actual)}) does "
                    f"not match repro/coding/base.py ({', '.join(expected)})",
                )
        # A missing batch override only matters for classes deriving straight
        # from the abstract base; subclasses of a concrete encoder (e.g.
        # DBI/BCC on FNW) inherit the vectorised paths.
        base_names = [dotted_name(base) for base in node.bases]
        derives_from_abstract_base_only = base_names == ["Encoder"]
        if derives_from_abstract_base_only:
            for name in _REQUIRED_OVERRIDES:
                if name not in methods:
                    yield module.finding(
                        "REG001",
                        node,
                        f"{node.name} is registered but does not override "
                        f"{name}; the batched replay path would fall back to "
                        "the scalar reference loop (override it, or inherit "
                        "from a concrete encoder that does)",
                    )


@register_rule(
    "REG002",
    summary="@register_task kind must use a literal name and a single "
    "params argument (content-addressing contract)",
)
def check_task_contract(module: ModuleContext) -> Iterator[Finding]:
    """Check every ``@register_task`` function: a literal task-kind name
    (content-addressable store keys must not be computed) and the
    task-callable signature the campaign executor expects."""
    for node in module.walk(ast.FunctionDef, ast.AsyncFunctionDef):
        dec = _registered_with(node, "register_task")
        if dec is None:
            continue
        if isinstance(dec, ast.Call):
            name_arg = dec.args[0] if dec.args else None
            if name_arg is None:
                kw = next((kw for kw in dec.keywords if kw.arg == "name"), None)
                name_arg = kw.value if kw is not None else None
            if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
                yield module.finding(
                    "REG002",
                    dec,
                    "task kind name must be a string literal: the kind is "
                    "hashed into every task's content address alongside "
                    "TASK_SCHEMA_VERSION, so it must be stable and greppable",
                )
        else:
            yield module.finding(
                "REG002",
                node,
                "@register_task must be called with a literal kind name "
                "(bare decoration leaves the kind unnamed)",
            )
        args = node.args
        positional = args.posonlyargs + args.args
        extras = bool(args.vararg or args.kwarg or args.kwonlyargs)
        if len(positional) != 1 or extras:
            yield module.finding(
                "REG002",
                node,
                f"task function {node.name} must accept exactly one "
                "positional params mapping — run_task calls it as "
                "function(dict(task.params))",
            )
