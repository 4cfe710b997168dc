"""NUM — numeric-safety rules.

Accounting and cost scoring are integer-exact by construction (energies
are int64 femtojoules, cost tables hold integers under the ``2**53``
bound), so no rule polices reduction order.  These rules catch the two
hazards that remain: boolean accumulations whose width depends on the
platform, and float ``==`` comparisons.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.analysis.engine import ModuleContext
from repro.analysis.finding import Finding
from repro.analysis.registry import register_rule
from repro.analysis.rules.common import call_name

#: Reductions whose accumulator width matters for a boolean operand.
_SUM_REDUCTIONS = {"sum", "mean"}


def _reduced_operand(node: ast.Call) -> Optional[ast.expr]:
    """The array expression a sum/mean-style call reduces, if recognisable."""
    # The module-function form must win over the generic attribute form:
    # for np.sum(x) the attribute branch would report the operand as the
    # module object `np` rather than the reduced argument.
    name = call_name(node)
    if name in {"np.sum", "numpy.sum", "np.mean", "numpy.mean"}:
        return node.args[0] if node.args else None
    if isinstance(node.func, ast.Attribute) and node.func.attr in _SUM_REDUCTIONS:
        return node.func.value
    return None


def _has_dtype_kw(node: ast.Call) -> bool:
    return any(kw.arg == "dtype" for kw in node.keywords)


@register_rule(
    "NUM002",
    summary="boolean .sum() without an explicit dtype "
    "(platform-dependent accumulator width)",
)
def check_bool_sum_dtype(module: ModuleContext) -> Iterator[Finding]:
    """Flag ``sum()`` reductions over boolean masks without an explicit
    ``dtype=``; platform-dependent accumulator widths change
    overflow behaviour silently."""
    for node in module.walk(ast.Call):
        operand = _reduced_operand(node)
        if operand is None or _has_dtype_kw(node):
            continue
        if isinstance(operand, (ast.Compare, ast.BoolOp)) or (
            isinstance(operand, ast.UnaryOp) and isinstance(operand.op, ast.Not)
        ):
            yield module.finding(
                "NUM002",
                node,
                "summing a boolean expression without dtype= uses the "
                "platform default integer width; pass an explicit dtype "
                "(e.g. dtype=np.int64) so counts are identical everywhere",
            )


@register_rule(
    "NUM003",
    summary="float literal compared with == / != (cost comparisons must use "
    "exact integers or explicit tolerances)",
)
def check_float_equality(module: ModuleContext) -> Iterator[Finding]:
    """Flag ``==``/``!=`` comparisons against float literals; rounding
    makes exact float equality order- and platform-dependent — use
    ``math.isclose``/``np.isclose`` or compare integers."""
    for node in module.walk(ast.Compare):
        operands = [node.left, *node.comparators]
        has_float_literal = any(
            isinstance(operand, ast.Constant) and isinstance(operand.value, float)
            for operand in operands
        )
        if not has_float_literal:
            continue
        for op in node.ops:
            if isinstance(op, (ast.Eq, ast.NotEq)):
                yield module.finding(
                    "NUM003",
                    node,
                    "== / != against a float literal is a last-ulp trap in "
                    "cost paths; compare exact integer costs, or use "
                    "math.isclose / np.isclose with explicit tolerances",
                )
                break
