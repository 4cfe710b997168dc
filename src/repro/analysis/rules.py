"""The analyzer's checks: the hazards no enforced test can see.

Every other contract is checked where it runs anyway: global or
unseeded randomness, clock reads and mutable defaults by the jobs=1 vs
jobs=4 row comparisons, a sweep that cannot finish by the time-bounded
pool tests, the registry contracts by ``register_encoder`` /
``register_task`` at import.  What is left here:

* ``DET004`` — iteration over a set: every forked worker inherits the
  coordinator's string hash seed, so the fork-mode sweeps cannot see an
  order that varies between processes (only the fig7 kind also runs
  under spawn);
* ``NUM002`` — a boolean sum without ``dtype=``, whose accumulator width
  is the platform's default integer;
* ``NUM003`` — ``==`` / ``!=`` against a float literal;
* ``OBS001`` — a raw stopwatch clock that bypasses ``repro.obs``;
* ``API001`` / ``API003`` — blanket ``except`` handlers and unannotated
  public functions.

Each check maps one :class:`~repro.analysis.engine.ModuleContext` to
``(node, message)`` pairs; the engine anchors them as findings under the
check's code in :data:`CHECKS`.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - annotation only; the engine imports this module
    from repro.analysis.engine import ModuleContext

__all__ = ["CHECKS"]

#: What a check yields: the offending node and a message.
Hit = Tuple[ast.AST, str]


def _dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name`` / ``Attribute`` chain as ``a.b.c`` (else ``None``)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _call_name(node: ast.Call) -> Optional[str]:
    """Dotted name of a call's function, when statically nameable."""
    return _dotted_name(node.func)


# ------------------------------------------------------------------ DET004
#: Builtins whose call materialises an iteration order from their operand.
_ORDER_MATERIALISERS = {"list", "tuple", "enumerate", "iter"}


def _is_set_expression(node: ast.expr) -> bool:
    """True for expressions that statically produce an (unordered) set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return _call_name(node) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # Set algebra (a | b, a - b, ...) is only flagged when a side is
        # itself statically a set; plain integer arithmetic must not match.
        return _is_set_expression(node.left) or _is_set_expression(node.right)
    return False


def check_set_iteration(module: ModuleContext) -> Iterator[Hit]:
    """Direct iteration over set literals, comprehensions and ``set(...)``
    calls: the order varies with hash seeding, so anything order-sensitive
    must go through ``sorted()``."""
    message = (
        "iteration order over a set is unspecified and varies with hash "
        "seeding across processes; wrap in sorted() before it can reach "
        "ordered results"
    )
    for node in module.walk(ast.For):
        if _is_set_expression(node.iter):
            yield node.iter, message
    for comp in module.walk(ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp):
        for generator in comp.generators:
            if _is_set_expression(generator.iter):
                yield generator.iter, message
    for call in module.walk(ast.Call):
        if _call_name(call) in _ORDER_MATERIALISERS and call.args:
            if _is_set_expression(call.args[0]):
                yield call, message


# ------------------------------------------------------------- NUM002/003
def _reduced_operand(node: ast.Call) -> Optional[ast.expr]:
    """The array expression a sum/mean-style call reduces, if recognisable."""
    # The module-function form must win over the generic attribute form:
    # for np.sum(x) the attribute branch would report the operand as the
    # module object `np` rather than the reduced argument.
    if _call_name(node) in {"np.sum", "numpy.sum", "np.mean", "numpy.mean"}:
        return node.args[0] if node.args else None
    if isinstance(node.func, ast.Attribute) and node.func.attr in ("sum", "mean"):
        return node.func.value
    return None


def check_bool_sum_dtype(module: ModuleContext) -> Iterator[Hit]:
    """``sum()`` over a boolean expression without ``dtype=``: the
    accumulator width is the platform's default integer."""
    for node in module.walk(ast.Call):
        operand = _reduced_operand(node)
        if operand is None or any(kw.arg == "dtype" for kw in node.keywords):
            continue
        if isinstance(operand, (ast.Compare, ast.BoolOp)) or (
            isinstance(operand, ast.UnaryOp) and isinstance(operand.op, ast.Not)
        ):
            yield node, (
                "summing a boolean expression without dtype= uses the "
                "platform default integer width; pass an explicit dtype "
                "(e.g. dtype=np.int64) so counts are identical everywhere"
            )


def check_float_equality(module: ModuleContext) -> Iterator[Hit]:
    """``==`` / ``!=`` against a float literal: rounding makes exact float
    equality depend on how the value was computed."""
    for node in module.walk(ast.Compare):
        operands = [node.left, *node.comparators]
        if any(
            isinstance(operand, ast.Constant) and isinstance(operand.value, float)
            for operand in operands
        ) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            yield node, (
                "== / != against a float literal is a last-ulp trap; "
                "compare exact integers, or use math.isclose / np.isclose "
                "with explicit tolerances"
            )


# ------------------------------------------------------------------ OBS001
#: Stopwatch clocks: monotonic/process clocks used to measure durations.
_STOPWATCH_CALLS = {
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
}


def check_direct_stopwatch(module: ModuleContext) -> Iterator[Hit]:
    """Raw ``time.perf_counter()`` / ``monotonic()`` stopwatch calls: timing
    belongs in ``repro.obs`` so run reports aggregate it."""
    for node in module.walk(ast.Call):
        name = _call_name(node)
        if name in _STOPWATCH_CALLS:
            yield node, (
                f"{name}() bypasses the telemetry layer; measure through "
                "repro.obs (obs.monotonic for stamps, obs.span for traced "
                "regions, obs.timed for call histograms) so the value lands "
                "in run reports — waive with a reason only inside repro.obs itself"
            )


# ------------------------------------------------------------- API001/003
def check_blanket_except(module: ModuleContext) -> Iterator[Hit]:
    """Bare ``except:`` and blanket ``except Exception:`` handlers: they
    swallow the typed error taxonomy of ``repro.errors``."""
    for handler in module.walk(ast.ExceptHandler):
        if handler.type is None:
            broad: Optional[str] = "bare except:"
        else:
            types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
            names = [_dotted_name(expr) for expr in types]
            broad = next(
                (f"except {name}:" for name in names if name in ("Exception", "BaseException")),
                None,
            )
        if broad is not None:
            yield handler, (
                f"{broad} swallows the typed repro.errors taxonomy; catch the "
                "specific errors, or waive with a reason where breadth is the "
                "point (e.g. catch-cancel-reraise cleanup)"
            )


def _public_functions(
    module: ModuleContext,
) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
    """Top-level public functions and public methods of public classes."""

    def walk_body(
        body: List[ast.stmt], owner: Optional[ast.ClassDef]
    ) -> Iterator[Tuple[ast.FunctionDef, Optional[ast.ClassDef]]]:
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield item, owner
            elif isinstance(item, ast.ClassDef) and owner is None:
                if not item.name.startswith("_"):
                    yield from walk_body(item.body, item)
            elif isinstance(item, (ast.If, ast.Try)):
                # conditional definitions (e.g. version guards) still count
                for sub in ast.iter_child_nodes(item):
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield sub, owner

    yield from walk_body(module.tree.body, None)


def check_public_annotations(module: ModuleContext) -> Iterator[Hit]:
    """Public module-level functions and public methods need parameter and
    return annotations: the strict-mypy packages build against them."""
    for function, owner in _public_functions(module):
        if function.name.startswith("_"):
            continue
        where = f"{owner.name}.{function.name}" if owner is not None else function.name
        args = function.args
        missing = [
            arg.arg
            for index, arg in enumerate(args.posonlyargs + args.args + args.kwonlyargs)
            if arg.annotation is None and not (index == 0 and arg.arg in ("self", "cls"))
        ]
        if missing:
            yield function, (
                f"public function {where} has unannotated parameter(s) "
                f"{', '.join(missing)}; the strict-mypy gate needs full "
                "signatures on public APIs"
            )
        if function.returns is None:
            yield function, f"public function {where} is missing its return annotation"


#: Every check the analyzer runs, under its rule code.
CHECKS: Tuple[Tuple[str, Callable[[ModuleContext], Iterator[Hit]]], ...] = (
    ("API001", check_blanket_except),
    ("API003", check_public_annotations),
    ("DET004", check_set_iteration),
    ("NUM002", check_bool_sum_dtype),
    ("NUM003", check_float_equality),
    ("OBS001", check_direct_stopwatch),
)
