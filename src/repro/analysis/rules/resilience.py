"""RES — campaign-resilience rules.

Campaign tasks are pure functions of their parameters, so a task that
failed fails again: :mod:`repro.campaign.executor` never retries one,
and re-runs a batch only once after its worker died.  A hand-rolled
recovery loop almost always gets the bounding wrong: ``while True:
pool.submit(...)`` with a ``time.sleep`` and no attempt counter retries
a permanently-failing task forever, turning one bad parameter point into
a hung sweep.

RES001 flags unbounded retry loops: a ``while True`` / ``while 1`` loop
whose body both re-submits work (an executor ``submit``/``run``/
``run_task`` call) or backs off (``time.sleep``) *and* never mentions an
attempt-budget name (``attempt`` / ``retries`` / ``tries`` / ``budget``
/ ``deadline``).  Loops bounded by a real condition (``while queue or
in_flight``, the shape the process executor uses) or iterating ``for
attempt in range(retries + 1)`` are not flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext
from repro.analysis.finding import Finding
from repro.analysis.registry import register_rule
from repro.analysis.rules.common import call_name

#: Identifier fragments that signal the loop carries an attempt budget.
_BUDGET_NAME_FRAGMENTS = ("attempt", "retr", "tries", "budget", "deadline")

#: Call names (suffixes) that mean "this loop re-submits or paces work".
_RESUBMIT_SUFFIXES = (".submit", ".run", ".map")
_RESUBMIT_NAMES = ("time.sleep", "sleep", "run_task")


def _is_while_true(node: ast.While) -> bool:
    test = node.test
    return isinstance(test, ast.Constant) and bool(test.value) and test.value in (True, 1)


def _mentions_budget(node: ast.While) -> bool:
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and any(
            fragment in inner.id.lower() for fragment in _BUDGET_NAME_FRAGMENTS
        ):
            return True
        if isinstance(inner, ast.Attribute) and any(
            fragment in inner.attr.lower() for fragment in _BUDGET_NAME_FRAGMENTS
        ):
            return True
    return False


def _resubmits_work(node: ast.While) -> bool:
    for inner in ast.walk(node):
        if not isinstance(inner, ast.Call):
            continue
        name = call_name(inner)
        if name is None:
            continue
        if name in _RESUBMIT_NAMES or name.endswith(_RESUBMIT_SUFFIXES):
            return True
    return False


@register_rule(
    "RES001",
    summary="unbounded retry loop (while True around submit/sleep with no "
    "attempt budget) — bound it with an attempt counter",
)
def check_unbounded_retry_loop(module: ModuleContext) -> Iterator[Finding]:
    """Flag ``while True`` loops that re-submit work or back off with
    ``time.sleep`` without ever consulting an attempt/retry budget; an
    unbounded loop hangs the sweep on a permanent failure."""
    for node in module.walk(ast.While):
        if not _is_while_true(node):
            continue
        if not _resubmits_work(node):
            continue
        if _mentions_budget(node):
            continue
        yield module.finding(
            "RES001",
            node,
            "while-True loop re-submits work (or sleeps between attempts) "
            "with no attempt budget in sight; a permanently-failing task "
            "spins here forever — bound it with an attempt counter (for "
            "attempt in range(retries + 1))",
        )
