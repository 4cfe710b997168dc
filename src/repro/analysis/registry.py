"""Decorator-driven registry of analysis rules.

Mirrors the encoder registry (:mod:`repro.coding.registry`) and the task
registry (:mod:`repro.campaign.tasks`): a rule registers itself by
decorating its check function, builtin rule modules are imported lazily
on first resolution, and everything resolves by code::

    from repro.analysis.registry import register_rule

    @register_rule("DET009", summary="forbid frobnication")
    def check_frobnication(module):
        for node in module.walk(ast.Call):
            ...
            yield module.finding("DET009", node, "do not frobnicate")

A check function receives one :class:`repro.analysis.engine.ModuleContext`
and yields :class:`repro.analysis.finding.Finding` objects; the engine
runs it on each module in turn and handles waivers and ordering.  A rule
sees one module at a time: there is no whole-program view.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Sequence

from repro.analysis.finding import Finding
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - annotation only; the engine imports this module
    from repro.analysis.engine import ModuleContext

__all__ = [
    "RuleSpec",
    "available_rules",
    "get_rule",
    "register_rule",
    "rule_specs",
    "unregister_rule",
]

#: Modules whose import registers the builtin rules (lazily, mirroring the
#: encoder and task-kind registries).
_BUILTIN_MODULES = (
    "repro.analysis.rules.determinism",
    "repro.analysis.rules.numeric",
    "repro.analysis.rules.registry_contracts",
    "repro.analysis.rules.api_hygiene",
    "repro.analysis.rules.observability",
    "repro.analysis.rules.resilience",
)

_builtins_loaded = False

CheckFunction = Callable[["ModuleContext"], Iterable[Finding]]


@dataclass(frozen=True)
class RuleSpec:
    """One registered analysis rule.

    Attributes
    ----------
    code:
        Rule code, e.g. ``DET001``; the leading letters are the family.
    summary:
        One-line description shown in the rule catalog.
    check:
        A function mapping a :class:`~repro.analysis.engine.ModuleContext`
        to findings.
    doc:
        Longer description rendered by ``python -m repro.analysis rules``;
        defaults to the check function's docstring.
    """

    code: str
    summary: str
    check: CheckFunction
    doc: str = ""

    @property
    def family(self) -> str:
        """The rule family prefix (letters before the rule number)."""
        return self.code.rstrip("0123456789")


_RULES: Dict[str, RuleSpec] = {}


def register_rule(
    code: str, *, summary: str = ""
) -> Callable[[CheckFunction], CheckFunction]:
    """Function decorator registering an analysis rule under ``code``."""
    key = code.upper()
    if not key or not key[0].isalpha():
        raise ConfigurationError(f"rule code {code!r} must start with a family letter")

    def decorator(check: CheckFunction) -> CheckFunction:
        if key in _RULES:
            raise ConfigurationError(f"rule {key!r} is already registered")
        doc = (check.__doc__ or "").strip()
        _RULES[key] = RuleSpec(code=key, summary=summary, check=check, doc=doc)
        return check

    return decorator


def unregister_rule(code: str) -> None:
    """Remove a rule (for tests and plugin replacement)."""
    _ensure_builtins()
    key = code.upper()
    if key not in _RULES:
        raise ConfigurationError(f"unknown rule {code!r}")
    del _RULES[key]


def _ensure_builtins() -> None:
    global _builtins_loaded
    if _builtins_loaded:
        return
    for module in _BUILTIN_MODULES:
        importlib.import_module(module)
    _builtins_loaded = True


def rule_specs() -> List[RuleSpec]:
    """All registered rules, sorted by code."""
    _ensure_builtins()
    return [_RULES[code] for code in sorted(_RULES)]


def available_rules() -> List[str]:
    """Codes of every registered rule, sorted."""
    return [spec.code for spec in rule_specs()]


def get_rule(code: str) -> RuleSpec:
    """Resolve a (case-insensitive) rule code."""
    _ensure_builtins()
    spec = _RULES.get(code.upper())
    if spec is None:
        raise ConfigurationError(
            f"unknown rule {code!r}; available: {', '.join(available_rules())}"
        )
    return spec


def select_rules(
    select: Optional[Sequence[str]] = None, ignore: Optional[Sequence[str]] = None
) -> List[RuleSpec]:
    """Resolve ``--select`` / ``--ignore`` tokens to the rules to run.

    Tokens are full codes (``DET001``) or family prefixes (``DET``),
    case-insensitive.  ``select`` defaults to every registered rule;
    ``ignore`` wins over ``select``.  Unknown tokens raise so typos do not
    silently disable a gate.
    """
    specs = rule_specs()
    known = {spec.code for spec in specs} | {spec.family for spec in specs}

    def check_tokens(tokens: Sequence[str], flag: str) -> List[str]:
        upper = [token.upper() for token in tokens]
        unknown = [token for token in upper if token not in known]
        if unknown:
            raise ConfigurationError(
                f"unknown {flag} token(s) {', '.join(unknown)}; "
                f"expected rule codes or families from: {', '.join(sorted(known))}"
            )
        return upper

    selected = check_tokens(list(select), "--select") if select else None
    ignored = check_tokens(list(ignore), "--ignore") if ignore else []

    def matches(spec: RuleSpec, tokens: Sequence[str]) -> bool:
        return any(token in (spec.code, spec.family) for token in tokens)

    return [
        spec
        for spec in specs
        if (selected is None or matches(spec, selected)) and not matches(spec, ignored)
    ]
