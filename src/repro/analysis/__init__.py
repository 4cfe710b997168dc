"""Static analysis for the repro codebase: determinism, numeric safety,
registry contracts, and API hygiene — enforced at lint time.

Every result table in this repository must be bit-identical at any
``--jobs``, across cached resumes, and between the batched kernels and
their scalar oracles.  The test suite checks those invariants at run
time (CI's always-enforced parity and determinism step compares every
figure sweep at ``jobs=1`` and ``jobs=4``); this subsystem enforces the
per-module preconditions statically, before the code runs:

* ``DET`` — unseeded randomness, stdlib ``random``, wall-clock values,
  unordered-set iteration (``repro/utils/rng.py`` is the whitelisted home
  of generator construction);
* ``NUM`` — boolean sums without an explicit dtype, float ``==``;
* ``REG`` — the encoder and task-kind registry contracts (batched
  overrides present, signatures matching ``coding/base.py``, literal
  content-addressable task names);
* ``API`` — blanket ``except Exception``, mutable defaults, missing type
  hints on public functions;
* ``OBS`` — raw stopwatch pairs that belong in ``repro.obs`` spans;
* ``RES`` — unbounded retry loops with no attempt counter.

The engine runs one pass: each module is parsed and every selected rule
runs on it alone.  Every run is cold and walks each module's tree once.

Rules register through the same decorator idiom as encoders and task
kinds (:func:`register_rule`); the only way to suppress a finding is an
inline ``# repro: allow[RULE] reason=...`` waiver (the reason is
mandatory).  The CLI is ``python -m repro.analysis`` — see
:mod:`repro.analysis.cli`.
"""

from repro.analysis.cli import main
from repro.analysis.engine import (
    ModuleContext,
    analyze_paths,
    analyze_source,
    analyze_sources,
)
from repro.analysis.finding import Finding
from repro.analysis.registry import (
    RuleSpec,
    available_rules,
    register_rule,
    rule_specs,
    unregister_rule,
)

__all__ = [
    "Finding",
    "ModuleContext",
    "RuleSpec",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "available_rules",
    "main",
    "register_rule",
    "rule_specs",
    "unregister_rule",
]
