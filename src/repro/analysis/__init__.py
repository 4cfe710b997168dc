"""Static analysis for the repro codebase: determinism, numeric safety,
registry contracts, parallel safety, and API hygiene — enforced at lint
time.

Every result table in this repository must be bit-identical at any
``--jobs``, across cached resumes, and between the batched kernels and
their scalar oracles.  The test suite can only spot-check those
invariants dynamically; this subsystem enforces their preconditions
statically, before the code runs:

* ``DET`` — unseeded randomness, stdlib ``random``, wall-clock values,
  unordered-set iteration (``repro/utils/rng.py`` is the whitelisted home
  of generator construction);
* ``NUM`` — advanced-indexing gathers feeding pairwise reductions (the
  PR-5 1-ulp lesson, now a rule instead of a comment), boolean sums
  without an explicit dtype, float ``==``;
* ``REG`` — the encoder and task-kind registry contracts (batched
  overrides present, signatures matching ``coding/base.py``, literal
  content-addressable task names);
* ``API`` — blanket ``except Exception``, mutable defaults, missing type
  hints on public functions;
* ``OBS`` — raw stopwatch pairs that belong in ``repro.obs`` spans;
* ``RES`` — unbounded retry loops with no attempt counter;
* ``PAR`` — parallel-safety hazards only a whole-program view can see:
  task kinds transitively mutating module globals, closures handed to
  executors, module-level RNGs reached from workers, unsanctioned writes
  to guarded ``repro.memctrl``/``repro.campaign`` state;
* ``IMP`` — module-level import cycles (order-dependent package loads).

The engine runs two passes: per-module AST rules first, then the
project-scope ``PAR``/``IMP`` rules over a
:class:`~repro.analysis.project.ProjectContext` assembled from every
module's summary (symbol tables, import graph, conservative call graph,
transitive global-mutation closure).  Every run is cold and walks each
module's tree once.

Rules register through the same decorator idiom as encoders and task
kinds (:func:`register_rule`, with ``scope="module"`` or
``scope="project"``); the only way to suppress a finding is an inline
``# repro: allow[RULE] reason=...`` waiver (the reason is mandatory).
The CLI is ``python -m repro.analysis`` — see :mod:`repro.analysis.cli`.
"""

from repro.analysis.cli import main
from repro.analysis.engine import (
    ModuleContext,
    analyze_paths,
    analyze_source,
    analyze_sources,
)
from repro.analysis.finding import Finding
from repro.analysis.project import ProjectContext
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
    "ProjectContext",
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
