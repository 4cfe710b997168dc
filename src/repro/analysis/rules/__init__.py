"""Builtin rule families.

* :mod:`repro.analysis.rules.determinism` — ``DET``: unseeded randomness,
  time-derived values, unordered-set iteration.
* :mod:`repro.analysis.rules.numeric` — ``NUM``: gather/reduction ulp
  hazards, boolean accumulations without a dtype, float ``==``.
* :mod:`repro.analysis.rules.registry_contracts` — ``REG``: encoder and
  task-kind registry contracts.
* :mod:`repro.analysis.rules.api_hygiene` — ``API``: blanket exception
  handlers, mutable defaults, missing public type hints.
* :mod:`repro.analysis.rules.observability` — ``OBS``: raw stopwatch
  pairs that belong in ``repro.obs`` spans.
* :mod:`repro.analysis.rules.parallel_safety` — ``PAR`` (project scope):
  worker-side global mutation, unpicklable executor callables, shared
  module-level RNGs, unsanctioned writes to guarded package state.
* :mod:`repro.analysis.rules.imports` — ``IMP`` (project scope):
  module-level import cycles.
* :mod:`repro.analysis.rules.resilience` — ``RES``: unbounded retry
  loops with no attempt counter.

Each module registers its rules on import via
:func:`repro.analysis.registry.register_rule`; the registry imports them
lazily on first resolution.  ``scope="module"`` checks receive a
:class:`~repro.analysis.engine.ModuleContext`, ``scope="project"`` checks
a :class:`~repro.analysis.project.ProjectContext`.
"""
