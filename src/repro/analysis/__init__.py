"""Static analysis for the hazards no enforced test can see.

Every result table in this repository must be bit-identical at any
``--jobs``, across cached resumes, and between the batched kernels and
their scalar oracles.  CI enforces that at run time: every figure sweep
must give the same rows at ``jobs=1`` and ``jobs=4`` and resume from a
store with zero executions, and every replay must match the
``write_line`` oracle.  A broken encoder or task-kind plugin fails when
its registry decorator runs.  This package keeps only the checks those
gates cannot make (:mod:`repro.analysis.rules`): set iteration order
(``DET004``), boolean sums without a dtype and float ``==``
(``NUM002``/``NUM003``), raw stopwatch clocks (``OBS001``), and blanket
``except`` handlers and unannotated public functions
(``API001``/``API003``).

One pass, no options: ``python -m repro.analysis PATH...`` prints one
line per finding and exits 0 (no findings), 1 (findings) or 2 (usage or
path error).  The only way to suppress a finding is an inline
``# repro: allow[<CODE>] reason=...`` waiver (:mod:`repro.analysis.waivers`).
"""

from repro.analysis.engine import Finding, analyze_paths, analyze_source, main

__all__ = ["Finding", "analyze_paths", "analyze_source", "main"]
