"""Shared helpers for the performance benchmarks.

Every ``bench_*.py`` that measures throughput writes a machine-readable
``BENCH_<name>.json`` next to the human-readable output so the perf
trajectory can be tracked across PRs (and uploaded as a CI artifact):

* ``name`` / ``created_unix`` identify the measurement;
* ``host`` stamps the machine the numbers came from (core count,
  platform, python/numpy versions, BLAS library and thread count) so
  trajectories are comparable across runners;
* ``config`` records the knobs the numbers depend on (geometry, writes,
  encoder settings);
* ``results`` holds the measured throughputs and speedups;
* ``metrics`` is the process's :mod:`repro.obs` registry snapshot at
  write time — wave counts, candidate evaluations, cache hits — so a
  perf regression arrives with an explanation attached.

The files land in ``benchmarks/results/`` like the figure outputs.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Any, Dict

import numpy as np

from repro import obs
from repro.utils.blas import blas_info

__all__ = ["host_metadata", "write_bench_json", "RESULTS_DIR"]

#: Output directory shared with the figure benchmarks.
RESULTS_DIR = Path(__file__).resolve().parent / "results"


def host_metadata() -> Dict[str, Any]:
    """The host facts a benchmark number depends on."""
    blas_library, blas_threads = blas_info()
    return {
        "cpu_count": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_library": blas_library,
        "blas_threads": blas_threads,
    }


def write_bench_json(
    name: str, config: Dict[str, Any], results: Dict[str, Any]
) -> Path:
    """Write ``BENCH_<name>.json`` and return its path.

    The payload is small and flat on purpose: one file per benchmark run,
    overwritten in place, so diffing two checkouts (or two CI artifacts)
    shows the perf movement directly.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    payload = {
        "name": name,
        "created_unix": int(time.time()),
        "cpu_count": os.cpu_count() or 1,
        "host": host_metadata(),
        "config": config,
        "results": results,
        "metrics": obs.metrics_snapshot(),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
