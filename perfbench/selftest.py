"""Self-test of the benchmark, on the short (``--quick``) length of each workload.

For every workload, untraced and traced, it runs the real command line
and checks that the run is correct, that seed 0 reproduces the committed
quick digests, that the metric names and units are exactly those
``BENCHMARK.json`` declares, and that the traced run's layer timers cover
at least 90% of the wall time where the workload runs in-process.  It
also checks that the benchmark fails, printing no result, in a directory
holding only ``BENCHMARK.json`` and the benchmark.

Run either way::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("lifetime", "coset-replay", "paper-jobs2")
COVERED = ("lifetime", "coset-replay")


def _declared(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _run(workload: str, trace: int, cwd: Path = ROOT) -> Tuple[int, str]:
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "0",
            "--seconds",
            "1",
            "--trace",
            str(trace),
            "--quick",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return completed.returncode, completed.stdout


def _check_run(workload: str, trace: int) -> Dict[str, Any]:
    code, stdout = _run(workload, trace)
    assert code == 0, stdout
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    reference = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))
    printed = next(line for line in lines if line.startswith("digest "))
    assert json.loads(printed[len("digest "):]) == reference["quick"][workload]

    declared = _declared("per_layer" if trace else "end_to_end")
    units = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert units == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float) and math.isfinite(entry["value"])
    return result["metrics"]


def test_untraced_runs() -> None:
    for workload in WORKLOADS:
        metrics = _check_run(workload, trace=0)
        for name, entry in metrics.items():
            assert entry["value"] > 0, (workload, name)


def test_traced_runs() -> None:
    for workload in WORKLOADS:
        metrics = _check_run(workload, trace=1)
        if workload in COVERED:
            assert metrics["obs.layer_coverage_frac"]["value"] >= 0.9, workload
            assert metrics["coding.encode_s"]["value"] > 0, workload


def test_fails_without_the_program() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        code, stdout = _run("lifetime", 0, cwd=bare)
    assert code != 0
    assert not stdout.strip()


if __name__ == "__main__":
    for test in (test_untraced_runs, test_traced_runs, test_fails_without_the_program):
        test()
        print(f"{test.__name__}: ok")
