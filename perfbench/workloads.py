"""The benchmark's three workloads.

Each workload is built from the benchmark seed alone and exposes:

* ``prepare()`` — per-pass construction, untimed: fresh controllers,
  cold per-process memos, a fresh result store.  Idempotent until the
  next pass consumes it.
* ``run_pass()`` — one timed pass over the prepared state; the returned
  :class:`PassResult` carries the host time, the simulated work done
  and a digest of every simulated output of the pass.
* ``check(passes)`` — output checks made outside the timed region (the
  ``write_line`` oracle, the serial campaign reference), returning how
  many operations were checked and how many failed.
* ``technique_rates(passes)`` — RCC and VCC line writes per host second:
  medians over the passes, except on paper-jobs2 (see there).

Passes are timed with :class:`hostclock.HostClock`: host seconds scaled
to a reference host speed, with the raw seconds kept alongside.

Simulated statistics (writes to failure, energy, SAW) are checked, never
reported as metrics: the model has no hardware reference here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.obs as obs
from repro.campaign.engine import CampaignProgress, last_campaign_telemetry
from repro.campaign.spec import Task
from repro.campaign.tasks import run_task
from repro.experiments.registry import run_experiment
from repro.memctrl.controller import MemoryController, ReplayResult
from repro.pcm.cell import CellTechnology
from repro.pcm.faultmap import FaultMap
from repro.sim.harness import TechniqueSpec, build_controller, cached_fault_map, cached_trace
from repro.sim.lifetime_sim import (
    DEFAULT_BENCHMARKS,
    DEFAULT_LIFETIME_TECHNIQUES,
    LifetimeStudyConfig,
    simulate_lifetime,
)
from repro.traces.synthetic import generate_trace
from repro.traces.trace import Trace
from repro.utils.rng import derive_seed

from hostclock import HostClock

__all__ = ["PassResult", "WORKLOADS", "make_workload"]

#: Seeds the figures use by default; benchmark seed ``s`` offsets each by
#: ``s``, so seed 0 reproduces the paper tables and the committed digests.
LIFETIME_SEED = 11
FIGURE_SEEDS = {"fig2": 7, "fig7": 2022, "fig8": 7, "fig9": 2022, "fig10": 7}

#: The replay accounting arrays that make up a coset-replay digest.
REPLAY_FIELDS = (
    "addresses",
    "row_indices",
    "data_energy_pj",
    "aux_energy_pj",
    "cells_changed",
    "bits_changed",
    "saw_cells",
    "saw_bits_per_word",
    "newly_stuck_cells",
)


def digest(payload: Any) -> str:
    """SHA-256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _technique(encoder: str) -> Optional[str]:
    """``"rcc"``/``"vcc"`` for the coset techniques with a per-technique rate."""
    if encoder == "rcc":
        return "rcc"
    if encoder in ("vcc", "vcc-stored"):
        return "vcc"
    return None


def _clear_memos() -> None:
    cached_trace.cache_clear()
    cached_fault_map.cache_clear()


def _encrypted_writes() -> int:
    """Line writes performed so far: pads derived minus pads rolled back.

    Every write of every sweep is encrypted, so this counts the writes of
    worker processes too once their metrics merge into this process.
    """
    return obs.counter("crypto.pads").value - obs.counter("crypto.rolled_back_counters").value


@dataclasses.dataclass
class PassResult:
    """Host time and simulated work of one timed pass."""

    #: Host seconds of the pass, scaled to the reference host speed.
    wall_s: float
    #: Raw host seconds of the pass.
    raw_wall_s: float
    #: Simulated line writes performed in the pass.
    writes: int
    #: Operations whose outputs the pass checked (cells, replays, tasks).
    operations: int
    #: Digest of every simulated output of the pass.
    digest: Any
    #: Summed raw host time of the pass's units of work, and the workers
    #: they ran on: ``compute_s / (workers * raw_wall_s)`` is the
    #: efficiency (for a serial workload, 1 minus the benchmark's own
    #: overhead between units).
    compute_s: float
    workers: int = 1
    #: Per technique: (line writes, scaled host seconds).
    techniques: Dict[str, Tuple[int, float]] = dataclasses.field(default_factory=dict)
    #: Operations of the pass that failed or whose outputs mismatched.
    failed: int = 0
    #: Campaign phase totals (paper-jobs2 only).
    campaign: Dict[str, float] = dataclasses.field(default_factory=dict)


def _rates(passes: Sequence[PassResult]) -> Dict[str, float]:
    """Median per-pass writes per host second of each technique."""
    return {
        name: statistics.median(
            p.techniques[name][0] / p.techniques[name][1] for p in passes
        )
        for name in ("rcc", "vcc")
    }


# ------------------------------------------------------------------ lifetime
class Lifetime:
    """The default Fig. 11 and Fig. 12 grids, serially through simulate_lifetime.

    The figure-scale write path: early-stop predicate, sequential apply,
    short waves, one uncached trace per cell, pad rollbacks, and the
    identity path for the unencoded baselines.  No campaign layer.
    """

    name = "lifetime"

    def __init__(self, seed: int, quick: bool) -> None:
        self.config = LifetimeStudyConfig(seed=LIFETIME_SEED + seed)
        fig11 = [
            (dataclasses.replace(spec, num_cosets=256), benchmark)
            for benchmark in DEFAULT_BENCHMARKS
            for spec in DEFAULT_LIFETIME_TECHNIQUES
        ]
        fig12 = [
            (dataclasses.replace(spec, num_cosets=cosets), benchmark)
            for cosets in (32, 64, 128, 256)
            for spec in DEFAULT_LIFETIME_TECHNIQUES
            for benchmark in ("lbm", "mcf")
        ]
        self.cells: List[Tuple[TechniqueSpec, str]] = fig11[:7] if quick else fig11 + fig12

    def prepare(self) -> None:
        _clear_memos()

    def run_pass(self) -> PassResult:
        clock = HostClock()
        cells = [
            (spec, benchmark, *clock.call(simulate_lifetime, spec, benchmark, self.config))
            for spec, benchmark in self.cells
        ]
        clock.stop()
        techniques: Dict[str, Tuple[int, float]] = {"rcc": (0, 0.0), "vcc": (0, 0.0)}
        for spec, _, outcome, unit in cells:
            technique = _technique(spec.encoder)
            if technique is not None:
                writes, seconds = techniques[technique]
                techniques[technique] = (writes + outcome.writes, seconds + clock.unit_s(unit))
        outcomes = [
            [spec.display_name(), benchmark, spec.num_cosets, outcome.writes, outcome.censored]
            for spec, benchmark, outcome, _ in cells
        ]
        return PassResult(
            wall_s=clock.wall_s(),
            raw_wall_s=clock.wall_s(scaled=False),
            writes=sum(row[3] for row in outcomes),
            operations=len(outcomes),
            digest=digest(outcomes),
            compute_s=clock.units_s(scaled=False),
            techniques=techniques,
        )

    def check(self, passes: Sequence[PassResult]) -> Tuple[int, int]:
        return 0, 0

    def technique_rates(self, passes: Sequence[PassResult]) -> Dict[str, float]:
        return _rates(passes)


# -------------------------------------------------------------- coset-replay
class CosetReplay:
    """Steady-state wave replay of VCC-256 and RCC-256 (saw-then-energy).

    The encode-batch geometry: 1024 rows, an encrypted bwaves trace and a
    1e-2 fault map, with no stop predicate, so waves run near full width
    and candidate scoring dominates.  Each repetition of the trace is one
    ``replay_trace`` call, VCC and RCC taking turns, so both techniques
    see the same stretches of host speed and the clock calibrates often.
    """

    name = "coset-replay"
    ROWS = 1024
    TRACE_WRITEBACKS = 1500
    #: Writes of the prefix checked against the scalar write_line oracle.
    ORACLE_WRITES = 64
    SPECS = (
        ("vcc", TechniqueSpec(encoder="vcc", cost="saw-then-energy", num_cosets=256)),
        ("rcc", TechniqueSpec(encoder="rcc", cost="saw-then-energy", num_cosets=256)),
    )

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = derive_seed(LIFETIME_SEED + seed, "lifetime-bwaves")
        self.repetitions = 1 if quick else 3
        self.trace: Trace = generate_trace(
            "bwaves",
            num_writebacks=self.TRACE_WRITEBACKS,
            memory_lines=self.ROWS,
            line_bits=512,
            word_bits=64,
            seed=derive_seed(self.seed, "trace"),
        )
        self._prepared: Optional[Dict[str, MemoryController]] = None
        self._first: Dict[str, ReplayResult] = {}

    def _controllers(self) -> Dict[str, MemoryController]:
        controllers = {}
        for label, spec in self.SPECS:
            fault_map = FaultMap(
                rows=self.ROWS,
                cells_per_row=256,
                technology=CellTechnology.MLC,
                fault_rate=1e-2,
                seed=self.seed,
            )
            controllers[label] = build_controller(
                spec, rows=self.ROWS, fault_map=fault_map, seed=self.seed, encrypt=True
            )
        return controllers

    def prepare(self) -> None:
        if self._prepared is None:
            self._prepared = self._controllers()

    def run_pass(self) -> PassResult:
        controllers, self._prepared = self._prepared, None
        assert controllers is not None, "prepare() before every pass"
        clock = HostClock()
        calls: Dict[str, List[Tuple[ReplayResult, int]]] = {label: [] for label in controllers}
        for _ in range(self.repetitions):
            for label, controller in controllers.items():
                calls[label].append(clock.call(controller.replay_trace, self.trace))
        clock.stop()
        digests = {}
        techniques = {}
        for label, parts in calls.items():
            digests[label] = hashlib.sha256(
                b"".join(
                    np.concatenate([getattr(replay, field) for replay, _ in parts]).tobytes()
                    for field in REPLAY_FIELDS
                )
            ).hexdigest()
            techniques[label] = (
                sum(replay.writes for replay, _ in parts),
                sum(clock.unit_s(unit) for _, unit in parts),
            )
            self._first.setdefault(label, parts[0][0])
        return PassResult(
            wall_s=clock.wall_s(),
            raw_wall_s=clock.wall_s(scaled=False),
            writes=sum(writes for writes, _ in techniques.values()),
            operations=sum(len(parts) for parts in calls.values()),
            digest=digests,
            compute_s=clock.units_s(scaled=False),
            techniques=techniques,
        )

    def check(self, passes: Sequence[PassResult]) -> Tuple[int, int]:
        """The first writes of each timed replay against the write_line oracle."""
        failed = 0
        for label, controller in self._controllers().items():
            replay = self._first[label]
            for index, record in enumerate(self.trace.records[: self.ORACLE_WRITES]):
                oracle = controller.write_line(record.address, list(record.words))
                failed += replay.line_result(index) != oracle
        return 2 * self.ORACLE_WRITES, failed

    def technique_rates(self, passes: Sequence[PassResult]) -> Dict[str, float]:
        return _rates(passes)


# --------------------------------------------------------------- paper-jobs2
class PaperJobs2:
    """Every campaign-backed figure sweep at ``jobs=2`` into a fresh store,
    then a resumed pass over the same store.

    The only workload on the worker pool, batching, store writes and (on
    the resume pass) store reads; its fig7 and fig9 sweeps drive coding
    with energy-first objectives the other workloads never use.
    """

    name = "paper-jobs2"
    JOBS = 2
    FIGURES = ("fig1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13")
    QUICK_FIGURES = ("fig1", "fig7", "fig8", "fig13")
    #: Host seconds spent re-running fig7's RCC and VCC cells for the
    #: per-technique rates (at least three repeats).
    RATE_SECONDS = 4.0

    def __init__(self, seed: int, quick: bool, workdir: Path) -> None:
        self.figures = self.QUICK_FIGURES if quick else self.FIGURES
        self.kwargs: Dict[str, Dict[str, Any]] = {figure: {} for figure in self.figures}
        for figure, base in FIGURE_SEEDS.items():
            if figure in self.kwargs:
                self.kwargs[figure]["seed"] = base + seed
        for figure in ("fig11", "fig12"):
            if figure in self.kwargs:
                self.kwargs[figure]["config"] = LifetimeStudyConfig(seed=LIFETIME_SEED + seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self._store: Optional[Path] = None
        self._passes = 0
        self._serial: Optional[Dict[str, str]] = None
        self._rate_tasks: List[Tuple[str, Task]] = []

    def _sweep(self, figure: str, **kwargs: Any) -> str:
        table = run_experiment(figure, **self.kwargs[figure], **kwargs)
        return digest(json.loads(table.to_json()))

    def prepare(self) -> None:
        _clear_memos()
        if self._store is None:
            # Named, not created: the store makes its directories on its
            # first write, so a set-up probe that runs no pass leaves
            # nothing behind.
            self._passes += 1
            self._store = self.workdir / f"store-{os.getpid()}-{self._passes}"
            shutil.rmtree(self._store, ignore_errors=True)

    def run_pass(self) -> PassResult:
        """First pass into a fresh store, then the resumed pass over it.

        Operations are the tasks the first pass runs plus one per resumed
        sweep.  A task surrendered as a failure fails; a resumed sweep
        fails when it runs any task or reproduces a different table.
        """
        store, self._store = self._store, None
        assert store is not None, "prepare() before every pass"
        ran: List[int] = []

        def progress(event: CampaignProgress) -> None:
            ran.append(not event.from_cache)

        phases = dict.fromkeys(("compute_s", "queue_wait_s", "dispatch_s", "transfer_s"), 0.0)
        phases.update(campaign_wall_s=0.0, batches=0.0)
        degraded = 0
        first: Dict[str, str] = {}
        resumed_ran: Dict[str, int] = {}
        resumed: Dict[str, str] = {}
        writes_before = _encrypted_writes()
        resume_units = []
        try:
            clock = HostClock()
            for figure in self.figures:
                first[figure], _ = clock.call(
                    self._sweep, figure, jobs=self.JOBS, store_dir=store, progress=progress
                )
                telemetry = last_campaign_telemetry()
                assert telemetry is not None
                for field in ("compute_s", "queue_wait_s", "dispatch_s", "transfer_s"):
                    phases[field] += getattr(telemetry, field)
                phases["campaign_wall_s"] += telemetry.wall_s
                phases["batches"] += telemetry.batches
                degraded += telemetry.degraded
            first_tasks = sum(ran)
            for figure in self.figures:
                before = sum(ran)
                resumed[figure], unit = clock.call(
                    self._sweep, figure, jobs=self.JOBS, store_dir=store, progress=progress
                )
                resume_units.append(unit)
                resumed_ran[figure] = sum(ran) - before
            clock.stop()
        finally:
            shutil.rmtree(store, ignore_errors=True)
        phases["resume_s"] = sum(clock.unit_s(unit) for unit in resume_units)
        bad_resumes = sum(
            resumed_ran[figure] > 0 or resumed[figure] != first[figure] for figure in self.figures
        )
        return PassResult(
            wall_s=clock.wall_s(),
            raw_wall_s=clock.wall_s(scaled=False),
            writes=_encrypted_writes() - writes_before,
            operations=first_tasks + len(self.figures),
            digest=first,
            compute_s=phases["compute_s"],
            workers=self.JOBS,
            failed=degraded + bad_resumes,
            campaign=phases,
        )

    def serial_reference(self) -> Dict[str, str]:
        """Table digests of the same sweeps at ``jobs=1``: the oracle for ``jobs=2``.

        Also keeps fig7's RCC and VCC cells for :meth:`technique_rates`.
        """
        if self._serial is None:
            _clear_memos()

            def progress(event: CampaignProgress) -> None:
                technique = _technique(str(event.task.params.get("encoder", "")))
                if event.task.kind == "fig7-energy-cell" and technique is not None:
                    self._rate_tasks.append((technique, event.task))

            self._serial = {
                figure: self._sweep(figure, jobs=1, progress=progress) for figure in self.figures
            }
        return self._serial

    def check(self, passes: Sequence[PassResult]) -> Tuple[int, int]:
        """Every jobs-2 table against the serial tables of the same seed."""
        serial = self.serial_reference()
        failed = sum(
            p.digest[figure] != serial[figure] for p in passes for figure in self.figures
        )
        return len(passes) * len(self.figures), failed

    def technique_rates(self, passes: Sequence[PassResult]) -> Dict[str, float]:
        """RCC and VCC random-line writes per host second (energy objective).

        The jobs-2 passes run every task in a worker process, where one
        technique's time cannot be told apart from outside.  So fig7's RCC
        and VCC cells, the sweeps' random-line coding path, run again
        serially, with cold memos, for ``RATE_SECONDS``; the median over
        the repeats is reported.
        """
        self.serial_reference()
        samples: Dict[str, List[float]] = {"rcc": [], "vcc": []}
        begin = time.perf_counter()
        while len(samples["rcc"]) < 3 or time.perf_counter() - begin < self.RATE_SECONDS:
            _clear_memos()
            clock = HostClock()
            units = []
            for technique, task in self._rate_tasks:
                before = _encrypted_writes()
                _, unit = clock.call(run_task, task)
                units.append((technique, _encrypted_writes() - before, unit))
            clock.stop()
            for name, rates in samples.items():
                writes = sum(count for owner, count, _ in units if owner == name)
                seconds = sum(clock.unit_s(unit) for owner, _, unit in units if owner == name)
                rates.append(writes / seconds)
        return {name: statistics.median(rates) for name, rates in samples.items()}


WORKLOADS = ("lifetime", "coset-replay", "paper-jobs2")


def make_workload(name: str, seed: int, quick: bool, workdir: Path):
    """Build one workload from the benchmark seed."""
    if name == "lifetime":
        return Lifetime(seed, quick)
    if name == "coset-replay":
        return CosetReplay(seed, quick)
    if name == "paper-jobs2":
        return PaperJobs2(seed, quick, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
