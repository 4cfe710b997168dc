"""The repository benchmark: host-time cost of the VCC reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload lifetime --seed 0 --seconds 10 --trace 0

Workloads (see ``workloads.py``):

* ``lifetime`` — the default Fig. 11 and Fig. 12 grids (84 cells),
  serially through ``simulate_lifetime``: the figure-scale write path.
* ``coset-replay`` — steady-state wave replay of VCC-256 and RCC-256 on
  a 1024-row encrypted array: candidate scoring in isolation.
* ``paper-jobs2`` — every campaign-backed figure sweep at ``jobs=2`` into
  a fresh result store, then a resumed pass over it.

The benchmark runs whole passes of the workload until ``--seconds`` have
elapsed and reports medians over the passes.  Times are host seconds
scaled to a reference host speed by a calibration loop run between units
of work (``hostclock.py``); the raw seconds are printed next to them.  ``--trace 0`` prints the
end-to-end metrics, measured with no timers installed.  ``--trace 1``
alternates untraced passes with traced ones, where the public entry
points of each layer are wrapped with in-memory timers (``layers.py``),
and prints the per-layer split of the traced passes plus the tracing
overhead.  All times are host times.

Every pass checks its simulated outputs: the digests of all passes (and
of the traced passes) must agree, seed 0 must reproduce the digests in
``reference.json``, and each workload adds its own oracle (``write_line``
for coset-replay, the serial ``jobs=1`` tables for paper-jobs2).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--quick`` shrinks every workload for the self-test (``selftest.py``).
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORKDIR = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"

#: Set-up samples per timed run: this process plus fresh interpreters.
SETUP_PROBES = 4
#: Least share of a traced pass's wall time the layer timers must cover.
COVERAGE_FLOOR = 0.90
COVERED_WORKLOADS = ("lifetime", "coset-replay")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "writes_per_s": "1/s",
    "rcc_writes_per_s": "1/s",
    "vcc_writes_per_s": "1/s",
    "parallel_efficiency": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "coding.encode_s": "s",
    "coding.lines": "count",
    "coding.candidates": "count",
    "coding.ns_per_candidate": "ns",
    "memctrl.replay_s": "s",
    "memctrl.self_s": "s",
    "memctrl.waves": "count",
    "memctrl.lines_per_wave": "lines",
    "memctrl.conflict_cut_frac": "ratio",
    "pcm.read_s": "s",
    "pcm.write_s": "s",
    "pcm.write_calls": "count",
    "pcm.rows_per_write_call": "rows",
    "traces.generate_s": "s",
    "traces.calls": "count",
    "crypto.encrypt_s": "s",
    "crypto.pads": "count",
    "crypto.pad_waste_frac": "ratio",
    "sim.build_s": "s",
    "sim.self_s": "s",
    "sim.writes": "count",
    "campaign.compute_s": "s",
    "campaign.queue_wait_s": "s",
    "campaign.dispatch_s": "s",
    "campaign.transfer_s": "s",
    "campaign.batches": "count",
    "campaign.idle_frac": "ratio",
    "store.put_s": "s",
    "store.get_s": "s",
    "store.resume_s": "s",
    "obs.layer_coverage_frac": "ratio",
    "obs.trace_overhead_frac": "ratio",
}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="short self-test length")
    parser.add_argument(
        "--setup-probe", action="store_true", help="time imports and set-up only, then exit"
    )
    return parser.parse_args(argv)


def _safe_ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(clock: Any, snapshot: Dict[str, Dict[str, Any]], result: Any) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, in raw host seconds.

    ``*.self_s`` and ``crypto.encrypt_s`` are layer self times (the
    layer's wrapped calls minus the wrapped calls made inside them);
    ``sim.self_s`` includes controller construction, which ``sim.build_s``
    reports alone.  ``coding.encode_s``, ``memctrl.replay_s`` and the
    ``pcm`` times are inclusive.  Counts come from the ``repro.obs``
    registry, which also holds the merged counters of pool workers; the
    timers only see this process, so layers that run in pool workers read
    0 on paper-jobs2, as the campaign and store layers do on the
    in-process workloads.
    """

    def count(name: str) -> float:
        return float(snapshot.get(name, {}).get("value", 0))

    wave_lines = snapshot.get("replay.wave_lines", {})
    encode_s = clock.inclusive_s["coding.encode"]
    candidates = count("encode.candidates")
    waves = count("replay.waves")
    pads = count("crypto.pads")
    write_calls = clock.calls["pcm.write"]
    campaign = result.campaign
    idle_base = result.workers * campaign.get("campaign_wall_s", 0.0)
    return {
        "coding.encode_s": encode_s,
        "coding.lines": float(wave_lines.get("total", 0.0)),
        "coding.candidates": candidates,
        "coding.ns_per_candidate": _safe_ratio(encode_s * 1e9, candidates),
        "memctrl.replay_s": clock.inclusive_s["memctrl.replay"],
        "memctrl.self_s": clock.layer_self_s("memctrl"),
        "memctrl.waves": waves,
        "memctrl.lines_per_wave": _safe_ratio(float(wave_lines.get("total", 0.0)), waves),
        "memctrl.conflict_cut_frac": _safe_ratio(count("replay.conflict_cuts"), waves),
        "pcm.read_s": clock.inclusive_s["pcm.read"],
        "pcm.write_s": clock.inclusive_s["pcm.write"],
        "pcm.write_calls": float(write_calls),
        "pcm.rows_per_write_call": _safe_ratio(clock.items["pcm.write"], write_calls),
        "traces.generate_s": clock.inclusive_s["traces.generate"],
        "traces.calls": float(clock.calls["traces.generate"]),
        "crypto.encrypt_s": clock.layer_self_s("crypto"),
        "crypto.pads": pads,
        "crypto.pad_waste_frac": _safe_ratio(count("crypto.rolled_back_counters"), pads),
        "sim.build_s": clock.inclusive_s["sim.build"],
        "sim.self_s": clock.layer_self_s("sim"),
        "sim.writes": float(clock.items["sim.lifetime"]),
        "campaign.compute_s": campaign.get("compute_s", 0.0),
        "campaign.queue_wait_s": campaign.get("queue_wait_s", 0.0),
        "campaign.dispatch_s": campaign.get("dispatch_s", 0.0),
        "campaign.transfer_s": campaign.get("transfer_s", 0.0),
        "campaign.batches": campaign.get("batches", 0.0),
        "campaign.idle_frac": (
            1.0 - campaign.get("compute_s", 0.0) / idle_base if idle_base else 0.0
        ),
        "store.put_s": clock.inclusive_s["store.put"],
        "store.get_s": clock.inclusive_s["store.get"],
        "store.resume_s": campaign.get("resume_s", 0.0),
        "obs.layer_coverage_frac": clock.total_self_s() / result.raw_wall_s,
    }


def setup_probes(args: argparse.Namespace) -> List[float]:
    """Set-up time of fresh interpreters: imports plus workload construction."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
            ]
            + (["--quick"] if args.quick else []),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, in MiB.

    Pool workers are not counted: their peak follows which tasks each
    one happened to run.  The in-process workloads run the same code.
    """
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))

    import repro.obs as obs
    from hostclock import REFERENCE_S, calibration_s
    from hostinfo import host_metadata
    from layers import LayerClock, traced
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of {WORKLOADS}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.seed, args.quick, WORKDIR)
    workload.prepare()
    raw_setup_s = time.perf_counter() - START
    setup_s = raw_setup_s * REFERENCE_S / calibration_s()
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    setup_samples = [setup_s] + (setup_probes(args) if args.trace == 0 else [])

    untraced: List[Any] = []
    traced_passes: List[Any] = []
    layer_samples: List[Dict[str, float]] = []
    begin = time.perf_counter()
    while not untraced or time.perf_counter() - begin < args.seconds:
        workload.prepare()
        untraced.append(workload.run_pass())
        if args.trace:
            workload.prepare()
            clock = LayerClock()
            obs.reset_metrics()
            with traced(clock):
                result = workload.run_pass()
            traced_passes.append(result)
            layer_samples.append(layer_metrics(clock, obs.metrics_snapshot(), result))

    rss_mb = peak_rss_mb()

    # ---- output checks (outside every timed region)
    attempted, failed = workload.check(untraced)
    mode = "quick" if args.quick else "full"
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")).get(mode, {})
    expected = reference.get(args.workload) if args.seed == 0 else None
    if expected is None:
        expected = untraced[0].digest
    for result in untraced + traced_passes:
        attempted += result.operations
        failed += result.failed
        if result.digest != expected:
            failed += result.operations
    if args.trace and args.workload in COVERED_WORKLOADS:
        attempted += len(layer_samples)
        failed += sum(s["obs.layer_coverage_frac"] < COVERAGE_FLOOR for s in layer_samples)

    if args.trace:
        metrics = {
            name: statistics.mean(sample[name] for sample in layer_samples)
            for name in layer_samples[0]
        }
        metrics["obs.trace_overhead_frac"] = (
            statistics.median(r.wall_s for r in traced_passes)
            / statistics.median(r.wall_s for r in untraced)
            - 1.0
        )
        units = PER_LAYER_UNITS
    else:
        rates = workload.technique_rates(untraced)
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(r.wall_s for r in untraced),
            "writes_per_s": statistics.median(r.writes / r.wall_s for r in untraced),
            "rcc_writes_per_s": rates["rcc"],
            "vcc_writes_per_s": rates["vcc"],
            "parallel_efficiency": statistics.median(
                r.compute_s / (r.workers * r.raw_wall_s) for r in untraced
            ),
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS

    print(f"workload {args.workload}, seed {args.seed}, {mode} length, trace {args.trace}")
    print(
        f"passes: {len(untraced)} untraced, {len(traced_passes)} traced; untraced walls "
        + ", ".join(f"{r.wall_s:.3f}" for r in untraced)
        + " s scaled, "
        + ", ".join(f"{r.raw_wall_s:.3f}" for r in untraced)
        + " s raw"
    )
    print("set-up samples " + ", ".join(f"{sample:.3f}" for sample in setup_samples) + " s scaled")
    print("host " + json.dumps(host_metadata(ROOT), sort_keys=True))
    print("digest " + json.dumps(untraced[0].digest, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:16.6f} {unit}")
    print(f"  {'failed_frac':28s} {failed / attempted:16.6f} ratio ({failed} of {attempted})")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
