"""Stacked lifetime cells against the same cells run alone.

The cells of one (config, benchmark, repetition, fault model) share the
trace, the ciphertext stream and the endurance landscape, so
:func:`repro.sim.lifetime_sim.simulate_lifetimes` replays them as the
bands of one stacked replay.  Each stacked cell must yield exactly its
solo :class:`LifetimeOutcome` and end in exactly its solo controller
state: array cells, wear, stuck masks, auxiliary store, encryption
counters and running stats.
"""

import dataclasses

import numpy as np
import pytest

import repro.obs as obs
from repro.experiments.registry import _EXPERIMENTS
from repro.sim.lifetime_sim import (
    DEFAULT_LIFETIME_TECHNIQUES,
    LifetimeOutcome,
    LifetimeStudyConfig,
    _lifetime_replays,
    lifetime_table,
    mean_lifetime_tasks,
    simulate_lifetime,
    simulate_lifetimes,
)

DEFAULT = LifetimeStudyConfig()


def _state(controller):
    array = controller.array
    rows = np.arange(array.rows)
    stats = controller.stats
    return {
        "cells": array.read_rows(rows).tolist(),
        "stuck": array.stuck_rows(rows).tolist(),
        "wear": [array.wear_of_row(int(row)).tolist() for row in rows],
        "aux": controller._aux_store.tolist(),
        "counters": sorted(controller.encryption._counters.items()),
        "sense": None if controller._sense_counts is None else controller._sense_counts.tolist(),
        "stats": stats.as_dict(),
    }


def _assert_stack_matches_solo(specs, trace_name, config, rep=0):
    stacked = _lifetime_replays(specs, trace_name, config, rep)
    outcomes = []
    for spec, (controller, replay) in zip(specs, stacked, strict=True):
        (solo_controller, solo_replay), = _lifetime_replays([spec], trace_name, config, rep)
        outcome = LifetimeOutcome(writes=replay.writes, censored=not replay.stopped_early)
        assert outcome == simulate_lifetime(spec, trace_name, config, rep)
        assert replay.writes == solo_replay.writes
        assert replay.stopped_early == solo_replay.stopped_early
        np.testing.assert_array_equal(replay.saw_cells, solo_replay.saw_cells)
        assert _state(controller) == _state(solo_controller), spec.display_name()
        outcomes.append(outcome)
    assert simulate_lifetimes(specs, trace_name, config, rep) == outcomes
    return outcomes


def _grid_stacks(figure):
    """The default grid's cells, grouped by what they share: one stack each."""
    experiment = _EXPERIMENTS[figure]
    stacks = {}
    for task in dict.fromkeys(experiment.tasks(**experiment.defaults)):
        params = task.params
        spec = dataclasses.replace(
            DEFAULT_LIFETIME_TECHNIQUES[0],
            encoder=params["encoder"],
            cost=params["cost"],
            corrector=params["corrector"],
            num_cosets=params.get("num_cosets", 256),
        )
        stacks.setdefault((params["benchmark"], params["rep"]), []).append(spec)
    return stacks


class TestDefaultGrids:
    @pytest.mark.parametrize("trace_name", ["lbm", "mcf", "bwaves", "xalancbmk"])
    def test_fig11_stack_of_every_technique(self, trace_name):
        specs = _grid_stacks("fig11")[(trace_name, 0)]
        assert len(specs) == 7
        outcomes = _assert_stack_matches_solo(specs, trace_name, DEFAULT)
        # The bands leave the stack at different writes.
        assert len({outcome.writes for outcome in outcomes}) > 1

    @pytest.mark.parametrize("trace_name", ["lbm", "mcf"])
    def test_fig12_stack_of_every_cell(self, trace_name):
        specs = _grid_stacks("fig12")[(trace_name, 0)]
        assert len(specs) == 13  # 5 coset-free cells + VCC/RCC at 4 coset counts
        _assert_stack_matches_solo(specs, trace_name, DEFAULT)


class TestStackShapes:
    SMALL = LifetimeStudyConfig(
        rows=16, mean_endurance_writes=20, trace_writebacks=60, max_line_writes=480, seed=5
    )

    def test_censored_and_failed_bands_in_one_stack(self):
        specs = [dataclasses.replace(spec, num_cosets=32) for spec in DEFAULT_LIFETIME_TECHNIQUES]
        outcomes = _assert_stack_matches_solo(specs, "lbm", self.SMALL)
        assert any(outcome.censored for outcome in outcomes)
        assert any(not outcome.censored for outcome in outcomes)

    @pytest.mark.parametrize("fault_model", ["transient", "row-correlated", "wear-drift"])
    def test_stack_with_a_fault_model(self, fault_model):
        specs = [
            dataclasses.replace(spec, num_cosets=32, fault_model=fault_model)
            for spec in DEFAULT_LIFETIME_TECHNIQUES
        ]
        _assert_stack_matches_solo(specs, "mcf", self.SMALL, rep=1)

    def test_one_spec_twice(self):
        spec = dataclasses.replace(DEFAULT_LIFETIME_TECHNIQUES[6], num_cosets=32)
        _assert_stack_matches_solo([spec, spec], "lbm", self.SMALL)

    def test_pads_equal_the_solo_runs(self):
        """``crypto.pads`` counts each band's performed writes."""
        specs = [dataclasses.replace(spec, num_cosets=32) for spec in DEFAULT_LIFETIME_TECHNIQUES]
        pads = obs.counter("crypto.pads")
        before = pads.value
        solo = [simulate_lifetime(spec, "lbm", self.SMALL) for spec in specs]
        solo_pads = pads.value - before
        before = pads.value
        assert simulate_lifetimes(specs, "lbm", self.SMALL) == solo
        assert pads.value - before == solo_pads == sum(outcome.writes for outcome in solo)


class TestTaskOrder:
    def test_fig12_cells_of_one_benchmark_and_rep_are_adjacent(self):
        experiment = _EXPERIMENTS["fig12"]
        tasks = mean_lifetime_tasks(**dict(experiment.defaults, repetitions=2))
        keys = [(task.params["benchmark"], task.params["rep"]) for task in tasks]
        runs = [key for index, key in enumerate(keys) if index == 0 or keys[index - 1] != key]
        assert len(runs) == len(set(keys)) == 4

    def test_table_rejects_a_wrong_row_count(self):
        experiment = _EXPERIMENTS["fig11"]
        defaults = dict(experiment.defaults, benchmarks=("lbm",))
        rows = [{"writes_to_failure": 10, "censored": False}] * 7
        assert len(lifetime_table(rows, **defaults)) == 7
        for wrong in (rows[:6], rows + rows[:1]):
            with pytest.raises(ValueError):
                lifetime_table(wrong, **defaults)
