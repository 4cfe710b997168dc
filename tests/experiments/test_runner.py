"""The runner's ``--set`` overrides, store summary and error exits."""

import json

import pytest

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.experiments.registry import available_experiments
from repro.experiments.runner import _overrides, main

_FIG10 = ["benchmarks=lbm", "writebacks_per_benchmark=10", "rows=32", "num_cosets=16"]


def _fig10_args(tmp_path, *extra):
    args = ["fig10", "--store-dir", str(tmp_path / "store"), *extra]
    for assignment in _FIG10:
        args += ["--set", assignment]
    return args


class TestOverrides:
    def test_values_parse_by_the_type_of_the_default(self):
        assert _overrides("fig13", {"benchmarks": "lbm"}) == {"benchmarks": ("lbm",)}
        assert _overrides("fig7", {"coset_counts": "32, 64", "rows": "24"}) == {
            "coset_counts": (32, 64),
            "rows": 24,
        }
        assert _overrides("fig2", {"fault_model": "static"}) == {"fault_model": "static"}

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigurationError, match="rows takes int"):
            _overrides("fig7", {"rows": "many"})

    def test_bad_list_item_rejected(self):
        with pytest.raises(ConfigurationError, match="coset_counts takes a comma list of int"):
            _overrides("fig7", {"coset_counts": "32,lots"})

    def test_key_of_an_entry_without_parameters_rejected(self):
        with pytest.raises(ConfigurationError, match="'fig3' does not take rows .*no parameters"):
            _overrides("fig3", {"rows": "24"})

    @pytest.mark.parametrize(
        "name, key",
        [("fig11", "config"), ("fig11", "techniques"), ("fig13", "system"), ("table1", "model")],
    )
    def test_structured_default_refused(self, name, key):
        with pytest.raises(ConfigurationError, match=f"{key} is a structured parameter"):
            _overrides(name, {key: "anything"})


class TestRunnerList:
    @pytest.mark.parametrize("argv", [["--list"], []])
    def test_lists_every_experiment(self, argv, capsys):
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "available experiments:"
        assert [line.strip() for line in lines[1:]] == available_experiments()


class TestRunnerSet:
    def test_summary_on_stderr_and_resumed_stdout_identical(self, tmp_path, capsys):
        assert main(_fig10_args(tmp_path)) == 0
        first = capsys.readouterr()
        assert "Fig. 10" in first.out
        assert "campaign finished: 2 tasks, 2 executed, 0 from cache" in first.err
        assert main(_fig10_args(tmp_path)) == 0
        second = capsys.readouterr()
        assert "campaign finished: 2 tasks, 0 executed, 2 from cache" in second.err
        assert second.out == first.out

    def test_fig7_coset_counts_sweep_runs_and_caches(self, tmp_path, capsys):
        args = ["fig7", "--store-dir", str(tmp_path / "store"), "--set", "coset_counts=32,64"]
        args += ["--set", "num_writes=20", "--set", "rows=24"]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "Fig. 7" in first.out
        assert "campaign finished: 8 tasks, 8 executed, 0 from cache" in first.err
        assert main(args) == 0
        assert "campaign finished: 8 tasks, 0 executed, 8 from cache" in capsys.readouterr().err

    def test_set_applies_to_every_requested_experiment(self, capsys):
        args = ["fig7", "fig8", "--set", "coset_counts=32"]
        args += ["--set", "num_writes=20", "--set", "rows=24"]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "Fig. 7" in captured.out and "Fig. 8" in captured.out
        assert "256" not in captured.out  # neither figure kept its default coset axis

    def test_entry_without_tasks_runs(self, capsys):
        assert main(["fig6", "--set", "coset_counts=32"]) == 0
        captured = capsys.readouterr()
        assert "Fig. 6" in captured.out
        assert "campaign finished: 0 tasks, 0 executed, 0 from cache" in captured.err

    def test_jobs_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["fig3", "--jobs", "0"])
        assert info.value.code == 2
        assert "--jobs must be >= 1" in capsys.readouterr().err

    def test_json_dir(self, tmp_path, capsys):
        assert main(_fig10_args(tmp_path, "--json-dir", str(tmp_path / "json"))) == 0
        payload = json.loads((tmp_path / "json" / "fig10.json").read_text(encoding="utf-8"))
        assert payload["columns"] == ["benchmark", "technique", "saw_cells", "reduction_percent"]
        assert len(payload["rows"]) == 2

    def test_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(_fig10_args(tmp_path, "--trace", str(trace))) == 0
        assert "campaign.task" in trace.read_text(encoding="utf-8")

    def test_trace_stops_when_main_returns(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(_fig10_args(tmp_path, "--trace", str(trace))) == 0
        assert not obs.tracing_enabled()
        written = trace.read_text(encoding="utf-8")
        with obs.span("after.main"):
            pass
        assert trace.read_text(encoding="utf-8") == written

    def test_trace_stops_when_main_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        argv = ["fig13", "--set", "writebacks_per_benchmark=5", "--trace", str(trace)]
        assert main(argv) == 2
        assert not obs.tracing_enabled()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fig13", "--set", "writebacks_per_benchmark=5"], "does not take"),
            (["fig7", "fig3", "--set", "rows=24"], "'fig3' does not take rows"),
            (["fig11", "--set", "repetitions=0"], "repetitions must be at least 1"),
            (["fig11", "--set", "config=tiny"], "config is a structured parameter"),
            (["fig99"], "unknown experiment 'fig99'"),
        ],
    )
    def test_error_exits_2_before_printing(self, argv, message, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("pair", ["rows", "=24", "rows=24 --set rows=32"])
    def test_malformed_or_repeated_assignment_is_a_usage_error(self, pair, capsys):
        argv = ["fig7"]
        for assignment in pair.split(" --set "):
            argv += ["--set", assignment]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
