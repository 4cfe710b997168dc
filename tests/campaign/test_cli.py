"""Tests for the ``python -m repro.campaign`` command line."""

import json

from repro.campaign.cli import main


def _fig10_args(store, extra=()):
    return [
        "fig10",
        "--store", str(store),
        "--benchmarks", "lbm",
        "--writebacks", "10",
        "--rows", "32",
        "--num-cosets", "16",
        "--quiet",
        *extra,
    ]


class TestCampaignCli:
    def test_list_kinds(self, capsys):
        assert main(["--list-kinds"]) == 0
        out = capsys.readouterr().out
        assert "fig9-energy-cell" in out and "fig10-saw-cell" in out

    def test_named_sweep_runs_and_caches(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(_fig10_args(store)) == 0
        first = capsys.readouterr().out
        assert "Fig. 10" in first
        assert "2 executed, 0 from cache" in first

        assert main(_fig10_args(store)) == 0
        second = capsys.readouterr().out
        assert "0 executed, 2 from cache" in second
        # Cached and fresh runs print the identical table.
        assert first.splitlines()[:6] == second.splitlines()[:6]

    def test_json_output(self, tmp_path, capsys):
        out_path = tmp_path / "rows.json"
        assert main(_fig10_args(tmp_path / "store", ("--json", str(out_path)))) == 0
        capsys.readouterr()
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert payload["columns"] == ["benchmark", "technique", "saw_cells", "reduction_percent"]
        assert len(payload["rows"]) == 2

    def test_spec_file_sweep(self, tmp_path, capsys):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "fig13-ipc-cell",
                    "base": {
                        "num_cosets": 64,
                        "system": {},
                    },
                    "grid": {"benchmark": ["lbm", "xz"]},
                }
            ),
            encoding="utf-8",
        )
        assert main(["--spec", str(spec_path), "--no-store", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "lbm" in out and "xz" in out
        assert "2 executed" in out

    def test_unknown_sweep_exits_2(self, capsys):
        assert main(["fig99", "--quiet", "--no-store"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_sweep_experiment_exits_2_with_hint(self, capsys):
        """fig3 is a real experiment but not a campaign sweep — no traceback."""
        assert main(["fig3", "--quiet", "--no-store"]) == 2
        err = capsys.readouterr().err
        assert "fig9" in err and "repro.experiments.runner" in err

    def test_fig7_named_sweep_with_coset_counts(self, tmp_path, capsys):
        """The random-line studies run as named sweeps with their own knobs."""
        args = [
            "fig7",
            "--store", str(tmp_path / "store"),
            "--coset-counts", "32", "64",
            "--num-writes", "20",
            "--rows", "24",
            "--quiet",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Fig. 7" in out
        assert "8 executed, 0 from cache" in out
        assert main(args) == 0
        assert "0 executed, 8 from cache" in capsys.readouterr().out

    def test_zero_repetitions_exits_2(self, capsys):
        """A lifetime sweep with no repetitions is a configuration error."""
        assert main(["fig11", "--repetitions", "0", "--quiet", "--no-store"]) == 2
        assert "repetitions must be at least 1" in capsys.readouterr().err

    def test_inapplicable_option_exits_2(self, capsys):
        assert main(["fig13", "--writebacks", "5", "--quiet", "--no-store"]) == 2
        assert "--writebacks" in capsys.readouterr().err

    def test_progress_lines_on_stderr(self, tmp_path, capsys):
        args = _fig10_args(tmp_path / "store")
        args.remove("--quiet")
        assert main(args) == 0
        err = capsys.readouterr().err
        assert "fig10-saw-cell" in err and "[2/2]" in err
