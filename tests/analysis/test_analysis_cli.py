"""CLI behavior: exit codes, the path-only interface, and suppression by
inline waiver only."""

import pytest

from repro.analysis import main

VIOLATING = "import time\n\nSTART: float = time.perf_counter()\n"
CLEAN = "import math\n\nTOTAL: int = 3\n"


@pytest.fixture()
def violating_file(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text(VIOLATING, encoding="utf-8")
    return path


@pytest.fixture()
def clean_file(tmp_path):
    path = tmp_path / "good.py"
    path.write_text(CLEAN, encoding="utf-8")
    return path


class TestExitCodes:
    def test_exit_zero_on_clean_tree(self, clean_file, capsys):
        assert main([str(clean_file)]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_exit_one_on_findings(self, violating_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main([str(violating_file)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "bad.py:3:15 OBS001 time.perf_counter() bypasses the telemetry layer; measure "
            "through repro.obs (obs.monotonic for stamps, obs.span for traced regions, "
            "obs.timed for call histograms) so the value lands in run reports — waive with "
            "a reason only inside repro.obs itself",
            "repro.analysis: 1 finding(s)",
        ]

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.py")]) == 2
        assert "no such file or directory" in capsys.readouterr().err

    def test_exit_two_without_paths(self, capsys):
        assert main([]) == 2
        assert "usage: python -m repro.analysis PATH..." in capsys.readouterr().err

    def test_rules_is_not_a_subcommand(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["rules"]) == 2
        assert "no such file or directory: rules" in capsys.readouterr().err

    def test_run_writes_no_files(self, violating_file, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = sorted(path.name for path in tmp_path.iterdir())
        assert main([str(violating_file)]) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == before


class TestSourceDecoding:
    def test_coding_cookie_file_is_clean(self, tmp_path, capsys):
        path = tmp_path / "legacy.py"
        path.write_bytes(b'# -*- coding: latin-1 -*-\nNAME: str = "\xe9"\n')
        assert main([str(path)]) == 0

    def test_undecodable_file_is_a_finding(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "broken.py"
        path.write_bytes(b'NAME: str = "\xff"\n')
        monkeypatch.chdir(tmp_path)
        assert main([str(path)]) == 1
        assert capsys.readouterr().out.startswith("broken.py:1:0 SYN001 ")


class TestSuppression:
    def test_inline_waiver_suppresses(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            "import time\n\n"
            "START: float = time.perf_counter()  # repro: allow[OBS001] reason=fixture\n",
            encoding="utf-8",
        )
        assert main([str(path)]) == 0

    def test_reasonless_waiver_gates(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            "import time\n\nSTART: float = time.perf_counter()  # repro: allow[OBS001]\n",
            encoding="utf-8",
        )
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "WVR001" in out
        assert "OBS001" in out

    @pytest.mark.parametrize(
        "option",
        [
            ["--select", "OBS"],
            ["--ignore", "OBS001"],
            ["--format", "json"],
            ["--root", "."],
            ["--quiet"],
            ["--help"],
            ["--output", "findings.json"],
            ["--sarif", "findings.sarif"],
            ["--baseline", "analysis-baseline.json"],
            ["--no-baseline"],
            ["--write-baseline"],
            ["--cache", "cache.json"],
            ["--no-cache"],
            ["--output-format", "json"],
            ["--list-rules"],
        ],
        ids=lambda option: option[0].lstrip("-"),
    )
    def test_any_option_is_a_usage_error(
        self, violating_file, tmp_path, monkeypatch, capsys, option
    ):
        """The command takes paths only: any option is a usage error
        (exit 2), nothing is analyzed and nothing is written."""
        monkeypatch.chdir(tmp_path)
        before = sorted(path.name for path in tmp_path.iterdir())
        assert main([str(violating_file), *option]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: python -m repro.analysis PATH..." in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == before
