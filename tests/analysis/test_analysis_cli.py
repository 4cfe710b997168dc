"""CLI behavior: exit codes, rule selection, output formats, the option
surface, and suppression by inline waiver only."""

import json

import pytest

from repro.analysis import main

VIOLATING = "import random\n"
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

    def test_exit_one_on_findings(self, violating_file, capsys):
        assert main([str(violating_file)]) == 1
        out = capsys.readouterr().out
        assert "DET002" in out
        assert "1 finding(s)" in out

    def test_exit_two_on_unknown_rule(self, clean_file, capsys):
        assert main([str(clean_file), "--select", "NOPE999"]) == 2
        assert "NOPE999" in capsys.readouterr().err

    def test_exit_two_on_missing_path(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.py")]) == 2

    def test_exit_two_without_paths(self, capsys):
        assert main([]) == 2


class TestSelection:
    def test_select_limits_rules(self, violating_file, capsys):
        # DET002 fires on the fixture, but only NUM is selected.
        assert main([str(violating_file), "--select", "NUM"]) == 0

    def test_ignore_drops_rule(self, violating_file):
        assert main([str(violating_file), "--ignore", "DET002"]) == 0


class TestOutputFormats:
    def test_json_format(self, violating_file, capsys):
        assert main([str(violating_file), "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["version"] == 2
        assert [finding["rule"] for finding in report["findings"]] == ["DET002"]

    def test_json_finding_fields(self, violating_file, tmp_path, capsys):
        main([str(violating_file), "--format", "json", "--root", str(tmp_path)])
        (finding,) = json.loads(capsys.readouterr().out)["findings"]
        assert finding == {
            "rule": "DET002",
            "path": "bad.py",
            "line": 1,
            "column": 0,
            "message": finding["message"],
            "snippet": "import random",
        }
        assert finding["message"]

    def test_json_report_of_clean_tree(self, clean_file, capsys):
        assert main([str(clean_file), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"version": 2, "findings": []}

    def test_root_anchors_reported_paths(self, violating_file, tmp_path, capsys):
        main([str(violating_file), "--root", str(tmp_path)])
        assert capsys.readouterr().out.splitlines()[0].startswith("bad.py:1:0 DET002 ")

    def test_quiet_prints_summary_only(self, violating_file, capsys):
        assert main([str(violating_file), "--quiet"]) == 1
        assert capsys.readouterr().out.splitlines() == ["repro.analysis: 1 finding(s)"]

    @pytest.mark.parametrize("output_format", ["text", "json"])
    def test_run_writes_no_files(
        self, violating_file, tmp_path, monkeypatch, capsys, output_format
    ):
        monkeypatch.chdir(tmp_path)
        before = sorted(path.name for path in tmp_path.iterdir())
        assert main([str(violating_file), "--format", output_format]) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == before


class TestSourceDecoding:
    def test_coding_cookie_file_is_clean(self, tmp_path, capsys):
        path = tmp_path / "legacy.py"
        path.write_bytes(b'# -*- coding: latin-1 -*-\nNAME: str = "\xe9"\n')
        assert main([str(path)]) == 0

    def test_undecodable_file_is_a_finding(self, tmp_path, capsys):
        path = tmp_path / "broken.py"
        path.write_bytes(b'NAME: str = "\xff"\n')
        assert main([str(path), "--root", str(tmp_path)]) == 1
        assert capsys.readouterr().out.startswith("broken.py:1:0 SYN001 ")


class TestSuppression:
    def test_inline_waiver_suppresses(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text(
            "import random  # repro: allow[DET002] reason=seeded by the caller\n",
            encoding="utf-8",
        )
        assert main([str(path)]) == 0

    def test_reasonless_waiver_gates(self, tmp_path, capsys):
        path = tmp_path / "waived.py"
        path.write_text("import random  # repro: allow[DET002]\n", encoding="utf-8")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "WVR001" in out
        assert "DET002" in out

    @pytest.mark.parametrize(
        "option",
        [
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
    def test_removed_option_is_a_usage_error(
        self, violating_file, tmp_path, monkeypatch, capsys, option
    ):
        """No baseline, cache or side output: the options that selected
        them are usage errors (exit 2), and nothing is written."""
        monkeypatch.chdir(tmp_path)
        before = sorted(path.name for path in tmp_path.iterdir())
        with pytest.raises(SystemExit) as excinfo:
            main([str(violating_file), *option])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert sorted(path.name for path in tmp_path.iterdir()) == before
