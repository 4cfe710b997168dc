"""The lint toolchain wiring: pyproject config, py.typed, CI job.

ruff and mypy are CI-only (the local container does not ship them); here
we pin down the configuration they run under, and execute them when they
happen to be installed.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
PYPROJECT = REPO_ROOT / "pyproject.toml"

STRICT_PACKAGES = (
    "repro.utils",
    "repro.coding",
    "repro.campaign",
    "repro.analysis",
    "repro.obs",
)


class TestProjectConfig:
    def test_pyproject_exists(self):
        assert PYPROJECT.is_file()

    def test_py_typed_marker_shipped(self):
        assert (REPO_ROOT / "src" / "repro" / "py.typed").is_file()
        text = PYPROJECT.read_text(encoding="utf-8")
        assert "py.typed" in text, "py.typed must be declared as package data"

    def test_mypy_strict_packages_configured(self):
        text = PYPROJECT.read_text(encoding="utf-8")
        assert "[tool.mypy]" in text
        for package in STRICT_PACKAGES:
            assert f'"{package}.*"' in text, f"{package} missing from the strict override"
        assert "disallow_untyped_defs = true" in text

    def test_ruff_configured(self):
        text = PYPROJECT.read_text(encoding="utf-8")
        assert "[tool.ruff]" in text
        assert "[tool.ruff.lint]" in text

    def test_ci_lint_job_wired(self):
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
        assert "lint:" in workflow
        assert "python -m repro.analysis src benchmarks examples" in workflow
        assert "sarif" not in workflow.lower()
        assert "analysis-findings" not in workflow
        assert "ruff check src" in workflow
        assert (
            "mypy -p repro.utils -p repro.coding -p repro.campaign"
            " -p repro.analysis -p repro.obs" in workflow
        )


class TestToolExecution:
    def test_mypy_strict_packages(self):
        if shutil.which("mypy") is None:
            pytest.skip("mypy not installed in this environment (CI-only)")
        result = subprocess.run(
            ["mypy"] + [token for pkg in STRICT_PACKAGES for token in ("-p", pkg)],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_ruff_clean(self):
        if shutil.which("ruff") is None:
            pytest.skip("ruff not installed in this environment (CI-only)")
        result = subprocess.run(
            ["ruff", "check", "src"], cwd=REPO_ROOT, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stdout + result.stderr

    def test_analyzer_gates_clean_via_module_entry(self):
        """The CI gate: a cold run over the trees CI lints reports zero
        findings and leaves no file behind in the repository root."""
        before = set(REPO_ROOT.iterdir())
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "src", "benchmarks", "examples"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "0 finding(s)" in result.stdout
        assert set(REPO_ROOT.iterdir()) == before
