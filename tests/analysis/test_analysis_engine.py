"""The engine on disk: source decoding, the memoised AST walk, the fixed
set of checks, findings from every file of a directory tree, and
repeated runs over a tree edited between them (every run starts from
scratch)."""

import ast
import textwrap

import pytest

from repro.analysis.engine import ModuleContext, analyze_paths, analyze_source
from repro.analysis.rules import CHECKS


def _write_package(tmp_path, modules):
    pkg = tmp_path / "src" / "mypkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    for name, text in modules.items():
        (pkg / name).write_text(textwrap.dedent(text).lstrip("\n"), encoding="utf-8")


class TestSourceDecoding:
    @pytest.mark.parametrize(
        "data, expected",
        [
            pytest.param(
                b'# -*- coding: latin-1 -*-\nNAME: str = "\xe9"\n', [], id="coding-cookie"
            ),
            pytest.param(b"\xef\xbb\xbfNAME: int = 1\n", [], id="utf8-bom"),
            pytest.param(
                b'# coding: utf-8\nNAME: str = "\xc3\xa9"\n', [], id="utf8-cookie"
            ),
            pytest.param(b'NAME: str = "\xc3\xa9"\n', [], id="utf8-default"),
            pytest.param(
                b"\xef\xbb\xbf# coding: utf-8\nNAME: int = 1\n", [], id="bom-with-utf8-cookie"
            ),
            pytest.param(
                b"\xef\xbb\xbf# -*- coding: latin-1 -*-\nNAME: int = 1\n",
                [("SYN001", 1)],
                id="bom-with-conflicting-cookie",
            ),
            pytest.param(
                b"# coding: no-such-codec\nNAME: int = 1\n",
                [("SYN001", 1)],
                id="unknown-codec",
            ),
            pytest.param(
                b'COUNT: int = 1\n\nNAME: str = "\xff"\n',
                [("SYN001", 3)],
                id="undecodable",
            ),
        ],
    )
    def test_files_decode_as_python_does(self, tmp_path, monkeypatch, data, expected):
        (tmp_path / "mod.py").write_bytes(data)
        monkeypatch.chdir(tmp_path)
        findings = analyze_paths([tmp_path])
        assert [(finding.rule, finding.line) for finding in findings] == expected


def test_checks_are_a_fixed_set():
    assert [code for code, _ in CHECKS] == [
        "API001", "API003", "DET004", "NUM002", "NUM003", "OBS001",
    ]


class TestWalk:
    def test_walk_matches_filtered_ast_walk(self):
        source = textwrap.dedent(
            """
            def outer(values):
                total = sum(len(item) for item in values)
                return [print(name) for name in sorted(values)], total
            """
        )
        tree = ast.parse(source)
        module = ModuleContext(path="mod.py", tree=tree, lines=source.splitlines())
        expected = [node for node in ast.walk(tree) if isinstance(node, (ast.Call, ast.Name))]
        assert list(module.walk(ast.Call, ast.Name)) == expected
        # A second walk serves the same memoised node list.
        assert list(module.walk(ast.Call, ast.Name)) == expected


_CLEAN = """
    def double(value: int) -> int:
        return 2 * value
"""

_DIRTY = """
    import time


    def stamp() -> float:
        return time.perf_counter()
"""

_MASK = """
    import numpy as np


    def count(values: np.ndarray) -> int:
        return int((values > 0).sum())
"""


def _edit(tmp_path, name, text):
    path = tmp_path / "src" / "mypkg" / name
    path.write_text(textwrap.dedent(text).lstrip("\n"), encoding="utf-8")


def _rules(findings):
    return [(finding.rule, finding.path) for finding in findings]


@pytest.fixture
def analyze(tmp_path, monkeypatch):
    """Analyze the package's ``src`` tree, paths relative to ``tmp_path``."""
    monkeypatch.chdir(tmp_path)
    return lambda: analyze_paths(["src"])


class TestMultiFileOnDisk:
    def test_each_file_reports_its_own_findings(self, tmp_path, analyze):
        """Findings from every file of the tree, each anchored in its file."""
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY, "mask.py": _MASK})
        findings = analyze()
        assert _rules(findings) == [
            ("OBS001", "src/mypkg/dirty.py"),
            ("NUM002", "src/mypkg/mask.py"),
        ]


class TestRepeatedRuns:
    """Each run reads and analyzes every file afresh, so a run over an
    edited tree reports exactly what a first run over it would."""

    def test_repeated_runs_are_identical(self, tmp_path, analyze):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        first = analyze()
        second = analyze()
        assert _rules(first) == [("OBS001", "src/mypkg/dirty.py")]
        assert second == first

    def test_edit_between_runs_is_seen(self, tmp_path, analyze):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        analyze()
        _edit(tmp_path, "clean.py", _DIRTY)
        _edit(tmp_path, "dirty.py", _CLEAN)
        findings = analyze()
        assert _rules(findings) == [("OBS001", "src/mypkg/clean.py")]

    def test_unchanged_file_keeps_gating_after_another_edit(self, tmp_path, analyze):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        analyze()
        _edit(tmp_path, "clean.py", "def triple(value: int) -> int:\n    return 3 * value\n")
        findings = analyze()
        assert _rules(findings) == [("OBS001", "src/mypkg/dirty.py")]

    def test_deleted_file_drops_its_findings(self, tmp_path, analyze):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        analyze()
        (tmp_path / "src" / "mypkg" / "dirty.py").unlink()
        assert analyze() == []

    def test_waiver_suppresses_finding(self, tmp_path, analyze):
        waived = """
            import time


            def stamp() -> float:
                # repro: allow[OBS001] reason=reporting-only timestamp
                return time.perf_counter()
        """
        _write_package(tmp_path, {"dirty.py": waived})
        assert analyze() == []
        # Without the waiver the same tree gates.
        unwaived = "\n".join(line for line in waived.splitlines() if "allow[" not in line)
        _edit(tmp_path, "dirty.py", unwaived)
        findings = analyze()
        assert _rules(findings) == [("OBS001", "src/mypkg/dirty.py")]

    def test_disk_matches_in_memory_sources(self, tmp_path, analyze):
        modules = {
            "clean.py": _CLEAN,
            "dirty.py": _DIRTY,
            "mask.py": _MASK,
        }
        _write_package(tmp_path, modules)
        in_memory = [
            finding
            for name, text in sorted(modules.items())
            for finding in analyze_source(
                textwrap.dedent(text).lstrip("\n"), path=f"src/mypkg/{name}"
            )
        ]
        on_disk = analyze()
        assert on_disk == in_memory
        assert {"OBS001", "NUM002"} <= {finding.rule for finding in on_disk}

    def test_runs_write_nothing(self, tmp_path, analyze):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        before = sorted(path.as_posix() for path in tmp_path.rglob("*"))
        analyze()
        analyze()
        assert sorted(path.as_posix() for path in tmp_path.rglob("*")) == before
