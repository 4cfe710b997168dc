"""The engine on disk: source decoding, the memoised AST walk, findings
from every file of a directory tree, and repeated runs over a tree
edited between them (every run starts from scratch)."""

import ast
import textwrap

import pytest

from repro.analysis.engine import ModuleContext, analyze_paths, analyze_sources


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
    def test_files_decode_as_python_does(self, tmp_path, data, expected):
        (tmp_path / "mod.py").write_bytes(data)
        findings = analyze_paths([tmp_path], root=tmp_path)
        assert [(finding.rule, finding.line) for finding in findings] == expected


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
        return time.time()
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


class TestMultiFileOnDisk:
    def test_each_file_reports_its_own_findings(self, tmp_path):
        """Findings from every file of the tree, each anchored in its file."""
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY, "mask.py": _MASK})
        findings = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(findings) == [
            ("DET003", "src/mypkg/dirty.py"),
            ("NUM002", "src/mypkg/mask.py"),
        ]


class TestRepeatedRuns:
    """Each run reads and analyzes every file afresh, so a run over an
    edited tree reports exactly what a first run over it would."""

    def test_repeated_runs_are_identical(self, tmp_path):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        first = analyze_paths([tmp_path / "src"], root=tmp_path)
        second = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(first) == [("DET003", "src/mypkg/dirty.py")]
        assert [f.to_json() for f in second] == [f.to_json() for f in first]

    def test_edit_between_runs_is_seen(self, tmp_path):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        analyze_paths([tmp_path / "src"], root=tmp_path)
        _edit(tmp_path, "clean.py", _DIRTY)
        _edit(tmp_path, "dirty.py", _CLEAN)
        findings = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(findings) == [("DET003", "src/mypkg/clean.py")]

    def test_unchanged_file_keeps_gating_after_another_edit(self, tmp_path):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        analyze_paths([tmp_path / "src"], root=tmp_path)
        _edit(tmp_path, "clean.py", "def triple(value: int) -> int:\n    return 3 * value\n")
        findings = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(findings) == [("DET003", "src/mypkg/dirty.py")]

    def test_selection_changes_between_runs(self, tmp_path):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        assert analyze_paths([tmp_path / "src"], root=tmp_path, select=["NUM"]) == []
        widened = analyze_paths([tmp_path / "src"], root=tmp_path, select=["DET"])
        assert _rules(widened) == [("DET003", "src/mypkg/dirty.py")]

    def test_deleted_file_drops_its_findings(self, tmp_path):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        analyze_paths([tmp_path / "src"], root=tmp_path)
        (tmp_path / "src" / "mypkg" / "dirty.py").unlink()
        assert analyze_paths([tmp_path / "src"], root=tmp_path) == []

    def test_waiver_suppresses_finding(self, tmp_path):
        waived = """
            import time


            def stamp() -> float:
                # repro: allow[DET003] reason=reporting-only timestamp
                return time.time()
        """
        _write_package(tmp_path, {"dirty.py": waived})
        assert analyze_paths([tmp_path / "src"], root=tmp_path) == []
        # Without the waiver the same tree gates.
        unwaived = "\n".join(line for line in waived.splitlines() if "allow[" not in line)
        _edit(tmp_path, "dirty.py", unwaived)
        findings = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert _rules(findings) == [("DET003", "src/mypkg/dirty.py")]

    def test_disk_matches_in_memory_sources(self, tmp_path):
        modules = {
            "clean.py": _CLEAN,
            "dirty.py": _DIRTY,
            "mask.py": _MASK,
        }
        _write_package(tmp_path, modules)
        sources = {
            f"src/mypkg/{name}": textwrap.dedent(text).lstrip("\n")
            for name, text in modules.items()
        }
        sources["src/mypkg/__init__.py"] = ""
        on_disk = analyze_paths([tmp_path / "src"], root=tmp_path)
        assert on_disk == analyze_sources(sources)
        assert {"DET003", "NUM002"} <= {finding.rule for finding in on_disk}

    def test_runs_write_nothing(self, tmp_path, monkeypatch):
        _write_package(tmp_path, {"clean.py": _CLEAN, "dirty.py": _DIRTY})
        monkeypatch.chdir(tmp_path)
        before = sorted(path.as_posix() for path in tmp_path.rglob("*"))
        analyze_paths(["src"])
        analyze_paths(["src"])
        assert sorted(path.as_posix() for path in tmp_path.rglob("*")) == before
