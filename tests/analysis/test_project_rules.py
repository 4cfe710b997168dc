"""The project-scope PAR/IMP rules over synthetic fixture packages.

Each fixture is an in-memory module set fed through
:func:`repro.analysis.engine.analyze_sources`, exercising the hazard the
rule exists for: worker-side global mutation reached through the call
graph (PAR001), unpicklable callables handed to executors (PAR002),
module-level RNGs reached from worker code (PAR003), unsanctioned writes
to guarded package state (PAR004), and module-level import cycles
(IMP001).  The committed real tree stays quiet — that is pinned by
``test_lint_config.py``'s analyzer gate, which runs both passes over
src/, benchmarks/, and examples/.
"""

import textwrap

from repro.analysis.engine import analyze_sources
from repro.analysis.project import ProjectContext, module_name_for_path, summarize_module

import ast


def _codes(findings):
    return [finding.rule for finding in findings]


def _source(text):
    return textwrap.dedent(text).lstrip("\n")


def _summaries(sources):
    out = []
    for path, text in sources.items():
        tree = ast.parse(_source(text))
        out.append(summarize_module(path, tree, _source(text).splitlines()))
    return out


class TestModuleNames:
    def test_src_layout(self):
        assert module_name_for_path("src/repro/utils/rng.py") == "repro.utils.rng"

    def test_package_init_collapses(self):
        assert module_name_for_path("src/repro/coding/__init__.py") == "repro.coding"


class TestPAR001TaskGlobalMutation:
    def test_direct_write_in_task_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    _CACHE = {}

                    @register_task("fig9-cell")
                    def run_cell(kind: str, params: dict) -> list:
                        _CACHE[kind] = params
                        return []
                    """
                )
            },
            select=["PAR001"],
        )
        assert _codes(findings) == ["PAR001"]
        assert "_CACHE" in findings[0].message
        assert "fig9-cell" in findings[0].message

    def test_transitive_write_through_helper_chain_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    from mypkg.state import remember

                    @register_task("fig7-cell")
                    def run_cell(kind: str, params: dict) -> list:
                        remember(kind)
                        return []
                    """
                ),
                "src/mypkg/state.py": _source(
                    """
                    _SEEN = []

                    def remember(kind: str) -> None:
                        _note(kind)

                    def _note(kind: str) -> None:
                        _SEEN.append(kind)
                    """
                ),
            },
            select=["PAR001"],
        )
        assert _codes(findings) == ["PAR001"]
        # Anchored at the write site in state.py, not at the task def.
        assert findings[0].path == "src/mypkg/state.py"
        assert "remember -> _note" in findings[0].message

    def test_obs_handles_are_sanctioned(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    _OBS_WRITES = Counter()

                    @register_task("fig7-cell")
                    def run_cell(kind: str, params: dict) -> list:
                        _OBS_WRITES.increment()
                        return []
                    """
                )
            },
            select=["PAR001"],
        )
        assert findings == []

    def test_local_variable_is_not_a_global_write(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    @register_task("fig7-cell")
                    def run_cell(kind: str, params: dict) -> list:
                        cache = {}
                        cache[kind] = params
                        return [cache]
                    """
                )
            },
            select=["PAR001"],
        )
        assert findings == []

    def test_waiver_at_write_site_covers_every_reaching_task(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    _LOADED = False

                    def _lazy_load() -> None:
                        global _LOADED
                        # repro: allow[PAR001] reason=idempotent lazy import latch
                        _LOADED = True

                    @register_task("fig7-cell")
                    def run_a(kind: str, params: dict) -> list:
                        _lazy_load()
                        return []

                    @register_task("fig9-cell")
                    def run_b(kind: str, params: dict) -> list:
                        _lazy_load()
                        return []
                    """
                )
            },
            select=["PAR001"],
        )
        assert findings == []


class TestPAR002ExecutorCapture:
    def test_lambda_submit_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/driver.py": _source(
                    """
                    def fan_out(executor, tasks: list) -> list:
                        return [executor.submit(lambda t: t.run(), task) for task in tasks]
                    """
                )
            },
            select=["PAR002"],
        )
        assert _codes(findings) == ["PAR002"]
        assert "lambda" in findings[0].message

    def test_nested_function_submit_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/driver.py": _source(
                    """
                    def fan_out(executor, tasks: list) -> list:
                        def run_one(task):
                            return task.run()
                        return [executor.submit(run_one, task) for task in tasks]
                    """
                )
            },
            select=["PAR002"],
        )
        assert _codes(findings) == ["PAR002"]
        assert "closure" in findings[0].message or "nested" in findings[0].message

    def test_bound_method_to_pool_map_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/driver.py": _source(
                    """
                    def fan_out(pool, runner, tasks: list) -> list:
                        return pool.map(runner.run_one, tasks)
                    """
                )
            },
            select=["PAR002"],
        )
        assert _codes(findings) == ["PAR002"]
        assert "bound method" in findings[0].message

    def test_module_level_function_is_clean(self):
        findings = analyze_sources(
            {
                "src/mypkg/driver.py": _source(
                    """
                    def run_one(task):
                        return task.run()

                    def fan_out(executor, tasks: list) -> list:
                        return [executor.submit(run_one, task) for task in tasks]
                    """
                )
            },
            select=["PAR002"],
        )
        assert findings == []


class TestPAR003SharedRNG:
    def test_module_rng_read_from_task_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    _RNG = make_rng(2022)

                    @register_task("fig7-cell")
                    def run_cell(kind: str, params: dict) -> list:
                        return [_RNG.random()]
                    """
                )
            },
            select=["PAR003"],
        )
        assert _codes(findings) == ["PAR003"]
        assert "_RNG" in findings[0].message
        # Anchored at the module-level binding, line 1.
        assert findings[0].line == 1

    def test_rng_reached_from_submitted_function_fires(self):
        findings = analyze_sources(
            {
                "src/mypkg/driver.py": _source(
                    """
                    _RNG = default_rng(7)

                    def run_one(task):
                        return task.run(_RNG)

                    def fan_out(executor, tasks: list) -> list:
                        return [executor.submit(run_one, task) for task in tasks]
                    """
                )
            },
            select=["PAR003"],
        )
        assert _codes(findings) == ["PAR003"]

    def test_per_task_rng_is_clean(self):
        findings = analyze_sources(
            {
                "src/mypkg/worker.py": _source(
                    """
                    @register_task("fig7-cell")
                    def run_cell(kind: str, seed: int) -> list:
                        rng = make_rng(seed, kind)
                        return [rng.random()]
                    """
                )
            },
            select=["PAR003"],
        )
        assert findings == []


class TestPAR004GuardedPackageState:
    def test_unsanctioned_write_in_guarded_package_fires(self):
        findings = analyze_sources(
            {
                "src/repro/memctrl/scheduler.py": _source(
                    """
                    _PENDING = []

                    def enqueue(row: int) -> None:
                        _PENDING.append(row)
                    """
                )
            },
            select=["PAR004"],
        )
        assert _codes(findings) == ["PAR004"]
        assert "_PENDING" in findings[0].message

    def test_sanctioned_setter_is_clean(self):
        findings = analyze_sources(
            {
                "src/repro/memctrl/scheduler.py": _source(
                    """
                    _PENDING = []

                    def register_row(row: int) -> None:
                        _PENDING.append(row)

                    def reset_rows() -> None:
                        _PENDING.clear()

                    def _set_rows(rows: list) -> None:
                        global _PENDING
                        _PENDING = list(rows)
                    """
                )
            },
            select=["PAR004"],
        )
        assert findings == []

    def test_unguarded_package_not_checked(self):
        findings = analyze_sources(
            {
                "src/repro/sim/scratch.py": _source(
                    """
                    _PENDING = []

                    def enqueue(row: int) -> None:
                        _PENDING.append(row)
                    """
                )
            },
            select=["PAR004"],
        )
        assert findings == []


class TestIMP001ImportCycles:
    def test_two_module_cycle_fires_once(self):
        findings = analyze_sources(
            {
                "src/mypkg/alpha.py": _source(
                    """
                    from mypkg.beta import helper

                    def entry() -> None:
                        helper()
                    """
                ),
                "src/mypkg/beta.py": _source(
                    """
                    from mypkg.alpha import entry

                    def helper() -> None:
                        entry()
                    """
                ),
            },
            select=["IMP001"],
        )
        assert _codes(findings) == ["IMP001"]
        assert "mypkg.alpha -> mypkg.beta -> mypkg.alpha" in findings[0].message

    def test_lazy_in_function_import_breaks_the_cycle(self):
        findings = analyze_sources(
            {
                "src/mypkg/alpha.py": _source(
                    """
                    from mypkg.beta import helper

                    def entry() -> None:
                        helper()
                    """
                ),
                "src/mypkg/beta.py": _source(
                    """
                    def helper() -> None:
                        from mypkg.alpha import entry
                        entry()
                    """
                ),
            },
            select=["IMP001"],
        )
        assert findings == []

    def test_type_checking_import_is_not_an_edge(self):
        findings = analyze_sources(
            {
                "src/mypkg/alpha.py": _source(
                    """
                    from mypkg.beta import helper
                    """
                ),
                "src/mypkg/beta.py": _source(
                    """
                    from typing import TYPE_CHECKING

                    if TYPE_CHECKING:
                        from mypkg.alpha import entry
                    """
                ),
            },
            select=["IMP001"],
        )
        assert findings == []


class TestProjectContext:
    def test_call_graph_resolves_cross_module_calls(self):
        sources = {
            "src/mypkg/a.py": """
                from mypkg.b import helper

                def caller() -> None:
                    helper()
                """,
            "src/mypkg/b.py": """
                def helper() -> None:
                    pass
                """,
        }
        project = ProjectContext(_summaries(sources))
        caller = project.function("mypkg.a:caller")
        assert caller is not None
        assert "mypkg.b:helper" in project.call_edges(caller)

    def test_import_graph_edges(self):
        sources = {
            "src/mypkg/a.py": "from mypkg.b import helper\n",
            "src/mypkg/b.py": "x = 1\n",
        }
        project = ProjectContext(_summaries(sources))
        assert project.import_graph["mypkg.a"] == {"mypkg.b"}
        assert project.import_graph["mypkg.b"] == set()
