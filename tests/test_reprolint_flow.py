"""Tests for the reprolint dataflow engine and the RPL1xx rule family.

The acceptance contract pinned here: every RPL1xx rule fires on its
fixture, RPL102 accepts every module of the package while rejecting any
hand-paired ``push_site``/``pop_site`` outside ``metrics/base.py``, the
engine lints itself clean, and the tests/benchmarks profile baseline is
zero.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import PROFILES, lint_file, lint_paths, lint_source, to_sarif
from repro.analysis.dataflow import OriginKind, build_scopes, resolve_expr
from repro.analysis.symbols import ProjectSymbolTable

FIXTURES = Path(__file__).parent / "fixtures" / "reprolint"
REPO = Path(__file__).parent.parent
SRC = REPO / "src"


def codes(violations):
    return [v.code for v in violations]


def function_lines(path, name):
    """The 1-based line range ``(first, last)`` of function ``name``."""
    import ast

    fn = next(
        node for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )
    return fn.lineno, fn.end_lineno


# ----------------------------------------------------------------------
# Analysis core
# ----------------------------------------------------------------------
class TestDataflow:
    def _scope_and_tree(self, source):
        import ast

        tree = ast.parse(source)
        return tree, build_scopes(tree)

    def test_lambda_origin(self):
        tree, scopes = self._scope_and_tree("def f():\n    g = lambda: 1\n    use(g)\n")
        fn = tree.body[0]
        call = fn.body[1].value
        origins = resolve_expr(call.args[0], scopes.scope_of(fn), None)
        assert {o.kind for o in origins} == {OriginKind.LAMBDA}

    def test_param_origin(self):
        tree, scopes = self._scope_and_tree("def f(seed):\n    use(seed)\n")
        fn = tree.body[0]
        call = fn.body[0].value
        origins = resolve_expr(call.args[0], scopes.scope_of(fn), None)
        assert {o.kind for o in origins} == {OriginKind.PARAM}

    def test_unknown_never_guessed(self):
        tree, scopes = self._scope_and_tree("def f(x):\n    y = mystery(x)\n    use(y)\n")
        fn = tree.body[0]
        call = fn.body[1].value
        origins = resolve_expr(call.args[0], scopes.scope_of(fn), None)
        assert {o.kind for o in origins} == {OriginKind.UNKNOWN}

    def test_symbol_table_resolves_reexport(self):
        table = ProjectSymbolTable()
        table.add_source(
            "src/repro/parallel/pool.py",
            "class ShardSupervisor:\n    pass\n",
        )
        table.add_source(
            "src/repro/parallel/__init__.py",
            "from repro.parallel.pool import ShardSupervisor\n",
        )
        symbol = table.resolve_import("repro.parallel", "ShardSupervisor")
        assert symbol.module == "repro.parallel.pool"
        assert symbol.is_module_level_callable

    def test_module_level_lambda_not_pickle_safe(self):
        table = ProjectSymbolTable()
        table.add_source("src/repro/util.py", "helper = lambda x: x\n")
        symbol = table.resolve_import("repro.util", "helper")
        assert not symbol.is_module_level_callable


# ----------------------------------------------------------------------
# Per-rule fixtures
# ----------------------------------------------------------------------
class TestRPL101:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl101_pickle_safety.py", select=["RPL101"])
        assert codes(vs) == ["RPL101"] * 3
        messages = " ".join(v.message for v in vs)
        assert "lambda" in messages
        assert "local_task" in messages
        assert "LocalDriver" in messages

    def test_module_level_clean(self):
        # The negative case lives in the same fixture: no finding lands in
        # ship_module_level.
        src = (FIXTURES / "rpl101_pickle_safety.py").read_text()
        good_start = src.splitlines().index("def ship_module_level(pool: ProcessPoolExecutor):")
        vs = lint_file(FIXTURES / "rpl101_pickle_safety.py", select=["RPL101"])
        assert all(v.line <= good_start for v in vs)

    def test_supervisor_task_list(self):
        src = (
            "from repro.parallel import ShardSupervisor\n"
            "def run():\n"
            "    make = lambda: None\n"
            "    return ShardSupervisor([make], n_jobs=2)\n"
        )
        vs = lint_source(src, "x.py", select=["RPL101"])
        assert codes(vs) == ["RPL101"]

    def test_supervisor_callbacks_stay_local(self):
        # Keyword callbacks run in the parent process and never pickle.
        src = (
            "from repro.parallel import ShardSupervisor\n"
            "def run(tasks):\n"
            "    def on_result(r):\n"
            "        return r\n"
            "    return ShardSupervisor(tasks, on_result=on_result)\n"
        )
        assert lint_source(src, "x.py", select=["RPL101"]) == []


class TestRPL102:
    FIXTURE = FIXTURES / "rpl102_span_discipline.py"

    def _findings_in(self, name):
        first, last = function_lines(self.FIXTURE, name)
        vs = lint_file(self.FIXTURE, select=["RPL102"])
        return [v for v in vs if first <= v.line <= last]

    def test_rejects_pop_skipped_on_exception_path(self):
        """A hand-paired site is a finding even though its pop runs on the
        straight-line path: only ``with site(...)`` is accepted."""
        leak = self._findings_in("leaks_on_exception")
        assert codes(leak) == ["RPL102"] * 2
        assert "push_site()" in leak[0].message
        assert "with site(label):" in leak[0].message

    def test_unmatched_pop_flagged(self):
        pops = self._findings_in("unmatched_pop")
        assert len(pops) == 1
        assert "pop_site()" in pops[0].message

    def test_paired_forms_accepted(self):
        assert self._findings_in("paired") == []
        assert self._findings_in("paired_conditional") == []

    def test_site_module_exempt(self):
        src = (FIXTURES / "rpl102_span_discipline.py").read_text()
        assert lint_source(src, "src/repro/metrics/base.py", select=["RPL102"]) == []

    @pytest.mark.parametrize(
        "module",
        [
            "core/bubble.py",
            "core/bubble_fm.py",
            "core/features.py",
            "core/routing.py",
            "core/threshold.py",
            "metrics/base.py",
            "observability/tracer.py",
        ],
    )
    def test_accepts_existing_ledger_sites(self, module):
        path = SRC / "repro" / module
        if not path.exists():
            pytest.skip(f"{module} not present")
        assert lint_file(path, select=["RPL102"]) == []


class TestRPL103:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl103_seed_provenance.py", select=["RPL103"])
        assert codes(vs) == ["RPL103"] * 4
        messages = [v.message for v in vs]
        assert any("literal seed" in m for m in messages)
        assert any("wall clock" in m for m in messages)
        assert any("without a seed" in m for m in messages)
        assert any("default_rng(None)" in m for m in messages)

    def test_param_and_seedsequence_clean(self):
        src = (FIXTURES / "rpl103_seed_provenance.py").read_text()
        good_start = src.splitlines().index("def param_seed(seed):")
        vs = lint_file(FIXTURES / "rpl103_seed_provenance.py", select=["RPL103"])
        assert all(v.line <= good_start for v in vs)

    def test_ensure_rng_with_param_clean(self):
        src = (
            "from repro.utils.rng import ensure_rng\n"
            "def f(seed):\n"
            "    return ensure_rng(seed)\n"
        )
        assert lint_source(src, "src/repro/x.py", select=["RPL103"]) == []


class TestRPL104:
    def test_fixture_trips_outside_accounting_layer(self):
        vs = lint_file(FIXTURES / "rpl104_count_booking.py", select=["RPL104"])
        assert codes(vs) == ["RPL104"] * 2
        assert all("accounting layer" in v.message for v in vs)

    def test_unconditional_residual_clean(self):
        src = (
            "def absorb(metric, result):\n"
            "    metric.count_external(result.n_calls, by_site=result.by_site)\n"
        )
        assert lint_source(src, "src/repro/parallel/build.py", select=["RPL104"]) == []
        assert lint_source(src, "src/repro/clarans/clara.py", select=["RPL104"]) == []

    def test_partial_attribution_impossible_by_construction(self):
        """The residual is booked inside ``count_external``, so a per-site
        split can no longer be booked without it."""
        from repro.metrics import EuclideanDistance
        from repro.observability import Tracer

        metric = EuclideanDistance()
        tracer = Tracer()
        with tracer, tracer.span("absorb"):
            metric.count_external(10, by_site={"leaf-d0": 4, "split": 1})
        assert tracer.calls_by_site == {"leaf-d0": 4, "split": 1, "absorb": 5}
        assert sum(tracer.calls_by_site.values()) == metric.n_calls == 10


class TestRPL105:
    def _lint_fixture_as(self, path):
        src = (FIXTURES / "rpl105_float_stability.py").read_text()
        return lint_source(src, path, select=["RPL105"])

    def test_fixture_trips_in_numerics_scope(self):
        vs = self._lint_fixture_as("src/repro/birch/fixture.py")
        assert codes(vs) == ["RPL105"] * 3

    def test_stable_form_clean(self):
        src = (FIXTURES / "rpl105_float_stability.py").read_text()
        good_start = src.splitlines().index("def stable_radius(vectors, centroid):")
        vs = self._lint_fixture_as("src/repro/birch/fixture.py")
        assert all(v.line <= good_start for v in vs)

    def test_out_of_scope_path_exempt(self):
        assert self._lint_fixture_as("src/repro/evaluation/fixture.py") == []


class TestRPL000:
    def test_fixture_trips(self):
        vs = lint_file(FIXTURES / "rpl000_unused_suppression.py")
        assert codes(vs) == ["RPL000"] * 3
        messages = [v.message for v in vs]
        assert any("unused suppression" in m for m in messages)
        assert any("without a justification" in m for m in messages)
        assert any("unknown rule code" in m for m in messages)

    def test_unused_detection_respects_select(self):
        # A --select run that never executed RPL001 must not declare its
        # suppressions stale; reason/unknown-code checks still apply.
        vs = lint_file(FIXTURES / "rpl000_unused_suppression.py", select=["RPL000"])
        messages = [v.message for v in vs]
        assert not any("unused suppression" in m for m in messages)
        assert any("without a justification" in m for m in messages)
        assert any("unknown rule code" in m for m in messages)

    def test_meta_findings_not_suppressible(self):
        src = "x = 1  # reprolint: disable=RPL001,RPL000 -- trying to hide\n"
        vs = lint_source(src, "pkg/mod.py", select=["RPL000", "RPL001"])
        assert codes(vs) == ["RPL000"]
        assert "unused suppression" in vs[0].message


# ----------------------------------------------------------------------
# Profiles, baselines, SARIF
# ----------------------------------------------------------------------
class TestProfiles:
    def test_profiles_catalogue(self):
        assert PROFILES["src"] is None
        assert set(PROFILES["tests"]) == {"RPL000", "RPL101"}

    def test_tests_profile_drops_style_rules(self):
        # No __all__, nested distance loops: clean under the tests profile,
        # violations under the src profile.
        src = (
            "def scan(metric, objects):\n"
            "    out = []\n"
            "    for a in objects:\n"
            "        for b in objects:\n"
            "            out.append(metric.distance(a, b))\n"
            "    return out\n"
        )
        assert lint_source(src, "tests/test_x.py", profile="tests") == []
        full = codes(lint_source(src, "pkg/mod.py", profile="src"))
        assert "RPL004" in full and "RPL005" in full

    def test_unknown_profile_raises(self):
        with pytest.raises(ValueError, match="unknown profile"):
            lint_source("x = 1\n", profile="nope")

    def test_tests_and_benchmarks_baseline_is_zero(self):
        """The relaxed-profile baseline CI enforces over tests/benchmarks."""
        from repro.analysis.lint import format_violations

        violations = lint_paths(
            [REPO / "tests", REPO / "benchmarks"],
            profile="tests",
            exclude=["tests/fixtures"],
        )
        assert violations == [], format_violations(violations)

    def test_exclude_filters_paths(self):
        vs = lint_paths([FIXTURES], select=["RPL101"], exclude=["fixtures"])
        assert vs == []


class TestSelfLint:
    def test_engine_lints_itself_clean(self):
        """The analysis package passes every one of its own rules."""
        from repro.analysis.lint import format_violations

        violations = lint_paths([SRC / "repro" / "analysis"])
        assert violations == [], format_violations(violations)


class TestSarif:
    def test_sarif_shape(self):
        vs = lint_file(FIXTURES / "rpl101_pickle_safety.py", select=["RPL101"])
        log = to_sarif(vs)
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"RPL000", "RPL101", "RPL105"} <= rule_ids
        assert len(run["results"]) == len(vs)
        first = run["results"][0]
        assert first["ruleId"] == "RPL101"
        region = first["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == vs[0].line
        assert region["startColumn"] == vs[0].col + 1

    def test_sarif_cli_output(self, tmp_path):
        from repro.analysis.lint import main

        out = tmp_path / "report.sarif"
        code = main(
            [
                str(FIXTURES / "rpl103_seed_provenance.py"),
                "--select", "RPL103",
                "--format", "sarif",
                "--output", str(out),
            ]
        )
        assert code == 1  # findings exist; the report still lands on disk
        import json

        payload = json.loads(out.read_text())
        assert payload["runs"][0]["results"]
