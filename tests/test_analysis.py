"""Tests for the correctness tooling: static linter + runtime sanitizer.

Layer 1 (static): per-rule positive/negative fixtures under
``tests/fixtures/lint/``, suppression handling, reporter schemas, and the
meta-test that the real ``src/repro`` tree lints clean (and fast).

Layer 2 (runtime): the sanitizer records writes on live serving state,
catches a deliberately-injected unsynchronized cross-thread write, and stays
clean across a sanitized chaos scenario.
"""

from __future__ import annotations

import dataclasses
import json
import re
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    Finding,
    LintEngine,
    RULES,
    default_rules,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.rules import Rule, register_rule
from repro.analysis.sanitizer import (
    AccessRecord,
    RecordingProxy,
    Sanitizer,
    auto_sanitize,
    sanitize_enabled,
)
from repro.control import CHAOS_SCENARIOS
from repro.control.chaos import ChaosRunReport, run_chaos
from repro.exceptions import AnalysisError, SanitizerViolationError
from repro.serving import EXECUTORS, ROUTING_POLICIES
from repro.serving.protocol import PredictRequest

FIXTURES = Path(__file__).parent / "fixtures" / "lint"
DIRTY = FIXTURES / "dirty"
CLEAN = FIXTURES / "clean"

ALL_RULE_IDS = (
    "repro-rng",
    "repro-clock",
    "repro-errors",
    "repro-registry",
    "repro-lock-callback",
    "repro-roundtrip",
    "repro-unused",
    "repro-unused-import",
)


def rule_ids(findings):
    return {finding.rule_id for finding in findings}


# --------------------------------------------------------------------- #
# Rule registry
# --------------------------------------------------------------------- #
class TestRuleRegistry:
    def test_all_seven_rules_registered(self):
        assert set(ALL_RULE_IDS) <= set(RULES)

    def test_rules_have_descriptions(self):
        for rule_id in ALL_RULE_IDS:
            assert RULES[rule_id].description

    def test_engine_select_unknown_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            LintEngine(select=["bogus"])

    def test_duplicate_rule_id_raises(self):
        original = RULES["repro-rng"]

        class Impostor(Rule):
            rule_id = "repro-rng"

        with pytest.raises(AnalysisError, match="duplicate rule id"):
            register_rule(Impostor)
        assert RULES["repro-rng"] is original


# --------------------------------------------------------------------- #
# Per-rule fixtures: positives (dirty) and negatives (clean)
# --------------------------------------------------------------------- #
class TestRuleFixtures:
    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_fires_on_dirty_tree(self, rule_id):
        findings = run_lint(DIRTY, select=[rule_id])
        assert findings, f"{rule_id} found nothing in the dirty fixture tree"
        assert rule_ids(findings) == {rule_id}

    @pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
    def test_rule_quiet_on_clean_tree(self, rule_id):
        assert run_lint(CLEAN, select=[rule_id]) == []

    def test_dirty_tree_exits_nonzero_via_cli(self, capsys):
        from repro.cli import main

        assert main(["lint", "--path", str(DIRTY)]) == 1
        assert "finding(s)" in capsys.readouterr().out

    def test_clean_tree_exits_zero_via_cli(self, capsys):
        from repro.cli import main

        assert main(["lint", "--path", str(CLEAN)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_carry_path_line_col(self):
        findings = run_lint(DIRTY / "rng_bad.py")
        assert findings
        for finding in findings:
            assert finding.path == "rng_bad.py"
            assert finding.line > 0
            assert str(finding).startswith("rng_bad.py:")

    def test_indirect_subclass_caught_by_registry_rule(self):
        findings = run_lint(DIRTY / "registry_bad.py", select=["repro-registry"])
        names = {finding.message.split()[3] for finding in findings}
        assert "IndirectlyForgotten" in names
        assert "_PrivateExecutor" not in names

    def test_registry_rule_flags_missing_dunder_all(self):
        findings = run_lint(DIRTY, select=["repro-registry"])
        assert any(
            "__all__" in finding.message and "ShadowController" in finding.message
            for finding in findings
        )

    def test_unused_rule_flags_unreferenced_definitions(self):
        findings = run_lint(DIRTY, select=["repro-unused"])
        flagged = {
            finding.message.split()[0]
            for finding in findings
            if finding.path == "unused_bad.py"
        }
        # Never called; named only in __all__; named only in an import.
        assert flagged == {"never_called", "exported_only", "ImportedOnly"}

    def test_unused_import_rule_flags_each_unused_name(self):
        findings = run_lint(DIRTY / "imports_bad.py", select=["repro-unused-import"])
        assert {finding.message.split()[0] for finding in findings} == {
            "json", "os", "Ordered", "List",
        }
        assert [finding.line for finding in findings] == [3, 4, 5, 6]

    def test_unused_rule_follows_references_across_files(self, tmp_path):
        (tmp_path / "lib.py").write_text("def helper():\n    return 1\n")
        target = tmp_path / "app.py"
        target.write_text("import lib\n")
        assert rule_ids(run_lint(tmp_path, select=["repro-unused"])) == {"repro-unused"}
        target.write_text("import lib\n\nVALUE = lib.helper()\n")
        assert run_lint(tmp_path, select=["repro-unused"]) == []


# --------------------------------------------------------------------- #
# repro-unused: what counts as a reference, one construct per case
# --------------------------------------------------------------------- #
_REFERENCED = {
    "call-by-name": """
        def helper():
            return 1

        VALUE = helper()
        """,
    "method-via-attribute": """
        class Box:
            def size(self):
                return 1

        SIZE = Box().size()
        """,
    "property-read": """
        class Box:
            @property
            def size(self):
                return 1

        SIZE = Box().size
        """,
    "base-class": """
        class Base:
            pass

        class Child(Base):
            pass

        CHILD = Child()
        """,
    "getattr-string": """
        class Box:
            def hook(self):
                return 1

        HOOKED = getattr(Box(), "hook")()
        """,
    "dotted-string": """
        def target():
            return 1

        ENTRY_POINT = "package.module.target"
        """,
    "string-annotation": """
        class Node:
            pass

        def make(parent: "Node" = None):
            return parent

        ROOT = make()
        """,
    "annotation": """
        class Node:
            pass

        def make(parent: Node = None):
            return parent

        ROOT = make()
        """,
    "callback-argument": """
        def by_length(text):
            return len(text)

        ORDER = sorted(["bb", "a"], key=by_length)
        """,
    "plain-decorator": """
        def traced(function):
            return function

        @traced
        def work():
            return 1

        RESULT = work()
        """,
    "registering-decorator": """
        PLUGINS = []

        def register_plugin(cls):
            PLUGINS.append(cls)
            return cls

        @register_plugin
        class Plugin:
            pass
        """,
    "registering-decorator-call": """
        PLUGINS = {}

        def register(name):
            def wrap(cls):
                PLUGINS[name] = cls
                return cls
            return wrap

        @register("plugin")
        class Plugin:
            pass
        """,
    "dunder-method": """
        class Bag:
            def __len__(self):
                return 0

        BAG = Bag()
        """,
    "exception-handler": """
        class Refused(Exception):
            pass

        try:
            VALUE = 1
        except Refused:
            VALUE = 0
        """,
    "recursive-and-called-elsewhere": """
        def countdown(n):
            return n if n <= 0 else countdown(n - 1)

        RESULT = countdown(3)
        """,
    "same-named-method-called-elsewhere": """
        class Inner:
            def describe(self):
                return "inner"

        class Outer:
            def describe(self):
                return Inner().describe()

        TEXT = Outer().describe()
        """,
    "returned-closure": """
        def outer():
            def inner():
                return 1
            return inner

        RESULT = outer()()
        """,
    "awaited-coroutine": """
        async def job():
            return 1

        async def main():
            return await job()

        COROUTINE = main
        """,
    "noqa-with-reason": """
        def for_a_caller_elsewhere():  # repro: noqa[repro-unused] examples/demo.py calls it
            return 1
        """,
}

_UNREFERENCED = {
    "never-called": (
        """
        def helper():
            return 1
        """,
        {"helper"},
    ),
    "method-never-called": (
        """
        class Box:
            def size(self):
                return 1

        BOX = Box()
        """,
        {"size"},
    ),
    "nested-class-never-used": (
        """
        class Outer:
            class Inner:
                pass

        OUTER = Outer()
        """,
        {"Inner"},
    ),
    "async-never-awaited": (
        """
        async def job():
            return 1
        """,
        {"job"},
    ),
    "named-only-in-all": (
        """
        __all__ = ["helper"]

        def helper():
            return 1
        """,
        {"helper"},
    ),
    "named-only-in-augmented-all": (
        """
        __all__ = []
        __all__ += ["helper"]

        def helper():
            return 1
        """,
        {"helper"},
    ),
    "mentioned-in-prose-string": (
        """
        def helper():
            return 1

        NOTE = "call helper before the loop"
        """,
        {"helper"},
    ),
    "mentioned-in-comment": (
        """
        def helper():
            return 1

        # helper() is for later
        """,
        {"helper"},
    ),
    "keyword-argument-name": (
        """
        def helper():
            return 1

        OPTIONS = dict(helper=1)
        """,
        {"helper"},
    ),
    "noqa-for-another-rule": (
        """
        def helper():  # repro: noqa[repro-rng] not the rule that fires
            return 1
        """,
        {"helper"},
    ),
    "self-recursive": (
        """
        def countdown(n):
            return n if n <= 0 else countdown(n - 1)
        """,
        {"countdown"},
    ),
    "called-only-by-same-named-method": (
        """
        class Inner:
            def describe(self):
                return "inner"

        class Outer:
            def __init__(self):
                self.inner = Inner()

            def describe(self):
                return self.inner.describe()

        OUTER = Outer()
        """,
        {"describe"},
    ),
    "class-named-only-in-its-own-body": (
        """
        class Node:
            def clone(self):
                return Node()
        """,
        {"Node", "clone"},
    ),
    "string-name-inside-same-named-method": (
        """
        class Box:
            def run(self):
                return getattr(self, "run")

        BOX = Box()
        """,
        {"run"},
    ),
}


class TestUnusedRule:
    def unused_names(self, tmp_path, source):
        (tmp_path / "module.py").write_text(textwrap.dedent(source))
        findings = run_lint(tmp_path, select=["repro-unused"])
        return {finding.message.split()[0] for finding in findings}

    @pytest.mark.parametrize("source", _REFERENCED.values(), ids=_REFERENCED.keys())
    def test_referenced_definition_is_kept(self, tmp_path, source):
        assert self.unused_names(tmp_path, source) == set()

    @pytest.mark.parametrize(
        "source, expected", _UNREFERENCED.values(), ids=_UNREFERENCED.keys()
    )
    def test_unreferenced_definition_is_flagged(self, tmp_path, source, expected):
        assert self.unused_names(tmp_path, source) == expected


# --------------------------------------------------------------------- #
# repro-unused-import: what counts as a use, one construct per case
# --------------------------------------------------------------------- #
_IMPORT_CASES = {
    "attribute-read": ("import numpy as np\nZERO = np.zeros(1)\n", set()),
    "dotted-module": ("import os.path\nHERE = os.path.curdir\n", set()),
    "annotation": (
        "from typing import List\n\ndef f(names: List[str]):\n    return names\n\nf([])\n",
        set(),
    ),
    "string-annotation": (
        "from decimal import Decimal\n\ndef f(value: \"Decimal\"):\n    return value\n\n"
        "f(1)\n",
        set(),
    ),
    "re-export-in-all": ("from json import dumps\n__all__ = [\"dumps\"]\n", set()),
    "future-import": ("from __future__ import annotations\n", set()),
    "noqa-with-reason": ("import json  # repro: noqa[repro-unused-import] side effect\n", set()),
    "unused-module": ("import json\n", {"json"}),
    "unused-alias": ("import numpy as np\nnumpy = 1\n", {"np"}),
    "unused-from-name": ("from typing import Dict, List\nX: Dict = {}\n", {"List"}),
    "rebound-and-attribute-only": (
        "import json\nclass A:\n    json = 1\nA().json\n", {"json"}
    ),
}


class TestUnusedImportRule:
    @pytest.mark.parametrize("source, expected", _IMPORT_CASES.values(),
                             ids=_IMPORT_CASES.keys())
    def test_what_counts_as_a_use(self, tmp_path, source, expected):
        (tmp_path / "module.py").write_text(source)
        findings = run_lint(tmp_path, select=["repro-unused-import"])
        assert {finding.message.split()[0] for finding in findings} == expected

    def test_a_package_init_may_import_what_it_re_exports(self, tmp_path):
        package = tmp_path / "package"
        package.mkdir()
        (package / "__init__.py").write_text("from json import dumps\n")
        (package / "module.py").write_text("from json import dumps\n")
        findings = run_lint(tmp_path, select=["repro-unused-import"])
        assert [finding.path for finding in findings] == ["package/module.py"]


# --------------------------------------------------------------------- #
# Suppression handling
# --------------------------------------------------------------------- #
class TestSuppression:
    def lint_source(self, tmp_path, source, select=None):
        target = tmp_path / "module.py"
        target.write_text(textwrap.dedent(source))
        return run_lint(target, select=select)

    def test_line_level_noqa_suppresses_only_that_line(self, tmp_path):
        findings = self.lint_source(
            tmp_path,
            """
            import numpy as np

            a = np.random.normal(size=2)  # repro: noqa[repro-rng] justified
            b = np.random.normal(size=2)
            """,
        )
        assert len(findings) == 1
        assert findings[0].line == 5

    def test_file_level_noqa_suppresses_whole_file(self, tmp_path):
        findings = self.lint_source(
            tmp_path,
            """
            # repro: noqa[repro-rng] fixture generates raw noise on purpose
            import numpy as np

            a = np.random.normal(size=2)
            b = np.random.normal(size=2)
            """,
        )
        assert findings == []

    def test_bracketless_noqa_suppresses_all_rules(self, tmp_path):
        findings = self.lint_source(
            tmp_path,
            """
            import numpy as np

            a = np.random.normal(size=2)  # repro: noqa
            """,
        )
        assert findings == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        findings = self.lint_source(
            tmp_path,
            """
            import numpy as np

            a = np.random.normal(size=2)  # repro: noqa[repro-clock]
            """,
        )
        assert rule_ids(findings) == {"repro-rng"}

    def test_syntax_error_reported_as_finding(self, tmp_path):
        findings = self.lint_source(tmp_path, "def broken(:\n    pass\n")
        assert rule_ids(findings) == {"repro-parse"}

    def test_undecodable_source_reported_as_finding(self, tmp_path):
        target = tmp_path / "latin1.py"
        target.write_bytes(b"NAME = '\xe9t\xe9'\n")
        findings = run_lint(tmp_path)
        assert rule_ids(findings) == {"repro-parse"}
        assert "unreadable source" in findings[0].message

    def test_missing_lint_root_raises(self, tmp_path):
        with pytest.raises(AnalysisError, match="does not exist"):
            run_lint(tmp_path / "no-such-dir")


# --------------------------------------------------------------------- #
# Reporters
# --------------------------------------------------------------------- #
class TestReporters:
    def test_json_reporter_schema(self):
        findings = run_lint(DIRTY)
        payload = json.loads(render_json(findings))
        assert payload["version"] == 1
        assert payload["count"] == len(findings) > 0
        assert sum(payload["by_rule"].values()) == payload["count"]
        for entry in payload["findings"]:
            assert set(entry) == {"rule_id", "path", "line", "col", "message"}

    def test_finding_round_trips(self):
        finding = Finding("repro-rng", "a/b.py", 3, 7, "message")
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_text_reporter_clean_and_dirty(self):
        assert "clean" in render_text([])
        finding = Finding("repro-rng", "a.py", 1, 0, "m")
        assert "a.py:1:0" in render_text([finding])


# --------------------------------------------------------------------- #
# Meta: the real tree lints clean, within the CI time budget
# --------------------------------------------------------------------- #
class TestRealTree:
    def test_src_tree_lints_clean_and_fast(self):
        root = Path(repro.__file__).resolve().parent
        start = time.perf_counter()
        findings = run_lint(root)
        elapsed = time.perf_counter() - start
        assert findings == [], render_text(findings)
        assert elapsed < 10.0, f"lint took {elapsed:.1f}s (budget 10s)"

    def test_every_unused_suppression_names_its_caller(self):
        root = Path(repro.__file__).resolve().parent
        repo = Path(__file__).resolve().parents[1]
        suppressions = [
            (path, line)
            for path in sorted(root.rglob("*.py"))
            for line in path.read_text(encoding="utf-8").splitlines()
            if "noqa[repro-unused]" in line
            and line.lstrip().startswith(("def ", "class "))
        ]
        assert suppressions
        for path, line in suppressions:
            reason = line.split("noqa[repro-unused]", 1)[1]
            callers = re.findall(r"[\w/]+\.py", reason)
            assert callers, f"{path.name}: no caller named in {line.strip()!r}"
            for caller in callers:
                assert (repo / caller).is_file(), f"{path.name}: {caller} does not exist"

    def test_default_rules_fresh_instances(self):
        first, second = default_rules(), default_rules()
        assert {r.rule_id for r in first} == {r.rule_id for r in second}
        assert all(a is not b for a, b in zip(first, second))


# --------------------------------------------------------------------- #
# Registry regression (R4 drift, pinned at runtime too)
# --------------------------------------------------------------------- #
class TestRegistryCompleteness:
    @pytest.mark.parametrize(
        "registry",
        [EXECUTORS, ROUTING_POLICIES],
        ids=["executors", "routing"],
    )
    def test_registry_keys_match_class_names(self, registry):
        for key, cls in registry.items():
            assert cls.name == key

    def test_registered_classes_exported(self):
        import repro.serving

        for registry, package in (
            (EXECUTORS, repro.serving),
            (ROUTING_POLICIES, repro.serving),
        ):
            for cls in registry.values():
                assert cls.__name__ in package.__all__, (
                    f"{cls.__name__} registered but not exported by "
                    f"{package.__name__}.__all__"
                )

    def test_report_types_exported(self):
        import repro.serving
        import repro.serving.report

        assert set(repro.serving.report.__all__) <= set(repro.serving.__all__)


# --------------------------------------------------------------------- #
# Runtime sanitizer
# --------------------------------------------------------------------- #
def _build_client(n_devices=2, seed=0):
    from repro.server.simulation import build_serving_fleet
    from repro.serving import serve

    fleet = build_serving_fleet(n_devices, seed=seed)
    return serve(fleet, routing="hash", seed=seed)


def _feature(seed=0):
    from repro.server.simulation import _feature_pool

    return _feature_pool(seed, n_rows=4)[0]


class TestSanitizer:
    def test_records_writes_on_live_traffic(self):
        with _build_client() as client:
            sanitizer = Sanitizer().attach(client)
            for user in range(4):
                client.submit(PredictRequest(user_id=user, features=_feature()))
            client.drain()
            report = sanitizer.report()
            assert report["writes"] > 0
            assert report["clean"] is True
            assert any(t.startswith("stats[") for t in report["targets"])
            sanitizer.assert_clean()

    # Opted out of the REPRO_SANITIZE=1 autouse fixture: the rogue write
    # below is deliberate and would (correctly) fail its teardown check.
    @pytest.mark.no_repro_sanitize
    def test_catches_injected_cross_thread_write(self):
        with _build_client() as client:
            sanitizer = Sanitizer().attach(client)
            client.submit(PredictRequest(user_id=0, features=_feature()))
            client.drain()
            # The row the drain thread already owns (it served the request).
            row = next(
                r for r in client.scheduler._stats.values() if r.requests > 0
            )

            def rogue():
                row.requests += 1

            thread = threading.Thread(target=rogue, name="rogue-writer")
            thread.start()
            thread.join()
            violations = sanitizer.violations
            assert len(violations) == 1
            assert violations[0]["target"].startswith("stats[")
            assert violations[0]["field"] == "requests"
            with pytest.raises(SanitizerViolationError, match="cross-thread"):
                sanitizer.assert_clean()

    def test_proxy_forwards_reads_and_methods(self):
        with _build_client() as client:
            Sanitizer().attach(client)
            client.submit(PredictRequest(user_id=0, features=_feature()))
            client.drain()
            row = next(
                r for r in client.scheduler._stats.values() if r.requests > 0
            )
            assert isinstance(row, RecordingProxy)
            assert row.requests >= 1
            assert isinstance(row.to_dict(), dict)
            # The scheduler's own report path still works over proxies.
            assert client.report().total_requests >= 1

    def test_control_plane_submissions_are_recorded(self):
        from repro.control import ControlPlane

        with _build_client() as client:
            plane = ControlPlane(client)
            sanitizer = Sanitizer().attach(client)
            assert client.control is plane
            client.submit(PredictRequest(user_id=0, features=_feature()))
            client.drain()
            assert client.control_stats()["ticks"] == 1
            assert sanitizer.report()["targets"][f"control[{client.label}]"] == 1

    @pytest.mark.no_repro_sanitize
    def test_catches_a_cross_thread_submission_on_the_control_plane(self):
        from repro.control import ControlPlane

        with _build_client() as client:
            plane = ControlPlane(client)
            sanitizer = Sanitizer().attach(client)
            client.submit(PredictRequest(user_id=0, features=_feature()))
            client.drain()
            # A wave handed to the plane from a second thread: the plane's
            # window and ledger would be written by two threads.
            thread = threading.Thread(
                target=plane.after_submit, args=([], []), name="rogue-submitter"
            )
            thread.start()
            thread.join()
            assert plane.ticks == 2
            assert [(v["target"], v["field"]) for v in sanitizer.violations] == [
                (f"control[{client.label}]", "after_submit")
            ]
            with pytest.raises(SanitizerViolationError, match="cross-thread"):
                sanitizer.assert_clean()

    def test_access_record_round_trips(self):
        record = AccessRecord(1, "main", "stats[0]", "requests", "write")
        assert AccessRecord.from_dict(record.to_dict()) == record

    def test_auto_sanitize_instruments_new_clients(self):
        with auto_sanitize() as sanitizer:
            with _build_client() as client:
                client.submit(PredictRequest(user_id=0, features=_feature()))
                client.drain()
        assert sanitizer.report()["writes"] > 0
        sanitizer.assert_clean()

    def test_sanitize_enabled_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert sanitize_enabled() is False
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert sanitize_enabled() is True
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert sanitize_enabled() is False


class TestSanitizedChaos:
    def test_chaos_scenario_clean_under_sanitizer(self):
        spec = dataclasses.replace(
            CHAOS_SCENARIOS["worker-storm"], n_ticks=6, requests_per_tick=16,
            storm_ticks=(2, 3),
        )
        report = run_chaos(spec, adaptive=True, sanitize=True)
        assert isinstance(report, ChaosRunReport)
        assert report.sanitized is True
        assert report.sanitizer_violations == 0
        assert report.exactly_once

    def test_chaos_report_round_trips_sanitizer_fields(self):
        report = ChaosRunReport(
            name="n", scenario="worker-storm", adaptive=True, seed=1,
            sent=4, answered=4, sanitized=True,
        )
        restored = ChaosRunReport.from_dict(report.to_dict())
        assert restored == report
