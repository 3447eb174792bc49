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
    list_rules,
    make_rule,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.sanitizer import (
    AccessRecord,
    RecordingProxy,
    Sanitizer,
    auto_sanitize,
    sanitize_enabled,
)
from repro.control import CHAOS_SCENARIOS, CONTROLLERS
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
)


def rule_ids(findings):
    return {finding.rule_id for finding in findings}


# --------------------------------------------------------------------- #
# Rule registry
# --------------------------------------------------------------------- #
class TestRuleRegistry:
    def test_all_six_rules_registered(self):
        assert set(ALL_RULE_IDS) <= set(RULES)

    def test_make_rule_unknown_id_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            make_rule("no-such-rule")

    def test_list_rules_has_descriptions(self):
        listed = dict(list_rules())
        for rule_id in ALL_RULE_IDS:
            assert listed[rule_id]

    def test_engine_select_unknown_raises(self):
        with pytest.raises(AnalysisError, match="unknown rule id"):
            LintEngine(select=["bogus"])


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
        [EXECUTORS, ROUTING_POLICIES, CONTROLLERS],
        ids=["executors", "routing", "controllers"],
    )
    def test_registry_keys_match_class_names(self, registry):
        for key, cls in registry.items():
            assert cls.name == key

    def test_registered_classes_exported(self):
        import repro.control
        import repro.serving

        for registry, package in (
            (EXECUTORS, repro.serving),
            (ROUTING_POLICIES, repro.serving),
            (CONTROLLERS, repro.control),
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
