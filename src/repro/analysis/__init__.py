"""Correctness tooling for the repro serving stack.

Two layers:

* **Static linter** — :mod:`repro.analysis.engine` (AST walking, suppression
  handling, reporters) + :mod:`repro.analysis.rules` (the declarative rule
  registry).  Run via ``pilote lint`` or :func:`run_lint`.
* **Runtime sanitizer** — :mod:`repro.analysis.sanitizer` wraps scheduler,
  stats and signal-bus state in recording proxies and asserts single-writer
  invariants while the chaos suite runs (``pilote chaos --sanitize``,
  ``REPRO_SANITIZE=1``).
"""

from repro.analysis.engine import (
    FileContext,
    Finding,
    LintEngine,
    render_json,
    render_text,
    run_lint,
)
from repro.analysis.rules import RULES, Rule, default_rules, register_rule
from repro.analysis.sanitizer import (
    AccessLog,
    AccessRecord,
    RecordingProxy,
    Sanitizer,
    auto_sanitize,
    sanitize_enabled,
)

__all__ = [
    "Finding",
    "FileContext",
    "LintEngine",
    "run_lint",
    "render_text",
    "render_json",
    "Rule",
    "RULES",
    "register_rule",
    "default_rules",
    "AccessLog",
    "AccessRecord",
    "RecordingProxy",
    "Sanitizer",
    "auto_sanitize",
    "sanitize_enabled",
]
