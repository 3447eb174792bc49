"""``pilote chaos`` — run the chaos suite and print the exactly-once ledger.

Each scenario runs twice, with the control plane attached (``adaptive``)
and without (``static``): the exactly-once invariant must hold in *both*
modes — the control plane may reshape load, it may never drop or double-
answer a future.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.control.chaos import CHAOS_SCENARIOS, ChaosRunReport, run_suite
from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentSettings
from repro.utils.logging import get_logger

__all__ = ["ChaosSuiteResult", "run"]

logger = get_logger(__name__)


@dataclass
class ChaosSuiteResult:
    """What ``pilote chaos`` prints: per-mode reports plus the verdict."""

    seed: int
    adaptive_runs: List[ChaosRunReport] = field(default_factory=list)
    static_runs: List[ChaosRunReport] = field(default_factory=list)

    @property
    def all_exactly_once(self) -> bool:
        return all(
            run.exactly_once for run in self.adaptive_runs + self.static_runs
        )

    @property
    def sanitized(self) -> bool:
        """Did every run execute under the runtime race sanitizer?"""
        runs = self.adaptive_runs + self.static_runs
        return bool(runs) and all(run.sanitized for run in runs)

    @property
    def sanitizer_clean(self) -> bool:
        """No sanitized run observed an unsynchronized cross-thread write."""
        return all(
            run.sanitizer_violations == 0
            for run in self.adaptive_runs + self.static_runs
        )

    @property
    def passed(self) -> bool:
        """The suite verdict: exactly-once held and the sanitizer is clean."""
        return self.all_exactly_once and self.sanitizer_clean

    def to_text(self) -> str:
        lines = [
            "Chaos suite: seeded failure injection with exactly-once accounting",
            f"(seed {self.seed}; every run must satisfy "
            "sent == answered + failed with no double-fires)",
            "",
            "with control plane (adaptive):",
        ]
        lines.extend("  " + run.to_text() for run in self.adaptive_runs)
        lines.append("")
        lines.append("without control plane (static):")
        lines.extend("  " + run.to_text() for run in self.static_runs)
        lines.append("")
        verdict = "held" if self.all_exactly_once else "VIOLATED"
        lines.append(f"exactly-once invariant: {verdict} across all runs")
        if self.sanitized:
            violations = sum(
                run.sanitizer_violations
                for run in self.adaptive_runs + self.static_runs
            )
            state = "clean" if self.sanitizer_clean else f"{violations} VIOLATION(S)"
            lines.append(f"race sanitizer: {state} (single-writer invariant)")
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    scenario: Optional[str] = None,
    sanitize: bool = False,
) -> ChaosSuiteResult:
    """Run the chaos suite (or one named ``scenario``) in both modes.

    ``sanitize=True`` additionally runs every scenario under the runtime
    race sanitizer (:mod:`repro.analysis.sanitizer`); the suite then only
    :attr:`~ChaosSuiteResult.passed` when zero cross-thread writes were
    observed on top of the exactly-once ledger.
    """
    settings = settings or ExperimentSettings.default()
    if scenario is not None and scenario not in CHAOS_SCENARIOS:
        raise ConfigurationError(
            f"unknown chaos scenario {scenario!r}; available: "
            f"{sorted(CHAOS_SCENARIOS)}"
        )
    names = None if scenario is None else [scenario]
    result = ChaosSuiteResult(seed=settings.seed)
    result.adaptive_runs = run_suite(
        names, adaptive=True, seed=settings.seed, sanitize=sanitize
    )
    result.static_runs = run_suite(
        names, adaptive=False, seed=settings.seed, sanitize=sanitize
    )
    for report in result.adaptive_runs + result.static_runs:
        logger.info(
            "chaos %s (%s): sent=%d answered=%d failed=%d exactly_once=%s",
            report.name,
            "adaptive" if report.adaptive else "static",
            report.sent,
            report.answered,
            report.failed,
            report.exactly_once,
        )
    return result
