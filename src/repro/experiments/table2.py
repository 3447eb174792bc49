"""Table 2 — accuracy with vs. without handling catastrophic forgetting.

For each of the five activities held out as the new class, the pre-trained,
re-trained and PILOTE strategies (sharing the same pre-trained model) are
scored on the full five-activity test set; the paper reports the mean and
standard deviation over five rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.data.activities import Activity
from repro.evaluation.protocol import AggregateResult, RepeatedRounds
from repro.evaluation.results import ResultTable
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.utils.logging import get_logger

logger = get_logger("experiments.table2")


@dataclass
class Table2Result:
    """Aggregated accuracies per scenario and method."""

    table: ResultTable
    per_scenario: Dict[str, Dict[str, AggregateResult]]

    def to_text(self) -> str:
        return self.table.to_text()

    def method_wins(  # repro: noqa[repro-unused] benchmarks/bench_table2.py
        self, method: str = "pilote", against: str = "re-trained"
    ) -> int:
        """Number of scenarios where ``method``'s mean accuracy beats ``against``'s."""
        wins = 0
        for results in self.per_scenario.values():
            if results[method].mean >= results[against].mean:
                wins += 1
        return wins


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    activities: Optional[List[Activity]] = None,
) -> Table2Result:
    """Reproduce Table 2.

    Parameters
    ----------
    settings:
        Scale/protocol settings (defaults to :meth:`ExperimentSettings.default`).
    activities:
        Restrict the scenarios to a subset of activities (used by quick tests).
    """
    settings = settings or ExperimentSettings.default()
    activities = list(activities) if activities is not None else list(Activity)
    runner = ExperimentRunner(settings.config)
    table = ResultTable(
        "Table 2: accuracy of learning models without and with considering "
        "the catastrophic forgetting problem",
        columns=["new_class", "pre-trained", "re-trained", "pilote"],
    )
    per_scenario: Dict[str, Dict[str, AggregateResult]] = {}

    for activity in activities:
        protocol = RepeatedRounds(settings.n_rounds, seed=settings.seed)

        def one_round(rng: np.random.Generator, round_index: int) -> Dict[str, float]:
            dataset = make_dataset(settings, rng=rng)
            comparison = runner.run_scenario(
                dataset,
                int(activity),
                exemplars_per_class=settings.exemplars_per_class,
                rng=rng,
            )
            return comparison.summary()

        aggregates = protocol.run(one_round)
        per_scenario[activity.display_name] = aggregates
        table.add_row(
            new_class=activity.display_name,
            **{
                "pre-trained": aggregates["pre-trained"],
                "re-trained": aggregates["re-trained"],
                "pilote": aggregates["pilote"],
            },
        )
        logger.info(
            "Table2 %s: pre=%s re=%s pilote=%s",
            activity.display_name,
            aggregates["pre-trained"],
            aggregates["re-trained"],
            aggregates["pilote"],
        )
    return Table2Result(table=table, per_scenario=per_scenario)
