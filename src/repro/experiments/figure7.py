"""Figure 7 — model accuracy vs. the number of new-class exemplars (extreme edge).

The old-class support set is fixed at 200 exemplars per class and the amount of
available new-class ('Run') data is swept down to a few dozen samples.  The
paper's observations to reproduce: PILOTE reaches high accuracy with only ~30
new-class samples and dominates the re-trained model especially below ~50
samples; the pre-trained model's accuracy is the flat reference line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.activities import Activity
from repro.data.streams import build_incremental_scenario
from repro.evaluation.protocol import AggregateResult, RepeatedRounds
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.utils.logging import get_logger
from repro.viz.ascii import ascii_line_plot

logger = get_logger("experiments.figure7")

DEFAULT_SWEEP: Tuple[int, ...] = (10, 25, 50, 75, 100, 150, 200)


@dataclass
class Figure7Result:
    """Accuracy per method over the new-class sample sweep."""

    sample_counts: List[int]
    series: Dict[str, List[AggregateResult]]

    def mean_series(self) -> Dict[str, List[float]]:
        return {method: [a.mean for a in values] for method, values in self.series.items()}

    def to_text(self) -> str:
        lines = ["Figure 7: accuracy vs. number of new-class ('Run') exemplars", ""]
        flat = self.mean_series()
        header = f"{'new-class samples':>18}"
        for name in flat:
            header += f"{name:>16}"
        lines.append(header)
        for index, count in enumerate(self.sample_counts):
            row = f"{count:>18d}"
            for name in flat:
                row += f"{flat[name][index]:>16.4f}"
            lines.append(row)
        lines.append("")
        lines.append(
            ascii_line_plot(
                self.sample_counts, flat, title="accuracy vs. new-class exemplar count"
            )
        )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    new_activity: Activity = Activity.RUN,
    sample_counts: Sequence[int] = DEFAULT_SWEEP,
) -> Figure7Result:
    """Reproduce Figure 7 (the pre-trained model is shared within each round)."""
    settings = settings or ExperimentSettings.default()
    sample_counts = [int(c) for c in sample_counts]
    runner = ExperimentRunner(settings.config)
    protocol = RepeatedRounds(settings.n_rounds, seed=settings.seed)

    def one_round(rng: np.random.Generator, round_index: int) -> Dict[str, float]:
        dataset = make_dataset(settings, rng=rng)
        scenario = build_incremental_scenario(dataset, [int(new_activity)], rng=rng)
        pretrained = runner.pretrain(
            scenario, exemplars_per_class=settings.exemplars_per_class, rng=rng
        )
        outputs: Dict[str, float] = {}
        for position, count in enumerate(sample_counts):
            comparison = runner.compare(
                scenario,
                pretrained=pretrained,
                new_class_samples=count,
                rng=rng,
            )
            for method, result in comparison.methods.items():
                outputs[f"{method}/{position}"] = result.accuracy
        logger.info("figure7 round %d finished", round_index)
        return outputs

    aggregates = protocol.run(one_round)
    series = {
        method: [aggregates[f"{method}/{position}"] for position in range(len(sample_counts))]
        for method in runner.methods
    }
    return Figure7Result(sample_counts=sample_counts, series=series)
