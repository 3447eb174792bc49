"""Figure 6 — model accuracy vs. the support set's size.

Six curves: {PILOTE, Re-trained, Pre-trained} × {representative (herded),
random} exemplars, swept over the number of exemplars per class.  The paper's
observations to reproduce:

* accuracy grows with the number of exemplars and saturates;
* PILOTE dominates the re-trained model, with the largest gap at small
  support sets;
* below roughly 50 exemplars per class the re-trained model falls *below* the
  pre-trained model (over-fitting + forgetting), while PILOTE stays above it;
* representative exemplars matter more to PILOTE than to the other models.
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

logger = get_logger("experiments.figure6")

DEFAULT_SWEEP: Tuple[int, ...] = (10, 25, 50, 100, 200, 350, 500)
STRATEGY_LABELS = {"herding": "repr. exemplars", "random": "random exemplars"}


@dataclass
class Figure6Result:
    """Accuracy series per (method, exemplar strategy) over the support-set sweep.

    ``exemplar_counts`` are the requested counts; ``effective_counts`` cap
    each at the largest old class's training rows, the most any support set
    can hold.  Requested counts with one effective count share one run.
    """

    exemplar_counts: List[int]
    effective_counts: List[int]
    series: Dict[str, Dict[str, List[AggregateResult]]]
    # series[strategy][method] is a list aligned with exemplar_counts

    def mean_series(self) -> Dict[str, List[float]]:
        """Flat ``{"<method> (<strategy>)": [mean accuracies]}`` mapping for plotting."""
        flat: Dict[str, List[float]] = {}
        for strategy, methods in self.series.items():
            label = STRATEGY_LABELS.get(strategy, strategy)
            for method, aggregates in methods.items():
                flat[f"{method} ({label})"] = [a.mean for a in aggregates]
        return flat

    def to_text(self) -> str:
        lines = ["Figure 6: accuracy vs. number of exemplars per class", ""]
        flat = self.mean_series()
        width = max(len(name) for name in flat) + 2
        header = f"{'exemplars':>10}{'effective':>11}"
        for name in flat:
            header += f"{name:>{width}}"
        lines.append(header)
        for index, count in enumerate(self.exemplar_counts):
            row = f"{count:>10d}{self.effective_counts[index]:>11d}"
            for name in flat:
                row += f"{flat[name][index]:>{width}.4f}"
            lines.append(row)
        lines.append("")
        lines.append(
            ascii_line_plot(
                self.exemplar_counts,
                flat,
                title="accuracy vs. exemplars per class",
            )
        )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    new_activity: Activity = Activity.RUN,
    exemplar_counts: Sequence[int] = DEFAULT_SWEEP,
    strategies: Sequence[str] = ("herding", "random"),
) -> Figure6Result:
    """Reproduce Figure 6.

    The pre-trained model is shared across the whole sweep within a round (as
    in the paper): only the support set handed to the edge changes.  Each
    distinct effective count runs once a round: a comparison with a given
    pre-trained learner draws only from that learner's own RNG, so requested
    counts that share an effective count get the same accuracies.
    """
    settings = settings or ExperimentSettings.default()
    exemplar_counts = [int(c) for c in exemplar_counts]
    runner = ExperimentRunner(settings.config)
    protocol = RepeatedRounds(settings.n_rounds, seed=settings.seed)
    effective_counts: List[int] = []

    def one_round(rng: np.random.Generator, round_index: int) -> Dict[str, float]:
        dataset = make_dataset(settings, rng=rng)
        scenario = build_incremental_scenario(dataset, [int(new_activity)], rng=rng)
        pretrained = runner.pretrain(
            scenario, exemplars_per_class=max(exemplar_counts), rng=rng
        )
        largest_class = int(np.bincount(scenario.old_train.labels).max())
        effective_counts[:] = [min(count, largest_class) for count in exemplar_counts]
        outputs: Dict[str, float] = {}
        for strategy in strategies:
            accuracies: Dict[int, Dict[str, float]] = {}
            for position, count in enumerate(effective_counts):
                if count not in accuracies:
                    comparison = runner.compare(
                        scenario,
                        pretrained=pretrained,
                        exemplars_per_class=count,
                        exemplar_strategy=strategy,
                        rng=rng,
                    )
                    accuracies[count] = comparison.summary()
                for method, accuracy in accuracies[count].items():
                    outputs[f"{strategy}/{method}/{position}"] = accuracy
        logger.info("figure6 round %d finished", round_index)
        return outputs

    aggregates = protocol.run(one_round)
    series = {
        strategy: {
            method: [
                aggregates[f"{strategy}/{method}/{position}"]
                for position in range(len(exemplar_counts))
            ]
            for method in runner.methods
        }
        for strategy in strategies
    }
    return Figure6Result(
        exemplar_counts=exemplar_counts, effective_counts=effective_counts, series=series
    )
