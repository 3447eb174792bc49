"""Ablations of PILOTE's design choices, beyond the paper's figures.

Each ablation varies one setting of the edge increment on a shared
pre-trained learner and reports overall, old-class and new-class accuracy:

* the balancing weight α between distillation and contrastive terms
  (α = 0 degenerates to the Re-trained baseline, α = 1 freezes the embedding
  on old classes and learns nothing contrastively);
* the contrastive margin m;
* the contrastive-loss variant (paper's squared-margin form vs. the classic
  Hadsell form).

The exemplar-selection strategy (herding vs. random) is swept by Figure 6
(:mod:`repro.experiments.figure6`), not here.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.data.activities import Activity
from repro.data.streams import build_incremental_scenario
from repro.evaluation.protocol import RepeatedRounds
from repro.evaluation.results import ResultTable
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.metrics.classification import accuracy
from repro.metrics.forgetting import new_class_accuracy, old_class_accuracy

METRICS = ("accuracy", "old_accuracy", "new_accuracy")
TITLES = {
    "alpha": "Ablation: balancing weight α (α=0 is the Re-trained baseline)",
    "margin": "Ablation: contrastive margin m",
    "variant": "Ablation: contrastive-loss variant",
}
#: The config field each ablation table overrides.
FIELDS = {"alpha": "alpha", "margin": "margin", "variant": "contrastive_variant"}


@dataclass
class AblationResult:
    """One result table per ablated hyper-parameter."""

    tables: Dict[str, ResultTable]

    def to_text(self) -> str:
        return "\n\n".join(table.to_text() for table in self.tables.values())


def _evaluate_variant(pretrained, scenario, **overrides) -> Dict[str, float]:
    """Copy the shared pre-trained learner, apply overrides, learn, and score.

    Training reads α, the margin and the loss variant from the config, so
    ``alpha=0.0`` is the Re-trained baseline's increment.
    """
    learner = copy.deepcopy(pretrained)
    learner.config = learner.config.with_overrides(**overrides)
    learner.learn_new_classes(scenario.new_train, scenario.new_validation)
    predictions = learner.predict(scenario.test.features)
    return {
        "accuracy": accuracy(scenario.test.labels, predictions),
        "old_accuracy": old_class_accuracy(
            scenario.test.labels, predictions, scenario.old_classes
        ),
        "new_accuracy": new_class_accuracy(
            scenario.test.labels, predictions, scenario.new_classes
        ),
    }


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    new_activity: Activity = Activity.RUN,
    alphas: Sequence[float] = (0.0, 0.25, 0.5, 0.75, 0.9),
    margins: Sequence[float] = (0.5, 1.0, 2.0),
    variants: Sequence[str] = ("squared", "hadsell"),
) -> AblationResult:
    """Run the α / margin / loss-variant ablations.

    Each table lists its settings in sorted string order; a point is keyed by
    its position, so a repeated setting gets a row of its own.
    """
    settings = settings or ExperimentSettings.default()
    runner = ExperimentRunner(settings.config)
    protocol = RepeatedRounds(settings.n_rounds, seed=settings.seed)
    sweeps = {"alpha": list(alphas), "margin": list(margins), "variant": list(variants)}

    def one_round(rng: np.random.Generator, round_index: int) -> Dict[str, float]:
        dataset = make_dataset(settings, rng=rng)
        scenario = build_incremental_scenario(dataset, [int(new_activity)], rng=rng)
        pretrained = runner.pretrain(
            scenario, exemplars_per_class=settings.exemplars_per_class, rng=rng
        )
        outputs: Dict[str, float] = {}
        for table_name, values in sweeps.items():
            for position, value in enumerate(values):
                scores = _evaluate_variant(pretrained, scenario, **{FIELDS[table_name]: value})
                for metric, score in scores.items():
                    outputs[f"{table_name}/{position}/{metric}"] = score
        return outputs

    aggregates = protocol.run(one_round)
    tables: Dict[str, ResultTable] = {}
    for table_name, values in sweeps.items():
        if not values:
            continue
        table = ResultTable(TITLES[table_name], columns=[table_name, *METRICS])
        labels = [value if isinstance(value, str) else f"{value:g}" for value in values]
        for position in sorted(range(len(values)), key=labels.__getitem__):
            table.add_row(
                **{table_name: labels[position]},
                **{
                    metric: aggregates[f"{table_name}/{position}/{metric}"]
                    for metric in METRICS
                },
            )
        tables[table_name] = table
    return AblationResult(tables=tables)
