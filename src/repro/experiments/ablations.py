"""Ablations beyond the paper's figures.

DESIGN.md calls out the design choices worth isolating:

* the balancing weight α between distillation and contrastive terms
  (α = 0 degenerates to the Re-trained baseline, α = 1 freezes the embedding
  on old classes and learns nothing contrastively);
* the contrastive margin m;
* the exemplar-selection strategy (herding vs. random), already swept in
  Figure 6 but isolated here at a single support-set size;
* the contrastive-loss variant (paper's squared-margin form vs. the classic
  Hadsell form).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.activities import Activity
from repro.data.streams import build_incremental_scenario
from repro.evaluation.protocol import AggregateResult, RepeatedRounds
from repro.evaluation.results import ResultTable
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.baselines.base import clone_pretrained
from repro.metrics.classification import accuracy
from repro.metrics.forgetting import new_class_accuracy, old_class_accuracy


@dataclass
class AblationResult:
    """One result table per ablated hyper-parameter."""

    tables: Dict[str, ResultTable]

    def to_text(self) -> str:
        return "\n\n".join(table.to_text() for table in self.tables.values())


def _evaluate_variant(
    pretrained,
    scenario,
    *,
    alpha: Optional[float] = None,
    margin: Optional[float] = None,
    variant: Optional[str] = None,
) -> Dict[str, float]:
    """Clone the shared pre-trained learner, apply overrides, learn, and score."""
    learner = clone_pretrained(pretrained)
    overrides = {}
    if alpha is not None:
        overrides["alpha"] = alpha
    if margin is not None:
        overrides["margin"] = margin
    if variant is not None:
        overrides["contrastive_variant"] = variant
    if overrides:
        # Training reads alpha, margin and the variant from the config.
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
    """Run the α / margin / loss-variant ablations."""
    settings = settings or ExperimentSettings.default()
    runner = ExperimentRunner(settings.config)
    protocol = RepeatedRounds(settings.n_rounds, seed=settings.seed)

    collected: Dict[str, Dict[str, List[float]]] = {}

    def record(table: str, key: str, values: Dict[str, float]) -> None:
        for metric, value in values.items():
            collected.setdefault(table, {}).setdefault(f"{key}/{metric}", []).append(value)

    def one_round(rng: np.random.Generator, round_index: int) -> Dict[str, float]:
        dataset = make_dataset(settings, rng=rng)
        scenario = build_incremental_scenario(dataset, [int(new_activity)], rng=rng)
        pretrained = runner.pretrain(
            scenario, exemplars_per_class=settings.exemplars_per_class, rng=rng
        )
        for alpha in alphas:
            record("alpha", f"{alpha:g}", _evaluate_variant(pretrained, scenario, alpha=alpha))
        for margin in margins:
            record("margin", f"{margin:g}", _evaluate_variant(pretrained, scenario, margin=margin))
        for variant in variants:
            record("variant", variant, _evaluate_variant(pretrained, scenario, variant=variant))
        return {"round": float(round_index)}

    protocol.run(one_round)

    tables: Dict[str, ResultTable] = {}
    titles = {
        "alpha": "Ablation: balancing weight α (α=0 is the Re-trained baseline)",
        "margin": "Ablation: contrastive margin m",
        "variant": "Ablation: contrastive-loss variant",
    }
    for table_name, metrics in collected.items():
        keys = sorted({key.split("/")[0] for key in metrics})
        table = ResultTable(
            titles[table_name],
            columns=[table_name, "accuracy", "old_accuracy", "new_accuracy"],
        )
        for key in keys:
            def agg(metric: str) -> AggregateResult:
                values = metrics[f"{key}/{metric}"]
                return AggregateResult(
                    mean=float(np.mean(values)), std=float(np.std(values)), values=tuple(values)
                )

            table.add_row(
                **{
                    table_name: key,
                    "accuracy": agg("accuracy"),
                    "old_accuracy": agg("old_accuracy"),
                    "new_accuracy": agg("new_accuracy"),
                }
            )
        tables[table_name] = table
    return AblationResult(tables=tables)
