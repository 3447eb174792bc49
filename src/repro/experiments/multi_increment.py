"""Sequential multi-step incremental learning (beyond the paper's single step).

The paper's evaluation adds one new activity at a time to a model pre-trained
on the other four.  A natural extension — called out in the paper's future
work — is a longer class-incremental sequence: start from two activities and
add the remaining ones one by one, measuring accuracy over all classes seen so
far after every step.  This experiment runs that protocol for PILOTE and the
Re-trained baseline and reports per-step accuracy, average incremental
accuracy and backward transfer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.data.dataset import train_val_test_split
from repro.evaluation.runner import INCREMENTS
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.metrics.classification import accuracy
from repro.metrics.forgetting import average_incremental_accuracy, backward_transfer
from repro.utils.rng import resolve_rng


@dataclass
class MultiIncrementResult:
    """Per-step accuracies of a sequential class-incremental run."""

    class_order: List[int]
    step_classes: List[List[int]]
    step_accuracy: Dict[str, List[float]]
    old_class_accuracy: Dict[str, List[float]]

    def average_incremental_accuracy(self, method: str) -> float:
        return average_incremental_accuracy(self.step_accuracy[method])

    def backward_transfer(self, method: str) -> float:
        return backward_transfer(self.old_class_accuracy[method])

    def to_text(self) -> str:
        lines = ["Sequential class-incremental learning (extension experiment)", ""]
        header = f"{'step':>6}{'classes seen':>30}"
        for method in self.step_accuracy:
            header += f"{method:>14}"
        lines.append(header)
        for index, classes in enumerate(self.step_classes):
            row = f"{index:>6d}{str(classes):>30}"
            for method in self.step_accuracy:
                row += f"{self.step_accuracy[method][index]:>14.4f}"
            lines.append(row)
        lines.append("")
        for method in self.step_accuracy:
            lines.append(
                f"{method}: average incremental accuracy "
                f"{self.average_incremental_accuracy(method):.4f}, backward transfer "
                f"{self.backward_transfer(method):+.4f}"
            )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    base_classes: Sequence[Activity] = (Activity.STILL, Activity.DRIVE),
    increment_order: Sequence[Activity] = (Activity.ESCOOTER, Activity.WALK, Activity.RUN),
) -> MultiIncrementResult:
    """Run the sequential protocol for PILOTE and the Re-trained baseline."""
    settings = settings or ExperimentSettings.default()
    rng = resolve_rng(settings.seed)
    dataset = make_dataset(settings, rng=rng)
    splits = train_val_test_split(dataset, rng=rng)

    base_ids = [int(a) for a in base_classes]
    increment_ids = [int(a) for a in increment_order]
    methods = ("pilote", "re-trained")

    # Shared pre-training on the base classes.
    base_learner = PILOTE(settings.config, seed=rng)
    base_learner.pretrain(
        splits.train.select_classes(base_ids),
        splits.validation.select_classes(base_ids),
        exemplars_per_class=settings.exemplars_per_class,
    )
    learners = {method: copy.deepcopy(base_learner) for method in methods}

    step_classes: List[List[int]] = []
    step_accuracy: Dict[str, List[float]] = {m: [] for m in methods}
    old_accuracy: Dict[str, List[float]] = {m: [] for m in methods}
    seen = list(base_ids)

    def record(step_seen: List[int]) -> None:
        test = splits.test.select_classes(step_seen)
        base_test = splits.test.select_classes(base_ids)
        step_classes.append(list(step_seen))
        for method, learner in learners.items():
            step_accuracy[method].append(
                accuracy(test.labels, learner.predict(test.features))
            )
            old_accuracy[method].append(
                accuracy(base_test.labels, learner.predict(base_test.features))
            )

    record(seen)
    for class_id in increment_ids:
        new_train = splits.train.select_classes([class_id])
        new_validation = splits.validation.select_classes([class_id])
        for method, learner in learners.items():
            INCREMENTS[method](learner, new_train, new_validation)
        seen = seen + [class_id]
        record(seen)

    return MultiIncrementResult(
        class_order=base_ids + increment_ids,
        step_classes=step_classes,
        step_accuracy=step_accuracy,
        old_class_accuracy=old_accuracy,
    )
