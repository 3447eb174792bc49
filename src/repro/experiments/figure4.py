"""Figure 4 — confusion matrices when learning the new activity 'Run'.

The paper's claim: the re-trained model forgets 'Walk' (a large block of Walk
samples is predicted as Run), while PILOTE keeps the two similar activities
separated.  The reproduction returns both confusion matrices plus the
Walk→Run misclassification rates so the asymmetry can be checked numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.data.activities import Activity
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.metrics.confusion import ConfusionMatrix
from repro.utils.rng import resolve_rng


@dataclass
class Figure4Result:
    """Confusion matrices of the compared methods for the Run scenario."""

    matrices: Dict[str, ConfusionMatrix]
    walk_to_run_rate: Dict[str, float]

    def to_text(self) -> str:
        blocks = []
        for method, matrix in self.matrices.items():
            blocks.append(f"--- {method} (accuracy {matrix.accuracy():.4f}) ---")
            blocks.append(matrix.to_text())
            blocks.append(
                f"Walk predicted as Run: {self.walk_to_run_rate[method]:.1%}"
            )
            blocks.append("")
        return "\n".join(blocks)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    new_activity: Activity = Activity.RUN,
) -> Figure4Result:
    """Reproduce Figure 4 (single round; the figure shows one representative run)."""
    settings = settings or ExperimentSettings.default()
    rng = resolve_rng(settings.seed)
    dataset = make_dataset(settings, rng=rng)
    runner = ExperimentRunner(settings.config, methods=("re-trained", "pilote"))
    comparison = runner.run_scenario(
        dataset,
        int(new_activity),
        exemplars_per_class=settings.exemplars_per_class,
        rng=rng,
    )
    label_names = {int(a): a.display_name for a in Activity}
    matrices: Dict[str, ConfusionMatrix] = {}
    walk_to_run: Dict[str, float] = {}
    test = comparison.scenario.test
    for method, result in comparison.methods.items():
        matrix = ConfusionMatrix.from_predictions(
            test.labels,
            result.predictions,
            classes=sorted(label_names),
            label_names=label_names,
        )
        matrices[method] = matrix
        walk_to_run[method] = matrix.misclassification_rate(
            int(Activity.WALK), int(new_activity)
        )
    return Figure4Result(matrices=matrices, walk_to_run_rate=walk_to_run)
