"""Figure 5 — visualisation of the embedding spaces of the learning models.

Without a plotting backend, the reproduction exports a 2-D PCA projection of
each model's test-set embeddings (for external plotting) and reports class
-separation metrics; the paper's qualitative claim translates into the ordering
``PILOTE ≥ Re-trained ≥ Pre-trained`` on silhouette score (and the reverse on
the intra/inter distance ratio).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.data.activities import Activity
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.metrics.embedding_quality import class_separation_report
from repro.viz.ascii import ascii_scatter
from repro.viz.projection import project_embeddings_2d
from repro.utils.rng import resolve_rng


@dataclass
class Figure5Result:
    """Embedding separation metrics and 2-D projections per method."""

    separation: Dict[str, Dict[str, float]]
    projections: Dict[str, Dict[int, np.ndarray]]
    label_names: Dict[int, str]

    def to_text(self, include_scatter: bool = False) -> str:
        lines = ["Figure 5: embedding-space class separation", ""]
        header = f"{'method':<14}{'silhouette':>12}{'intra/inter':>14}"
        lines.append(header)
        lines.append("-" * len(header))
        for method, metrics in self.separation.items():
            lines.append(
                f"{method:<14}{metrics['silhouette']:>12.4f}{metrics['intra_inter_ratio']:>14.4f}"
            )
        if include_scatter:
            for method, projection in self.projections.items():
                lines.append("")
                lines.append(
                    ascii_scatter(
                        projection, label_names=self.label_names, title=f"embedding space: {method}"
                    )
                )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    new_activity: Activity = Activity.RUN,
    max_points_per_class: int = 150,
) -> Figure5Result:
    """Reproduce Figure 5 for the three paper methods."""
    settings = settings or ExperimentSettings.default()
    rng = resolve_rng(settings.seed)
    dataset = make_dataset(settings, rng=rng)
    runner = ExperimentRunner(settings.config)
    comparison = runner.run_scenario(
        dataset,
        int(new_activity),
        exemplars_per_class=settings.exemplars_per_class,
        rng=rng,
    )
    test = comparison.scenario.test.subsample(max_points_per_class, per_class=True, rng=rng)
    label_names = {int(a): a.display_name for a in Activity}

    separation: Dict[str, Dict[str, float]] = {}
    projections: Dict[str, Dict[int, np.ndarray]] = {}
    for method, learner in comparison.learners.items():
        embeddings = learner.embed(test.features)
        separation[method] = class_separation_report(embeddings, test.labels)
        projections[method] = project_embeddings_2d(embeddings, test.labels)
    return Figure5Result(
        separation=separation, projections=projections, label_names=label_names
    )
