"""Q2 — applicability on the edge: storage and latency accounting.

The paper's Section 6.3 argues that with fewer than 200 exemplars per class
(< 256 KB of storage) PILOTE converges within 20 epochs at less than half a
second per epoch.  This experiment measures the analogous quantities for the
reproduction: support-set bytes as a function of the exemplar budget, model
bytes, per-epoch wall-clock time of the incremental update, and inference
latency, optionally extrapolated to slower device profiles.  An epoch's time
is its training steps alone (:attr:`~repro.nn.trainer.TrainingHistory
.epoch_seconds`); its validation pass is not counted in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.data.streams import build_incremental_scenario
from repro.edge.device import DEVICE_PROFILES
from repro.edge.profiler import EdgeProfiler, LatencyReport
from repro.edge.transfer import exemplar_storage_bytes
from repro.evaluation.runner import ExperimentRunner
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.utils.rng import resolve_rng


@dataclass
class EdgeResourcesResult:
    """Storage and latency measurements for the Q2 analysis."""

    storage_rows: List[Dict[str, float]]
    latency: LatencyReport
    device_latencies: Dict[str, Dict[str, float]]
    accuracy_after_increment: float

    def to_text(self) -> str:
        lines = ["Q2: applicability on the edge", "", "Support-set storage:"]
        header = f"{'exemplars/class':>16}{'classes':>9}{'kilobytes':>12}"
        lines.append(header)
        for row in self.storage_rows:
            lines.append(
                f"{int(row['exemplars_per_class']):>16d}{int(row['n_classes']):>9d}"
                f"{row['kilobytes']:>12.1f}"
            )
        lines.append("")
        lines.append("Incremental-update latency (this machine):")
        for key, value in self.latency.summary().items():
            lines.append(f"  {key:<28}{value:>12.4f}")
        lines.append(f"  {'accuracy_after_increment':<28}{self.accuracy_after_increment:>12.4f}")
        lines.append("")
        lines.append("Extrapolated per-epoch latency on device profiles:")
        for device, summary in self.device_latencies.items():
            lines.append(
                f"  {device:<14} mean epoch {summary['mean_epoch_seconds']:.3f}s, "
                f"total {summary['total_seconds']:.2f}s"
            )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    new_activity: Activity = Activity.RUN,
    storage_budgets: Sequence[int] = (50, 100, 200, 500, 1000, 2500),
) -> EdgeResourcesResult:
    """Measure the Q2 quantities on one incremental-update run."""
    settings = settings or ExperimentSettings.default()
    rng = resolve_rng(settings.seed)
    dataset = make_dataset(settings, rng=rng)
    scenario = build_incremental_scenario(dataset, [int(new_activity)], rng=rng)

    # Storage accounting is analytic: exemplar count × feature dim × 4 bytes.
    n_features = dataset.n_features
    n_old_classes = len(scenario.old_classes)
    storage_rows = [
        {
            "exemplars_per_class": float(budget),
            "n_classes": float(n_old_classes),
            "bytes": float(exemplar_storage_bytes(budget * n_old_classes, n_features)),
            "kilobytes": exemplar_storage_bytes(budget * n_old_classes, n_features) / 1024,
        }
        for budget in storage_budgets
    ]

    # Latency: time one full incremental update with the paper's 200/class budget.
    runner = ExperimentRunner(settings.config)
    pretrained = runner.pretrain(
        scenario, exemplars_per_class=settings.exemplars_per_class, rng=rng
    )
    learner: PILOTE = pretrained
    profiler = EdgeProfiler()
    latency = profiler.profile_increment(
        learner,
        scenario.new_train,
        scenario.new_validation,
        inference_data=scenario.test,
    )
    accuracy_after = learner.evaluate(scenario.test)
    device_latencies = {
        name: latency.scaled_to(profile).summary() for name, profile in DEVICE_PROFILES.items()
    }
    return EdgeResourcesResult(
        storage_rows=storage_rows,
        latency=latency,
        device_latencies=device_latencies,
        accuracy_after_increment=accuracy_after,
    )
