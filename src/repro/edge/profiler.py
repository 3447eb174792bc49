"""Latency and memory profiling for edge applicability (Q2).

The paper reports that with fewer than 200 exemplars per class PILOTE reaches
its accuracy "within 20 training epochs, and each epoch costs less than 0.5 s".
:class:`EdgeProfiler` measures the analogous quantities for this reproduction:
per-epoch wall-clock time of the incremental update, inference latency per
window, and the byte footprint of everything the edge stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.edge.device import DeviceProfile
from repro.exceptions import NotFittedError
from repro.utils.clock import perf_seconds
from repro.nn.trainer import TrainingHistory


@dataclass
class LatencyReport:
    """Timing and footprint numbers for one incremental update."""

    epochs_run: int
    total_seconds: float
    #: Each epoch's training steps (:attr:`TrainingHistory.epoch_seconds`),
    #: without its validation pass; ``total_seconds`` covers the whole
    #: update, validation, herding and prototype refresh included.
    epoch_seconds: List[float] = field(default_factory=list)
    inference_seconds_per_window: float = 0.0
    support_set_bytes: int = 0
    model_bytes: int = 0
    #: Wall-clock per update phase (``"training"``, ``"herding"``,
    #: ``"prototype_refresh"``) as measured by the learner itself, so a
    #: profile shows which phase the update time goes to, not just the total.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_epoch_seconds(self) -> float:
        return float(np.mean(self.epoch_seconds)) if self.epoch_seconds else 0.0

    @property
    def max_epoch_seconds(self) -> float:
        return float(np.max(self.epoch_seconds)) if self.epoch_seconds else 0.0

    def scaled_to(self, profile: DeviceProfile) -> "LatencyReport":
        """Extrapolate the timings to a slower device profile."""
        factor = 1.0 / profile.relative_compute
        return LatencyReport(
            epochs_run=self.epochs_run,
            total_seconds=self.total_seconds * factor,
            epoch_seconds=[value * factor for value in self.epoch_seconds],
            inference_seconds_per_window=self.inference_seconds_per_window * factor,
            support_set_bytes=self.support_set_bytes,
            model_bytes=self.model_bytes,
            phase_seconds={
                phase: value * factor for phase, value in self.phase_seconds.items()
            },
        )

    def summary(self) -> Dict[str, float]:
        report = {
            "epochs_run": self.epochs_run,
            "total_seconds": self.total_seconds,
            "mean_epoch_seconds": self.mean_epoch_seconds,
            "max_epoch_seconds": self.max_epoch_seconds,
            "inference_ms_per_window": self.inference_seconds_per_window * 1e3,
            "support_set_kilobytes": self.support_set_bytes / 1024,
            "model_kilobytes": self.model_bytes / 1024,
        }
        for phase in sorted(self.phase_seconds):
            report[f"{phase}_seconds"] = self.phase_seconds[phase]
        return report

    def to_dict(self) -> Dict[str, object]:
        return {
            "epochs_run": self.epochs_run,
            "total_seconds": self.total_seconds,
            "epoch_seconds": list(self.epoch_seconds),
            "inference_seconds_per_window": self.inference_seconds_per_window,
            "support_set_bytes": self.support_set_bytes,
            "model_bytes": self.model_bytes,
            "phase_seconds": dict(self.phase_seconds),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "LatencyReport":
        return cls(
            epochs_run=int(payload["epochs_run"]),
            total_seconds=float(payload["total_seconds"]),
            epoch_seconds=[float(v) for v in payload.get("epoch_seconds", [])],
            inference_seconds_per_window=float(
                payload.get("inference_seconds_per_window", 0.0)
            ),
            support_set_bytes=int(payload.get("support_set_bytes", 0)),
            model_bytes=int(payload.get("model_bytes", 0)),
            phase_seconds={
                str(phase): float(value)
                for phase, value in dict(payload.get("phase_seconds", {})).items()
            },
        )


#: Test windows one inference-latency measurement predicts.
INFERENCE_BATCH = 256


class EdgeProfiler:
    """Measures incremental-update latency and inference latency of a learner."""

    def profile_increment(
        self,
        learner: PILOTE,
        new_train: HARDataset,
        new_validation: Optional[HARDataset] = None,
        *,
        inference_data: Optional[HARDataset] = None,
    ) -> LatencyReport:
        """Time a full incremental update (and optionally inference afterwards)."""
        start = perf_seconds()
        history: TrainingHistory = learner.learn_new_classes(new_train, new_validation)
        total = perf_seconds() - start
        inference_seconds = 0.0
        if inference_data is not None and inference_data.n_samples > 0:
            inference_seconds = self.profile_inference(learner, inference_data)
        return LatencyReport(
            epochs_run=history.epochs_run,
            total_seconds=total,
            epoch_seconds=list(history.epoch_seconds),
            inference_seconds_per_window=inference_seconds,
            support_set_bytes=learner.support_set_nbytes(),
            model_bytes=learner.model_nbytes(),
            phase_seconds=dict(getattr(learner, "phase_seconds", {}) or {}),
        )

    def profile_inference(self, learner: PILOTE, dataset: HARDataset) -> float:
        """Mean prediction latency per window (seconds)."""
        if not learner.is_pretrained:
            raise NotFittedError("the learner must be trained before profiling inference")
        take = min(INFERENCE_BATCH, dataset.n_samples)
        features = dataset.features[:take]
        start = perf_seconds()
        learner.predict(features)
        elapsed = perf_seconds() - start
        return elapsed / take
