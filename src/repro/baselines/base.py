"""Shared infrastructure of the paper's baselines.

Both baselines (the paper's *Pre-trained* and *Re-trained* strategies) are
built on the PILOTE machinery: they wrap a :class:`repro.core.pilote.PILOTE`
learner cloned from the shared pre-trained model and implement
:class:`IncrementalLearner`.
"""

from __future__ import annotations

import abc
import copy
from typing import Optional

import numpy as np

from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset


def clone_pretrained(learner: PILOTE) -> PILOTE:
    """Deep copy of a pre-trained PILOTE learner.

    The paper evaluates the Re-trained baseline and PILOTE "based on the same
    pre-trained model"; cloning the pre-trained learner is how the experiment
    harness guarantees that.
    """
    return copy.deepcopy(learner)


class IncrementalLearner(abc.ABC):
    """Common interface of every incremental-learning method in the library.

    A method wraps its own deep copy of the shared pre-trained learner
    (``pretrained``), so comparing methods never mutates the original.
    """

    #: Human-readable method name used in result tables.
    name: str = "incremental-learner"

    def __init__(self, *, pretrained: PILOTE) -> None:
        self._learner = clone_pretrained(pretrained)

    @property
    def learner(self) -> PILOTE:
        """The wrapped PILOTE learner (exposed for inspection in experiments)."""
        return self._learner

    @abc.abstractmethod
    def learn_increment(
        self, new_train: HARDataset, new_validation: Optional[HARDataset] = None
    ) -> "IncrementalLearner":
        """Integrate new-class data arriving after the base training."""

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict class ids for feature rows."""
        return self._learner.inference_engine().predict(features)

    def evaluate(self, dataset: HARDataset) -> float:
        """Accuracy on a labelled dataset."""
        predictions = self.predict(dataset.features)
        return float(np.mean(predictions == dataset.labels))
