"""The paper's *Pre-trained* baseline.

"The model is pre-trained on the cloud on four activities.  It is transferred
to the edge with a support set.  The model generates class prototypes for
new-class samples and enriches the support set with random new-class data."
(Section 6.1.3.)  In other words: the embedding network is never updated on
the edge; only a prototype for the new class is added to the NCM classifier.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import IncrementalLearner
from repro.data.dataset import HARDataset
from repro.exceptions import NotFittedError


class PretrainedBaseline(IncrementalLearner):
    """Frozen pre-trained embedding + new-class prototypes (no edge training)."""

    name = "pre-trained"

    def learn_increment(
        self, new_train: HARDataset, new_validation: Optional[HARDataset] = None
    ) -> "PretrainedBaseline":
        """Add new-class prototypes without touching the embedding network."""
        learner = self._learner
        if not learner.is_pretrained:
            raise NotFittedError("learn_increment() needs a pre-trained learner")
        counts = learner.exemplars.exemplars_per_class()
        budget = max(counts.values()) if counts else None
        for class_id in new_train.classes:
            rows = new_train.class_subset(int(class_id))
            embeddings = learner.model.embed(rows)
            # The paper's pre-trained strategy enriches the support set with
            # *random* new-class samples (no herding on the frozen model).
            original_strategy = learner.exemplars.strategy
            learner.exemplars.strategy = "random"
            try:
                learner.exemplars.select(int(class_id), rows, embeddings, n_exemplars=budget)
            finally:
                learner.exemplars.strategy = original_strategy
            learner._new_classes = sorted(set(learner._new_classes) | {int(class_id)})
        learner._refresh_prototypes()
        return self
