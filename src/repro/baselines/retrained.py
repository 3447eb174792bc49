"""The paper's *Re-trained* baseline.

"The pre-trained model is re-trained on the edge using the enriched support
set with new-class samples." (Section 6.1.3.)  This is PILOTE's incremental
update *without* the distillation term: the embedding space is rebuilt from the
support set plus the new-class samples using only the contrastive loss, which
is exactly what exposes it to catastrophic forgetting.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import IncrementalLearner
from repro.data.dataset import HARDataset
from repro.exceptions import NotFittedError


class RetrainedBaseline(IncrementalLearner):
    """Edge re-training without forgetting mitigation (PILOTE with α = 0)."""

    name = "re-trained"

    def learn_increment(
        self, new_train: HARDataset, new_validation: Optional[HARDataset] = None
    ) -> "RetrainedBaseline":
        """Re-train on support set ∪ new samples with the contrastive loss only."""
        if not self._learner.is_pretrained:
            raise NotFittedError("learn_increment() needs a pre-trained learner")
        # Disable the distillation term: α = 0 turns the joint loss into the
        # pure contrastive objective on the enriched support set.
        self._learner.config = self._learner.config.with_overrides(alpha=0.0)
        self._learner.learn_new_classes(new_train, new_validation)
        return self
