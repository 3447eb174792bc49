"""Baselines against which PILOTE is compared.

The paper's own comparison (Section 6.1.3) uses two strategies built on the
same pre-trained model:

* :class:`PretrainedBaseline` — the frozen cloud model, extended with
  new-class prototypes computed from the raw new samples;
* :class:`RetrainedBaseline` — the cloud model re-trained on the edge over the
  enriched support set, without any forgetting-mitigation term (i.e. PILOTE
  with α = 0).

Both wrap a :class:`~repro.core.pilote.PILOTE` learner, so they train and
serve through PILOTE's own code.
"""

from repro.baselines.base import IncrementalLearner, clone_pretrained
from repro.baselines.pretrained import PretrainedBaseline
from repro.baselines.retrained import RetrainedBaseline

__all__ = [
    "IncrementalLearner",
    "clone_pretrained",
    "PretrainedBaseline",
    "RetrainedBaseline",
]
