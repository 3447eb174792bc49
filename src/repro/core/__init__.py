"""PILOTE: the paper's core contribution.

The package implements incremental representation learning at the extreme
edge (Section 5 of the paper):

* a Siamese embedding backbone (:mod:`repro.core.embedding`) trained with the
  supervised contrastive loss with margin (Eq. 2),
* a feature-space distillation loss that anchors old-class exemplar embeddings
  to the pre-trained model (Algorithm 1),
* herding-based exemplar ("support set") selection and class prototypes,
* a nearest-class-mean classifier on the embedding space (Eq. 1),
* the :class:`~repro.core.pilote.PILOTE` learner orchestrating cloud
  pre-training and edge-side incremental updates.
"""

from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pairs import PairBatch, PairSampler
from repro.core.exemplars import ExemplarStore, herding_selection, random_selection
from repro.core.prototypes import PrototypeStore, compute_class_prototypes
from repro.core.ncm import NCMClassifier
from repro.core.pilote import PILOTE
from repro.core.persistence import load_pilote, save_pilote

__all__ = [
    "PiloteConfig",
    "EmbeddingNetwork",
    "PairSampler",
    "PairBatch",
    "ExemplarStore",
    "herding_selection",
    "random_selection",
    "PrototypeStore",
    "compute_class_prototypes",
    "NCMClassifier",
    "PILOTE",
    "save_pilote",
    "load_pilote",
]
