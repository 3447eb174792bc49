"""Cloud → edge transfer packaging and byte-size accounting.

What crosses the network exactly once in the MAGNETO pipeline is: the
pre-trained model parameters, the exemplar support set, and the class
prototypes.  :class:`TransferPackage` carries those pieces together with their
float32-serialised sizes, which is the quantity the paper's Q2 analysis uses
("e.g., 2500 exemplars in compressed format would take 3.2 MB of space").
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core.config import PiloteConfig
from repro.core.persistence import pilote_from_state
from repro.core.pilote import PILOTE
from repro.exceptions import NotFittedError, SerializationError
from repro.utils.rng import RandomState
from repro.utils.serialization import float32_nbytes


@dataclass
class TransferPackage:
    """Everything the edge needs to start from the cloud's warm start."""

    model_state: Dict[str, np.ndarray]
    exemplar_features: Dict[int, np.ndarray]
    prototypes: Dict[int, np.ndarray]
    model_bytes: int
    support_set_bytes: int
    prototype_bytes: int
    # Support-set policy of the source learner, so an instantiated device
    # learner manages its exemplars exactly as the cloud learner would.
    exemplar_strategy: str = "herding"

    @property
    def weights_token(self) -> object:
        """The token every learner instantiated from this package carries.

        Owned by the package (created on first use), so all its learners'
        :attr:`~repro.core.embedding.EmbeddingNetwork.weights_token` compare
        equal until one of them rewrites its weights.  The package's
        ``model_state`` is treated as immutable once learners exist; no
        learner writes into it, because each copies it when instantiated.
        """
        token = self.__dict__.get("_weights_token")
        if token is None:
            token = self.__dict__["_weights_token"] = object()
        return token

    @property
    def total_bytes(self) -> int:
        return self.model_bytes + self.support_set_bytes + self.prototype_bytes

    def summary(self) -> Dict[str, float]:
        """Sizes in bytes and megabytes for reporting."""
        return {
            "model_bytes": self.model_bytes,
            "support_set_bytes": self.support_set_bytes,
            "prototype_bytes": self.prototype_bytes,
            "total_bytes": self.total_bytes,
            "total_megabytes": self.total_bytes / 2**20,
        }

    def instantiate_learner(
        self,
        config: PiloteConfig,
        seed: RandomState = None,
        *,
        copy_arrays: bool = True,
    ) -> PILOTE:
        """Materialise an *independent* PILOTE learner from this package.

        This is what happens on every device that receives the package: the
        backbone weights, support set and prototypes are rebuilt into a fresh
        learner through :func:`~repro.core.persistence.pilote_from_state`
        (every package class counts as an old class), so the device can keep
        learning locally without sharing state with the cloud learner or
        with any sibling device.  The fleet layer (:mod:`repro.fleet`) uses
        this to provision many devices from a single cloud broadcast.

        ``copy_arrays=False`` is the copy-on-write path every fleet device
        deploys through (:meth:`~repro.edge.device.FleetDevice.deploy`):
        exemplar rows and prototypes are *shared* with the package instead of
        deep-copied, so a fleet of identical devices costs one support set,
        not N.  Sharing is safe because every mutation path
        (``ExemplarStore.select``/``set_exemplars``, ``PrototypeStore.set``,
        ``_refresh_prototypes``) replaces whole entries rather than writing
        into rows.  The backbone is always private: ``load_state_dict``
        copies its parameters and its BatchNorm running statistics either
        way, because training writes them (``Adam`` updates the parameters
        in place).  The instantiated state is identical either way — ``seed``
        only feeds the learner's *future* training streams.  Either way the
        learner's model carries the package's :attr:`weights_token`.
        """
        if not self.exemplar_features:
            raise SerializationError("the transfer package carries no support set")
        take = np.array if copy_arrays else np.asarray
        state = {f"model/{key}": value for key, value in self.model_state.items()}
        for class_id, rows in self.exemplar_features.items():
            state[f"exemplars/{class_id}"] = take(rows)
        for class_id, prototype in self.prototypes.items():
            state[f"prototypes/{class_id}"] = take(prototype)
        metadata = {
            "config": dataclasses.asdict(config),
            "input_dim": next(iter(self.exemplar_features.values())).shape[1],
            "old_classes": sorted(int(c) for c in self.prototypes),
            "new_classes": [],
            "exemplar_strategy": self.exemplar_strategy,
        }
        learner = pilote_from_state(state, metadata, seed=seed)
        learner.model.weights_token = self.weights_token
        return learner


def package_for_edge(learner: PILOTE) -> TransferPackage:
    """Build a :class:`TransferPackage` from a pre-trained PILOTE learner."""
    if not learner.is_pretrained:
        raise NotFittedError("the learner must be pre-trained before packaging")
    exemplar_features = {
        class_id: learner.exemplars.get(class_id) for class_id in learner.exemplars.classes
    }
    prototypes = {
        class_id: learner.prototypes.get(class_id) for class_id in learner.prototypes.classes
    }
    return TransferPackage(
        model_state=learner.model.state_dict(),
        exemplar_features=exemplar_features,
        prototypes=prototypes,
        model_bytes=learner.model_nbytes(),
        support_set_bytes=learner.support_set_nbytes(),
        prototype_bytes=learner.prototypes.nbytes(),
        exemplar_strategy=learner.exemplars.strategy,
    )


def exemplar_storage_bytes(n_exemplars: int, n_features: int) -> int:
    """Bytes needed to store ``n_exemplars`` feature vectors as float32.

    This is the formula behind the paper's support-set size statements
    (200 exemplars/class × 4 classes × 80 features × 4 B ≈ 256 KB).
    """
    if n_exemplars < 0 or n_features <= 0:
        raise ValueError("n_exemplars must be non-negative and n_features positive")
    return float32_nbytes(int(n_exemplars) * int(n_features))
