"""Shared infrastructure for incremental-learning baselines.

Two families of baselines exist in this reproduction:

* embedding-space methods built directly on the PILOTE machinery (the paper's
  *Pre-trained* and *Re-trained* strategies) — these reuse
  :class:`repro.core.pilote.PILOTE`;
* classifier-head methods from the continual-learning literature (fine-tuning,
  LwF, iCaRL, GDumb, EWC, joint training) — these use the
  :class:`SoftmaxClassifier` defined here (backbone + linear head trained with
  cross-entropy).
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.backend import get_backend
from repro.core.pilote import PILOTE
from repro.data.dataset import HARDataset
from repro.exceptions import ConfigurationError, DataError, NotFittedError
from repro.nn.layers import Linear, Sequential, build_mlp
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.schedulers import HalvingLR
from repro.nn.trainer import EarlyStopping, Trainer, TrainingHistory
from repro.utils.rng import RandomState, resolve_rng


def clone_pretrained(learner: PILOTE) -> PILOTE:
    """Deep copy of a pre-trained PILOTE learner.

    The paper evaluates the Re-trained baseline and PILOTE "based on the same
    pre-trained model"; cloning the pre-trained learner is how the experiment
    harness guarantees that.
    """
    return copy.deepcopy(learner)


class IncrementalLearner(abc.ABC):
    """Common interface of every incremental-learning method in the library."""

    #: Human-readable method name used in result tables.
    name: str = "incremental-learner"

    @abc.abstractmethod
    def fit_base(
        self, train: HARDataset, validation: Optional[HARDataset] = None
    ) -> "IncrementalLearner":
        """Train on the initially available (old-class) data."""

    @abc.abstractmethod
    def learn_increment(
        self, new_train: HARDataset, new_validation: Optional[HARDataset] = None
    ) -> "IncrementalLearner":
        """Integrate new-class data arriving after the base training."""

    @abc.abstractmethod
    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict class ids for feature rows."""

    def evaluate(self, dataset: HARDataset) -> float:
        """Accuracy on a labelled dataset."""
        predictions = self.predict(dataset.features)
        return float(np.mean(predictions == dataset.labels))

    @property
    @abc.abstractmethod
    def known_classes(self) -> List[int]:
        """Class ids the learner can currently predict."""


@dataclass(frozen=True)
class ClassifierConfig:
    """Hyper-parameters of the classifier-head baselines."""

    hidden_dims: Tuple[int, ...] = (128, 64)
    embedding_dim: int = 32
    learning_rate: float = 0.01
    batch_size: int = 32
    max_epochs: int = 20
    early_stopping_threshold: float = 1e-4
    early_stopping_patience: int = 5
    batch_norm: bool = True
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.hidden_dims or any(h <= 0 for h in self.hidden_dims):
            raise ConfigurationError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if self.embedding_dim <= 0:
            raise ConfigurationError(f"embedding_dim must be positive, got {self.embedding_dim}")
        if self.learning_rate <= 0 or self.batch_size <= 1 or self.max_epochs <= 0:
            raise ConfigurationError("learning_rate, batch_size and max_epochs must be positive")


class SoftmaxClassifier(Module):
    """Backbone MLP plus a linear classification head.

    The head can be expanded when new classes appear: existing class weights
    are preserved and new rows are initialised fresh, which is the standard
    construction used by LwF/iCaRL-style methods.
    """

    def __init__(
        self,
        input_dim: int,
        n_classes: int,
        config: Optional[ClassifierConfig] = None,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        self.config = config or ClassifierConfig()
        if input_dim <= 0 or n_classes <= 0:
            raise ConfigurationError("input_dim and n_classes must be positive")
        self.input_dim = int(input_dim)
        self.n_classes = int(n_classes)
        self._rng = resolve_rng(rng if rng is not None else self.config.seed)
        layer_sizes = (input_dim,) + tuple(self.config.hidden_dims) + (self.config.embedding_dim,)
        self.backbone: Sequential = build_mlp(
            layer_sizes,
            batch_norm=self.config.batch_norm,
            activation="relu",
            final_activation="relu",
            rng=self._rng,
        )
        self.head = Linear(self.config.embedding_dim, n_classes, rng=self._rng)

    # ------------------------------------------------------------------ #
    def forward(self, inputs) -> Tensor:
        tensor = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        return self.head(self.backbone(tensor))

    def embed(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Penultimate (backbone) representation, inference mode."""
        return self._infer(features, batch_size, self.backbone.array_forward)

    def logits(self, features: np.ndarray, batch_size: int = 512) -> np.ndarray:
        """Class logits, inference mode."""
        return self._infer(features, batch_size, self.array_forward)

    def array_forward(self, inputs: np.ndarray) -> np.ndarray:
        return self.head.array_forward(self.backbone.array_forward(inputs))

    @staticmethod
    def _infer(features: np.ndarray, batch_size: int, program) -> np.ndarray:
        """Run the eval-mode array ``program`` over row chunks (no tape, no
        train/eval flip)."""
        features = get_backend().asarray(features)
        if features.ndim == 1:
            features = features[None, :]
        return np.concatenate([
            program(features[start:start + batch_size])
            for start in range(0, features.shape[0], batch_size)
        ], axis=0)

    def expand_classes(self, n_new_classes: int) -> None:
        """Grow the head by ``n_new_classes`` outputs, keeping existing weights."""
        if n_new_classes <= 0:
            raise ConfigurationError(f"n_new_classes must be positive, got {n_new_classes}")
        old_head = self.head
        new_head = Linear(
            self.config.embedding_dim, self.n_classes + n_new_classes, rng=self._rng
        )
        new_head.weight.data[:, : self.n_classes] = old_head.weight.data
        new_head.bias.data[: self.n_classes] = old_head.bias.data
        self.head = new_head
        self.n_classes += int(n_new_classes)


def train_softmax_classifier(
    model: SoftmaxClassifier,
    features: np.ndarray,
    labels: np.ndarray,
    *,
    config: ClassifierConfig,
    validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    extra_loss=None,
    rng: RandomState = None,
) -> TrainingHistory:
    """Train a :class:`SoftmaxClassifier` with cross-entropy (plus an optional extra term).

    ``extra_loss`` — when given — is a callable ``(model, batch_features,
    batch_labels) -> Tensor`` added to the cross-entropy of every mini-batch;
    LwF's logit distillation and EWC's quadratic penalty plug in through it.
    """
    criterion = CrossEntropyLoss()

    def batch_loss(batch_features: np.ndarray, batch_labels: np.ndarray) -> Tensor:
        logits = model(Tensor(batch_features))
        loss = criterion(logits, batch_labels)
        if extra_loss is not None:
            loss = loss + extra_loss(model, batch_features, batch_labels)
        return loss

    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    trainer = Trainer(
        model,
        optimizer,
        scheduler=HalvingLR(optimizer),
        early_stopping=EarlyStopping(
            threshold=config.early_stopping_threshold,
            patience=config.early_stopping_patience,
        ),
        max_epochs=config.max_epochs,
        batch_size=config.batch_size,
        rng=rng if rng is not None else config.seed,
    )
    return trainer.fit(batch_loss, features, labels, validation=validation)


class ClassifierIncrementalLearner(IncrementalLearner):
    """Shared plumbing of the classifier-head baselines.

    Subclasses override :meth:`learn_increment`; the base class handles class
    -id remapping (class ids may be arbitrary integers while the head uses
    contiguous output indices), base training, and prediction.
    """

    name = "classifier-baseline"

    def __init__(self, config: Optional[ClassifierConfig] = None, seed: RandomState = None) -> None:
        self.config = config or ClassifierConfig()
        self._rng = resolve_rng(seed if seed is not None else self.config.seed)
        self.model: Optional[SoftmaxClassifier] = None
        self._class_order: List[int] = []

    # -- class-id mapping ------------------------------------------------ #
    @property
    def known_classes(self) -> List[int]:
        return sorted(self._class_order)

    def _to_indices(self, labels: np.ndarray) -> np.ndarray:
        mapping = {class_id: index for index, class_id in enumerate(self._class_order)}
        try:
            return np.asarray([mapping[int(label)] for label in labels], dtype=np.int64)
        except KeyError as exc:
            raise DataError(f"label {exc.args[0]} is unknown to this learner") from exc

    def _to_class_ids(self, indices: np.ndarray) -> np.ndarray:
        order = np.asarray(self._class_order, dtype=np.int64)
        return order[np.asarray(indices, dtype=np.int64)]

    # -- base phase ------------------------------------------------------ #
    def fit_base(
        self, train: HARDataset, validation: Optional[HARDataset] = None
    ) -> "ClassifierIncrementalLearner":
        self._class_order = [int(c) for c in train.classes]
        self.model = SoftmaxClassifier(
            train.n_features, len(self._class_order), config=self.config, rng=self._rng
        )
        validation_arrays = None
        if validation is not None and validation.n_samples > 1:
            validation_arrays = (validation.features, self._to_indices(validation.labels))
        train_softmax_classifier(
            self.model,
            train.features,
            self._to_indices(train.labels),
            config=self.config,
            validation=validation_arrays,
            rng=self._rng,
        )
        return self

    # -- prediction ------------------------------------------------------ #
    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise NotFittedError(f"{self.name} has not been trained")
        logits = self.model.logits(features)
        return self._to_class_ids(np.argmax(logits, axis=1))

    # -- helpers for subclasses ------------------------------------------ #
    def _register_new_classes(self, new_classes: Sequence[int]) -> None:
        fresh = [int(c) for c in new_classes if int(c) not in self._class_order]
        if not fresh:
            raise DataError("no genuinely new classes in the increment")
        if self.model is None:
            raise NotFittedError("fit_base() must run before learn_increment()")
        self.model.expand_classes(len(fresh))
        self._class_order.extend(fresh)
