"""The training loop with the paper's schedule and early-stopping rule.

The paper trains with Adam, halves the learning rate every epoch
(:class:`~repro.nn.schedulers.HalvingLR`) and stops "when the difference of
validation loss between epochs is less than a small threshold, 0.0001 for
five consecutive steps" (:class:`EarlyStopping`); :class:`Trainer` takes all
three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import get_backend
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.schedulers import HalvingLR
from repro.utils.clock import perf_seconds
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, resolve_rng

logger = get_logger("nn.trainer")


class EarlyStopping:
    """Plateau-based early stopping.

    Training stops once the absolute change in validation loss stays below
    ``threshold`` for ``patience`` consecutive epochs (the paper's rule).
    """

    def __init__(self, threshold: float = 1e-4, patience: int = 5) -> None:
        if patience <= 0:
            raise ValueError(f"patience must be positive, got {patience}")
        self.threshold = float(threshold)
        self.patience = int(patience)
        self._previous: Optional[float] = None
        self._streak = 0

    def update(self, validation_loss: float) -> bool:
        """Record a new validation loss; return ``True`` when training should stop."""
        loss = float(validation_loss)
        if self._previous is not None and abs(self._previous - loss) < self.threshold:
            self._streak += 1
        else:
            self._streak = 0
        self._previous = loss
        return self._streak >= self.patience

    def reset(self) -> None:
        """Clear the internal state so the object can be reused."""
        self._previous = None
        self._streak = 0


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

BatchLossFn = Callable[[np.ndarray, np.ndarray], Tensor]


class Trainer:
    """Mini-batch gradient-descent driver.

    The trainer is loss-agnostic: the caller supplies ``batch_loss``, a
    function mapping a mini-batch ``(X, y)`` to a scalar loss tensor.  This is
    what lets the same loop serve PILOTE's pre-training (contrastive only) and
    its incremental update (the joint objective).  Each epoch shuffles the
    rows, steps ``optimizer`` once a batch, then steps ``scheduler``;
    ``early_stopping`` reads each epoch's validation loss.
    """

    def __init__(
        self,
        model: Module,
        optimizer: Adam,
        *,
        scheduler: HalvingLR,
        early_stopping: EarlyStopping,
        max_epochs: int,
        batch_size: int,
        rng: RandomState = None,
    ) -> None:
        if max_epochs <= 0:
            raise ValueError(f"max_epochs must be positive, got {max_epochs}")
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.model = model
        self.optimizer = optimizer
        self.scheduler = scheduler
        self.early_stopping = early_stopping
        self.max_epochs = int(max_epochs)
        self.batch_size = int(batch_size)
        self._rng = resolve_rng(rng)

    def iterate_minibatches(
        self, features: np.ndarray, labels: np.ndarray
    ) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
        """Yield shuffled mini-batches of ``(features, labels)``."""
        order = self._rng.permutation(features.shape[0])
        for start in range(0, order.size, self.batch_size):
            index = order[start:start + self.batch_size]
            yield features[index], labels[index]

    def fit(
        self,
        batch_loss: BatchLossFn,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        validation: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        validation_loss: Optional[BatchLossFn] = None,
    ) -> TrainingHistory:
        """Run the optimisation loop.

        Parameters
        ----------
        batch_loss:
            Maps a mini-batch to a scalar :class:`Tensor` loss (gradients flow
            through the model captured in its closure).
        features, labels:
            Training arrays; batching and shuffling are handled here.
        validation:
            Optional ``(X_val, y_val)`` used for early stopping; without
            it every epoch up to ``max_epochs`` runs.
        validation_loss:
            Loss to evaluate on the validation split; defaults to ``batch_loss``.

        Arrays not already in the policy compute dtype are cast once, up
        front; arrays in it are used as given.  A step's loss, and with it
        the step's tape, is dropped as soon as the step is done, so no
        validation pass holds the last step's activations.
        """
        history = TrainingHistory()
        evaluate = validation_loss or batch_loss
        backend = get_backend()
        features = backend.asarray(features)
        if validation is not None:
            validation = (backend.asarray(validation[0]), validation[1])
        self.early_stopping.reset()
        for epoch in range(self.max_epochs):
            start_time = perf_seconds()
            self.model.train()
            epoch_losses = []
            for batch_features, batch_labels in self.iterate_minibatches(features, labels):
                if batch_features.shape[0] < 2:
                    continue  # BatchNorm and pair sampling need at least two samples.
                self.optimizer.zero_grad()
                loss = batch_loss(batch_features, batch_labels)
                loss.backward()
                self.optimizer.step()
                epoch_losses.append(float(loss.data))
                del loss  # its tape holds the step's activations
            train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            history.train_losses.append(train_loss)
            history.learning_rates.append(self.optimizer.lr)
            history.epoch_seconds.append(perf_seconds() - start_time)

            if validation is not None:
                self.model.eval()
                val_features, val_labels = validation
                with no_grad():  # evaluated only: recording would build a dead tape
                    val_loss = float(evaluate(val_features, val_labels).data)
                history.validation_losses.append(val_loss)
                if self.early_stopping.update(val_loss):
                    history.stopped_early = True
                    logger.debug("early stopping at epoch %d (val loss %.6f)", epoch + 1, val_loss)
                    break
            self.scheduler.step()
        self.model.eval()
        return history
