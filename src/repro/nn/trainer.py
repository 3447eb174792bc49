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
    """Per-epoch record of a training run.

    ``epoch_seconds`` times each epoch's training steps only: shuffling,
    the batches' losses and backward passes and the optimiser steps.  The
    clock stops before the epoch's validation pass, so an epoch that also
    validates takes longer than its entry, and ``sum(epoch_seconds)`` is
    less than the whole fit.
    """

    train_losses: List[float] = field(default_factory=list)
    validation_losses: List[float] = field(default_factory=list)
    learning_rates: List[float] = field(default_factory=list)
    epoch_seconds: List[float] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def epochs_run(self) -> int:
        return len(self.train_losses)

#: ``(batch features, their row ids in the training array) -> scalar loss``.
BatchLossFn = Callable[[np.ndarray, np.ndarray], Tensor]


class Trainer:
    """Mini-batch gradient-descent driver.

    The trainer is loss-agnostic: the caller supplies ``batch_loss``, a
    function mapping a mini-batch's feature rows and their row ids to a
    scalar loss tensor; the row ids look up whatever else a row carries
    (labels, teacher embeddings).  This is what lets the same loop serve
    PILOTE's pre-training (contrastive only) and its incremental update (the
    joint objective).  Each epoch shuffles the rows, steps ``optimizer`` once
    a batch, then steps ``scheduler``;
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
        self, features: np.ndarray
    ) -> Iterable[Tuple[np.ndarray, np.ndarray]]:
        """Yield shuffled mini-batches of ``(feature rows, row ids)``."""
        order = self._rng.permutation(features.shape[0])
        for start in range(0, order.size, self.batch_size):
            rows = order[start:start + self.batch_size]
            yield features[rows], rows

    def fit(
        self,
        batch_loss: BatchLossFn,
        features: np.ndarray,
        *,
        validation_loss: Optional[Callable[[], float]] = None,
    ) -> TrainingHistory:
        """Run the optimisation loop.

        Parameters
        ----------
        batch_loss:
            Maps a mini-batch's feature rows and their row ids in
            ``features`` to a scalar :class:`Tensor` loss (gradients flow
            through the model captured in its closure).
        features:
            The training rows; batching and shuffling are handled here.
        validation_loss:
            Optional zero-argument function returning the epoch's validation
            loss, called in eval mode with no tape recorded and read by
            early stopping; without it every epoch up to ``max_epochs``
            runs.  It owns its rows, so it can share them with
            ``features`` rather than hold a copy.

        ``features`` not already in the policy compute dtype are cast once,
        up front; in it they are used as given.  A step's loss is read and
        its tape dropped before ``optimizer.step()``, and the gradients are
        released right after it, so neither the update nor a validation
        pass holds the step's activations, nor a validation pass its
        gradients.
        """
        history = TrainingHistory()
        features = get_backend().asarray(features)
        self.early_stopping.reset()
        self.optimizer.zero_grad()
        for epoch in range(self.max_epochs):
            start_time = perf_seconds()
            self.model.train()
            epoch_losses = []
            for batch_features, rows in self.iterate_minibatches(features):
                if batch_features.shape[0] < 2:
                    continue  # BatchNorm and pair sampling need at least two samples.
                loss = batch_loss(batch_features, rows)
                loss.backward()
                epoch_losses.append(float(loss.data))
                del loss  # its tape holds the step's activations
                self.optimizer.step()
                self.optimizer.zero_grad()
            train_loss = float(np.mean(epoch_losses)) if epoch_losses else float("nan")
            history.train_losses.append(train_loss)
            history.learning_rates.append(self.optimizer.lr)
            history.epoch_seconds.append(perf_seconds() - start_time)

            if validation_loss is not None:
                self.model.eval()
                with no_grad():  # evaluated only: recording would build a dead tape
                    val_loss = float(validation_loss())
                history.validation_losses.append(val_loss)
                if self.early_stopping.update(val_loss):
                    history.stopped_early = True
                    logger.debug("early stopping at epoch %d (val loss %.6f)", epoch + 1, val_loss)
                    break
            self.scheduler.step()
        self.model.eval()
        return history
