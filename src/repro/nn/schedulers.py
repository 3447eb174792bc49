"""Learning-rate schedulers.

The paper uses an adaptive schedule in which "the learning rate starts from
0.01 and decreases by half every training epoch"; that behaviour is provided
by :class:`HalvingLR`.
"""

from __future__ import annotations

from repro.nn.optim import Optimizer


class LRScheduler:
    """Base scheduler: call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        """Advance one epoch and return the new learning rate."""
        self.epoch += 1
        new_lr = self.compute_lr(self.epoch)
        self.optimizer.set_lr(new_lr)
        return new_lr

    def compute_lr(self, epoch: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class HalvingLR(LRScheduler):
    """Halve the learning rate after every epoch (paper's schedule).

    A ``min_lr`` floor prevents the step size underflowing to zero on long runs.
    """

    def __init__(self, optimizer: Optimizer, min_lr: float = 1e-6) -> None:
        super().__init__(optimizer)
        if min_lr <= 0:
            raise ValueError(f"min_lr must be positive, got {min_lr}")
        self.min_lr = float(min_lr)

    def compute_lr(self, epoch: int) -> float:
        return max(self.base_lr * (0.5**epoch), self.min_lr)

