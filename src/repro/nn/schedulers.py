"""The paper's learning-rate schedule.

The paper uses an adaptive schedule in which "the learning rate starts from
0.01 and decreases by half every training epoch"; :class:`HalvingLR` is
that schedule, with a floor of :data:`MIN_LR` so the step size cannot
underflow on long runs (it binds from epoch 14 of a 30-epoch pretrain at
0.01).
"""

from __future__ import annotations

from repro.nn.optim import Adam

MIN_LR = 1e-6


class HalvingLR:
    """Halve the optimiser's learning rate after every epoch, down to
    :data:`MIN_LR`: call :meth:`step` once per epoch."""

    def __init__(self, optimizer: Adam) -> None:
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        """Advance one epoch and return the new learning rate."""
        self.epoch += 1
        new_lr = max(self.base_lr * (0.5**self.epoch), MIN_LR)
        self.optimizer.set_lr(new_lr)
        return new_lr
