"""The Adam optimiser PILOTE trains with (the paper's only optimiser).

The paper sets only Adam's initial learning rate (0.01, then halved every
epoch by :class:`~repro.nn.schedulers.HalvingLR`); the moment decay rates
and the denominator's epsilon are Kingma & Ba's defaults, kept as the
constants :data:`BETA1`, :data:`BETA2` and :data:`EPSILON`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import GradientError
from repro.nn.module import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) — the optimiser used by the paper.

    Every parameter is updated in one pass over flat buffers, in place: the
    optimiser lays the parameters' values end to end in one flat value
    buffer and makes each parameter's ``data`` a view of its slice, beside
    two flat moment buffers.  Each step gathers the gradients into one new
    buffer and updates the moments and the values where they lie, with one
    temporary of the same size beside it; both are freed when the step
    returns, so between steps (a validation pass, say) the optimiser holds
    only the values and the two moments.  An array read from
    ``parameter.data`` is therefore that view and changes with every step;
    take a copy (``state_dict()`` does) to keep the values.  A parameter
    whose ``data`` is replaced between steps (``load_state_dict``) is
    packed again.  The arithmetic is elementwise and in the per-parameter
    order, so this is bit-identical to updating parameter by parameter.

    The parameters must share one dtype, and every step must find a
    gradient on each of them; either failing raises
    :class:`~repro.exceptions.GradientError`.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        dtypes = {parameter.data.dtype for parameter in self.parameters}
        if len(dtypes) > 1:
            raise GradientError(
                f"Adam updates parameters of one dtype, got {sorted(map(str, dtypes))}"
            )
        self.set_lr(lr)
        self._step_count = 0
        self._bounds = np.cumsum([0] + [p.data.size for p in self.parameters]).tolist()
        self._values = np.empty(self._bounds[-1], dtype=dtypes.pop())
        self._first = np.zeros_like(self._values)
        self._second = np.zeros_like(self._values)
        self._views: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._pack()

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def set_lr(self, lr: float) -> None:
        """Set the learning rate (the scheduler calls this every epoch)."""
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def _pack(self) -> None:
        """Make each parameter's ``data`` its slice of the value buffer,
        copying its values in, unless it views that slice already."""
        bounds = self._bounds
        for i, parameter in enumerate(self.parameters):
            if parameter.data is not self._views[i]:
                view = self._values[bounds[i]:bounds[i + 1]].reshape(parameter.data.shape)
                view[...] = parameter.data
                parameter.data = self._views[i] = view

    def step(self) -> None:
        """Update the values and moments in place; the gathered gradient
        and the one temporary are allocated here and freed on return."""
        gradients = [parameter.grad for parameter in self.parameters]
        missing = [i for i, gradient in enumerate(gradients) if gradient is None]
        if missing:
            raise GradientError(
                f"Adam step without a gradient for the parameters at {missing}"
            )
        self._step_count += 1
        bias_correction1 = 1.0 - BETA1**self._step_count
        bias_correction2 = 1.0 - BETA2**self._step_count
        self._pack()
        values, first, second = self._values, self._first, self._second
        gradient = np.concatenate(
            [gradient.ravel() for gradient in gradients], dtype=values.dtype
        )
        term = np.empty_like(gradient)
        # first = beta1 * first + (1 - beta1) * gradient
        first *= BETA1
        first += np.multiply(gradient, 1.0 - BETA1, out=term)
        # second = beta2 * second + (1 - beta2) * gradient**2
        second *= BETA2
        np.square(gradient, out=term)
        term *= 1.0 - BETA2
        second += term
        # values -= lr * (first / bc1) / (sqrt(second / bc2) + epsilon);
        # the gradient is read for the last time above, so its buffer holds
        # the denominator
        np.divide(first, bias_correction1, out=term)
        term *= self.lr
        denominator = np.divide(second, bias_correction2, out=gradient)
        np.sqrt(denominator, out=denominator)
        denominator += EPSILON
        term /= denominator
        values -= term
