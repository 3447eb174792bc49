"""The Adam optimiser PILOTE trains with (the paper's only optimiser).

The paper sets only Adam's initial learning rate (0.01, then halved every
epoch by :class:`~repro.nn.schedulers.HalvingLR`); the moment decay rates
and the denominator's epsilon are Kingma & Ba's defaults, kept as the
constants :data:`BETA1`, :data:`BETA2` and :data:`EPSILON`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class _FlatGroup:
    """Parameters of one dtype laid end to end: their values as one flat
    buffer that each packed parameter's ``data`` views, and their Adam
    moments as two more (zero until a parameter's first gradient).  A
    step's gathered gradient and its temporary are the step's own
    (:meth:`Adam._update`), not the group's."""

    def __init__(self, parameters: List[Parameter]) -> None:
        self.parameters = parameters
        self.bounds = np.cumsum([0] + [p.data.size for p in parameters]).tolist()
        self.values = np.empty(self.bounds[-1], dtype=parameters[0].data.dtype)
        self.first = np.zeros_like(self.values)
        self.second = np.zeros_like(self.values)
        self.views: List[Optional[np.ndarray]] = [None] * len(parameters)

    def pack(self, live: Sequence[int]) -> None:
        """Make each ``live`` parameter's ``data`` its slice of ``values``,
        copying its values in, unless it views that slice already (a
        parameter whose ``data`` was replaced, by ``load_state_dict``, is
        packed again)."""
        for i in live:
            parameter = self.parameters[i]
            if parameter.data is not self.views[i]:
                view = self.values[self.bounds[i]:self.bounds[i + 1]]
                view = view.reshape(parameter.data.shape)
                view[...] = parameter.data
                parameter.data = self.views[i] = view

    def live_rows(self, live: List[int]):
        """Buffer positions of the parameters ``live``."""
        return np.concatenate([
            np.arange(self.bounds[i], self.bounds[i + 1]) for i in live
        ])


class Adam:
    """Adam optimiser (Kingma & Ba, 2015) — the optimiser used by the paper.

    Every parameter of one dtype is updated in one pass over flat buffers,
    in place: the first step that gives a parameter a gradient copies its
    values into the group's flat value buffer and makes its ``data`` a view
    of it, and from then on each step gathers the gradients into one new
    buffer and updates the moments and the values where they lie, with one
    temporary of the same size beside it; both are freed when the step
    returns, so between steps (a validation pass, say) the optimiser holds
    only the values and the two moments.  An array
    read from ``parameter.data`` is therefore that view and changes with
    every step; take a copy (``state_dict()`` does) to keep the values.  A
    parameter whose ``data`` is replaced between steps is packed again.  The
    arithmetic is elementwise and in the per-parameter order, so this is
    bit-identical to updating parameter by parameter.  A parameter whose
    ``grad`` is ``None`` is skipped: its ``data``, value and moments stay
    untouched.
    """

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.set_lr(lr)
        self._step_count = 0
        self._groups: Optional[List[_FlatGroup]] = None

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def set_lr(self, lr: float) -> None:
        """Set the learning rate (the scheduler calls this every epoch)."""
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def _flat_groups(self) -> List[_FlatGroup]:
        if self._groups is None:
            by_dtype: Dict[np.dtype, List[Parameter]] = {}
            for parameter in self.parameters:
                by_dtype.setdefault(parameter.data.dtype, []).append(parameter)
            self._groups = [_FlatGroup(members) for members in by_dtype.values()]
        return self._groups

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - BETA1**self._step_count
        bias_correction2 = 1.0 - BETA2**self._step_count
        for group in self._flat_groups():
            live = [i for i, parameter in enumerate(group.parameters) if parameter.grad is not None]
            if live:
                self._update(group, live, bias_correction1, bias_correction2)

    def _update(self, group: _FlatGroup, live: List[int], bias_correction1: float,
                bias_correction2: float) -> None:
        """Update the values and moments of the ``live`` parameters of
        ``group`` in place; the gathered gradient and the one temporary are
        allocated here and freed on return."""
        group.pack(live)
        parameters = group.parameters
        complete = len(live) == len(parameters)
        if complete:
            values, first, second = group.values, group.first, group.second
        else:
            rows = group.live_rows(live)
            values, first, second = group.values[rows], group.first[rows], group.second[rows]
        gradient = np.concatenate(
            [parameters[i].grad.ravel() for i in live], dtype=values.dtype
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
        if not complete:
            group.values[rows] = values
            group.first[rows] = first
            group.second[rows] = second
