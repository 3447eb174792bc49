"""Gradient-descent optimisers (SGD with momentum, Adam)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimiser interface: ``zero_grad`` / ``step`` over a parameter list."""

    def __init__(self, parameters: Sequence[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear gradients on every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        """Update the learning rate (used by the schedulers)."""
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for parameter in self.parameters:
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            if self.weight_decay:
                gradient = gradient + self.weight_decay * parameter.data
            if self.momentum:
                velocity = self._velocity.get(id(parameter))
                if velocity is None:
                    velocity = np.zeros_like(parameter.data)
                velocity = self.momentum * velocity + gradient
                self._velocity[id(parameter)] = velocity
                update = velocity
            else:
                update = gradient
            parameter.data = parameter.data - self.lr * update


class _FlatGroup:
    """Parameters of one dtype laid end to end, with their Adam moments as
    two flat buffers (zero until a parameter's first gradient)."""

    def __init__(self, parameters: List[Parameter]) -> None:
        self.parameters = parameters
        self.bounds = np.cumsum([0] + [p.data.size for p in parameters]).tolist()
        self.first = np.zeros(self.bounds[-1], dtype=parameters[0].data.dtype)
        self.second = np.zeros_like(self.first)

    def live_rows(self, live: List[int]):
        """Buffer positions of the parameters ``live`` (all rows when every
        parameter is live)."""
        if len(live) == len(self.parameters):
            return slice(None)
        return np.concatenate([
            np.arange(self.bounds[i], self.bounds[i + 1]) for i in live
        ])


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) — the optimiser used by the paper.

    Every parameter of one dtype is updated in one pass over a flat buffer:
    the gradients and values are concatenated, the moments live flat, and
    the new values are scattered back as views.  The arithmetic is
    elementwise, so this is bit-identical to updating parameter by
    parameter.  A parameter whose ``grad`` is ``None`` is skipped: its value
    and moments stay untouched.
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        betas: tuple = (0.9, 0.999),
        epsilon: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.weight_decay = float(weight_decay)
        self._step_count = 0
        self._groups: Optional[List[_FlatGroup]] = None

    def _flat_groups(self) -> List[_FlatGroup]:
        if self._groups is None:
            by_dtype: Dict[np.dtype, List[Parameter]] = {}
            for parameter in self.parameters:
                by_dtype.setdefault(parameter.data.dtype, []).append(parameter)
            self._groups = [_FlatGroup(members) for members in by_dtype.values()]
        return self._groups

    def step(self) -> None:
        self._step_count += 1
        bias_correction1 = 1.0 - self.beta1**self._step_count
        bias_correction2 = 1.0 - self.beta2**self._step_count
        for group in self._flat_groups():
            parameters = group.parameters
            live = [i for i, parameter in enumerate(parameters) if parameter.grad is not None]
            if not live:
                continue
            rows = group.live_rows(live)
            gradient = np.concatenate([parameters[i].grad.ravel() for i in live])
            values = np.concatenate([parameters[i].data.ravel() for i in live])
            if self.weight_decay:
                gradient = gradient + self.weight_decay * values
            first = self.beta1 * group.first[rows] + (1.0 - self.beta1) * gradient
            second = self.beta2 * group.second[rows] + (1.0 - self.beta2) * gradient**2
            group.first[rows] = first
            group.second[rows] = second
            corrected_first = first / bias_correction1
            corrected_second = second / bias_correction2
            updated = values - self.lr * corrected_first / (
                np.sqrt(corrected_second) + self.epsilon
            )
            offset = 0
            for i in live:
                parameter = parameters[i]
                size = parameter.data.size
                parameter.data = updated[offset:offset + size].reshape(parameter.data.shape)
                offset += size
