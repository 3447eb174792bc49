"""Layers used by the PILOTE backbone: Linear, BatchNorm1d, ReLU, Sequential.

Each layer's arithmetic is one registered op (:mod:`repro.autodiff.primitives`):
``forward`` dispatches it on tensors — one tape record per layer — and
``array_forward`` calls the same op's forward on a plain array with no tape,
in eval mode (tracked BatchNorm statistics).  A chain of
``array_forward`` calls is the network's inference program; it is
bit-identical to the eval-mode ``forward`` and never touches ``training``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.primitives import batch_norm_eval_constants
from repro.autodiff.tensor import Tensor
from repro.backend.policy import default_dtype
from repro.backend.registry import NO_TAPE, get_op
from repro.exceptions import ShapeError
from repro.nn.init import he_uniform, zeros_init
from repro.nn.module import Module, Parameter
from repro.utils.rng import RandomState, resolve_rng


_LINEAR = get_op("linear").forward
_BATCH_NORM_EVAL = get_op("batch_norm_eval").forward
_RELU = get_op("relu").forward

#: BatchNorm1d's running-statistics momentum and variance epsilon (torch's
#: defaults, which the paper's backbone uses).
MOMENTUM = 0.1
EPSILON = 1e-5


class Linear(Module):
    """Fully connected layer computing ``y = x W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionalities.
    rng:
        Seed or generator for weight initialisation (He uniform).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: RandomState = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError(
                f"Linear layer dimensions must be positive, got {in_features}x{out_features}"
            )
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(he_uniform((in_features, out_features), rng=rng), name="weight")
        self.bias = Parameter(zeros_init((out_features,)), name="bias")

    def forward(self, inputs: Tensor) -> Tensor:
        inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        if inputs.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear expected input with {self.in_features} features, got {inputs.shape}"
            )
        return ops.linear(inputs, self.weight, self.bias)

    def array_forward(self, inputs: np.ndarray) -> np.ndarray:
        return _LINEAR(NO_TAPE, inputs, self.weight.data, self.bias.data)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()

    def array_forward(self, inputs: np.ndarray) -> np.ndarray:
        return _RELU(NO_TAPE, inputs)

    def __repr__(self) -> str:
        return "ReLU()"


class BatchNorm1d(Module):
    """Batch normalisation over the feature dimension of ``(batch, features)`` inputs.

    Uses batch statistics during training (with running-average tracking) and
    the tracked statistics at evaluation time, mirroring torch's semantics,
    with momentum :data:`MOMENTUM` and variance epsilon :data:`EPSILON`.
    :meth:`update_buffer`, the statistics' one write path, drops the cached
    eval-mode constants (:meth:`eval_constants`).
    """

    def __init__(self, num_features: int) -> None:
        super().__init__()
        if num_features <= 0:
            raise ShapeError(f"num_features must be positive, got {num_features}")
        self.num_features = int(num_features)
        self.gamma = Parameter(np.ones(num_features), name="gamma")
        self.beta = Parameter(np.zeros(num_features), name="beta")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self._eval_constants: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def forward(self, inputs: Tensor) -> Tensor:
        inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
        if inputs.ndim != 2 or inputs.shape[1] != self.num_features:
            raise ShapeError(
                f"BatchNorm1d expected (batch, {self.num_features}) input, got {inputs.shape}"
            )
        if self.training and inputs.shape[0] > 1:
            output, mean, variance = ops.batch_norm_train(
                inputs, self.gamma, self.beta, EPSILON
            )
            self._update_running(mean, variance, inputs.shape[0])
            return output
        return ops.batch_norm_eval(inputs, self.gamma, self.beta, *self.eval_constants())

    def array_forward(self, inputs: np.ndarray) -> np.ndarray:
        mean, std = self.eval_constants()
        return _BATCH_NORM_EVAL(
            NO_TAPE, inputs, self.gamma.data, self.beta.data, mean=mean, std=std
        )

    def eval_constants(self) -> Tuple[np.ndarray, np.ndarray]:
        """The eval-mode ``(mean, std)`` rows in the policy dtype, cached."""
        cached = self._eval_constants
        if cached is None or cached[0].dtype != default_dtype():
            cached = self._eval_constants = batch_norm_eval_constants(
                self.running_mean, self.running_var, EPSILON
            )
        return cached

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        super().update_buffer(name, value)
        self._eval_constants = None

    def _update_running(self, batch_mean: np.ndarray, batch_var: np.ndarray, batch_size: int) -> None:
        unbiased_var = batch_var * batch_size / max(batch_size - 1, 1)
        new_mean = (1.0 - MOMENTUM) * self.running_mean + MOMENTUM * batch_mean
        new_var = (1.0 - MOMENTUM) * self.running_var + MOMENTUM * unbiased_var
        self.update_buffer("running_mean", new_mean)
        self.update_buffer("running_var", new_var)

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layer_names: List[str] = []
        for index, layer in enumerate(layers):
            name = f"layer{index}"
            setattr(self, name, layer)
            self._layer_names.append(name)

    @property
    def layers(self) -> List[Module]:
        return [getattr(self, name) for name in self._layer_names]

    def append(self, layer: Module) -> "Sequential":
        """Add a layer at the end of the chain."""
        name = f"layer{len(self._layer_names)}"
        setattr(self, name, layer)
        self._layer_names.append(name)
        return self

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for layer in self.layers:
            output = layer(output)
        return output

    def array_forward(self, inputs: np.ndarray) -> np.ndarray:
        output = inputs
        for layer in self.layers:
            output = layer.array_forward(output)
        return output

    def __len__(self) -> int:
        return len(self._layer_names)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __repr__(self) -> str:
        inner = ", ".join(repr(layer) for layer in self.layers)
        return f"Sequential({inner})"


def build_mlp(
    layer_sizes: Sequence[int],
    *,
    rng: RandomState = None,
) -> Sequential:
    """Construct a fully connected network from a list of layer widths.

    ``layer_sizes = [in, h1, ..., out]`` produces ``len(layer_sizes) - 1``
    linear layers.  Batch normalisation and ReLU are applied after every
    layer except the last, matching the paper's backbone description
    (BatchNorm + ReLU on the first four layers, linear projection at the end).
    """
    if len(layer_sizes) < 2:
        raise ShapeError("build_mlp requires at least an input and an output size")
    generator = resolve_rng(rng)
    model = Sequential()
    last_index = len(layer_sizes) - 2
    for index, (fan_in, fan_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
        model.append(Linear(fan_in, fan_out, rng=generator))
        if index < last_index:
            model.append(BatchNorm1d(fan_out))
            model.append(ReLU())
    return model
