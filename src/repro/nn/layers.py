"""Layers used by the PILOTE backbone: Linear, BatchNorm1d, ReLU, Sequential.

Each layer's arithmetic is one registered op (:mod:`repro.autodiff.primitives`):
``forward`` dispatches it on tensors — one tape record per layer.  The
layers hold the parameters and BatchNorm's running statistics; the
inference program (:meth:`~repro.core.embedding.EmbeddingNetwork.embed`)
and PILOTE's training step run the same ops' forwards over them on plain
arrays, reading BatchNorm's eval-mode constants from
:meth:`BatchNorm1d.eval_constants`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autodiff import ops
from repro.autodiff.primitives import batch_norm_eval_constants
from repro.autodiff.tensor import Tensor
from repro.backend.policy import default_dtype
from repro.exceptions import ShapeError
from repro.nn.init import he_uniform, zeros_init
from repro.nn.module import Module, Parameter
from repro.utils.rng import RandomState, resolve_rng

#: BatchNorm1d's running-statistics momentum and variance epsilon (torch's
#: defaults, which the paper's backbone uses).
MOMENTUM = 0.1
EPSILON = 1e-5


@lru_cache(maxsize=16)
def _update_constants(mean_dtype: np.dtype, var_dtype: np.dtype, batch_size: int):
    """The scalars of :meth:`BatchNorm1d._update_running` as read-only 0-d
    arrays: ``1 - MOMENTUM`` in float64 (the buffers' dtype), ``MOMENTUM``
    in each batch statistic's dtype, and the batch size and its
    ``max(size - 1, 1)`` in the variance's.  Those are the values the
    formula's Python scalars take on in each operation, so the bytes are the
    same; an operation with a 0-d array skips numpy's slower path for a
    Python scalar."""
    constants = (
        np.asarray(1.0 - MOMENTUM, dtype=np.float64),
        np.asarray(MOMENTUM, dtype=mean_dtype),
        np.asarray(MOMENTUM, dtype=var_dtype),
        np.asarray(batch_size, dtype=var_dtype),
        np.asarray(max(batch_size - 1, 1), dtype=var_dtype),
    )
    for constant in constants:
        constant.flags.writeable = False
    return constants


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

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()

    def __repr__(self) -> str:
        return "ReLU()"


class BatchNorm1d(Module):
    """Batch normalisation over the feature dimension of ``(batch, features)`` inputs.

    Uses batch statistics during training (with running-average tracking) and
    the tracked statistics at evaluation time, mirroring torch's semantics,
    with momentum :data:`MOMENTUM` and variance epsilon :data:`EPSILON`.
    The statistics have two write paths, :meth:`update_buffer` and a
    training step's in-place update; both drop the cached eval-mode
    constants (:meth:`eval_constants`).
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
        """Fold a batch's statistics into the running ones, in place:
        ``running = (1 - MOMENTUM) * running + MOMENTUM * batch``, with the
        batch variance made unbiased, each product and sum rounded as that
        formula rounds it.  The buffers are this module's own (see
        :meth:`Module.register_buffer`); the cached eval constants are
        dropped."""
        decay, mean_momentum, var_momentum, count, dof = _update_constants(
            batch_mean.dtype, batch_var.dtype, batch_size
        )
        unbiased_var = batch_var * count / dof
        mean, variance = self.running_mean, self.running_var
        mean *= decay
        mean += mean_momentum * batch_mean
        variance *= decay
        variance += var_momentum * unbiased_var
        self._eval_constants = None

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
