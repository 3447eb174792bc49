"""Module and parameter abstractions (a small torch.nn.Module analogue)."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.autodiff.tensor import Tensor
from repro.exceptions import SerializationError
from repro.utils.serialization import float32_nbytes


class Parameter(Tensor):
    """A trainable tensor: always requires gradient."""

    def __init__(self, data, name: Optional[str] = None) -> None:
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network components.

    Sub-modules and parameters assigned as attributes are registered
    automatically, enabling recursive parameter collection, train/eval mode
    switching and state-dict (de)serialisation.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # registration machinery
    # ------------------------------------------------------------------ #
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register a non-trainable array that is part of the module state.

        The module keeps a float64 copy of ``value``: a buffer is the
        module's own, so an update in place never writes through to an
        array the caller holds."""
        self._buffers[name] = np.array(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    def update_buffer(self, name: str, value: np.ndarray) -> None:
        """Overwrite a previously registered buffer with a float64 copy of
        ``value``."""
        if name not in self._buffers:
            raise KeyError(f"buffer {name!r} is not registered")
        self._buffers[name] = np.array(value, dtype=np.float64)
        object.__setattr__(self, name, self._buffers[name])

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs recursively."""
        for name, parameter in self._parameters.items():
            yield f"{prefix}{name}", parameter
        for module_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{module_name}.")

    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module and its children."""
        return [parameter for _, parameter in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        """Yield ``(qualified_name, buffer)`` pairs recursively."""
        for name, buffer in self._buffers.items():
            yield f"{prefix}{name}", buffer
        for module_name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{module_name}.")

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    def parameter_nbytes(self) -> int:
        """Storage footprint of the parameters when serialised as float32."""
        return float32_nbytes(self.num_parameters())

    # ------------------------------------------------------------------ #
    # train / eval state
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        """Switch this module (and children) between training and eval mode."""
        object.__setattr__(self, "training", bool(mode))
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        """Shorthand for ``train(False)``."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    # ------------------------------------------------------------------ #
    # forward
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError("Module subclasses must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------ #
    # state dict
    # ------------------------------------------------------------------ #
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat copy of every parameter and buffer."""
        state: Dict[str, np.ndarray] = OrderedDict()
        for name, parameter in self.named_parameters():
            state[f"param.{name}"] = parameter.data.copy()
        for name, buffer in self.named_buffers():
            state[f"buffer.{name}"] = np.asarray(buffer).copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters and buffers saved by :meth:`state_dict`.

        Both are copied, so the module never shares an array with ``state``.
        """
        parameters = dict(self.named_parameters())
        buffer_owners = self._buffer_owners()
        for key, value in state.items():
            if key.startswith("param."):
                name = key[len("param."):]
                if name not in parameters:
                    raise SerializationError(f"unexpected parameter {name!r} in state dict")
                target = parameters[name]
                value = np.asarray(value, dtype=target.data.dtype)
                if target.data.shape != value.shape:
                    raise SerializationError(
                        f"shape mismatch for parameter {name!r}: "
                        f"expected {target.data.shape}, got {value.shape}"
                    )
                target.data = value.copy()
            elif key.startswith("buffer."):
                name = key[len("buffer."):]
                if name not in buffer_owners:
                    raise SerializationError(f"unexpected buffer {name!r} in state dict")
                owner, local_name = buffer_owners[name]
                owner.update_buffer(local_name, value)
        missing = set(parameters) - {
            k[len("param."):] for k in state if k.startswith("param.")
        }
        if missing:
            raise SerializationError(f"state dict is missing parameters: {sorted(missing)}")

    def _buffer_owners(self, prefix: str = "") -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for name in self._buffers:
            owners[f"{prefix}{name}"] = (self, name)
        for module_name, module in self._modules.items():
            owners.update(module._buffer_owners(prefix=f"{prefix}{module_name}."))
        return owners
