"""Reverse-mode autodiff tensor.

The design follows the classic "define-by-run" tape approach: every operation
on :class:`Tensor` dispatches a *named* op from the backend registry
(:mod:`repro.backend.registry`); the resulting tape records carry the op name
(``Tensor.op``), the parent tensors and a closure computing the local
vector-Jacobian product.  ``Tensor.backward()`` topologically sorts the graph
and accumulates gradients into ``.grad`` for every leaf that requires them;
``Tensor.trace()`` exposes the recorded op sequence for inspection.

Leaf tensors are materialised in the global compute dtype
(:func:`repro.backend.policy.default_dtype` — ``float64`` reference profile by
default, ``float32`` under the edge profile).  Interior nodes follow numpy
promotion from their inputs, so a graph built from ``float64`` leaves stays
``float64`` even while the global policy is ``float32`` — which is what keeps
finite-difference gradient checking exact under an edge policy.

Broadcasting is fully supported: gradients flowing back through broadcast
operations are reduced (summed) over the broadcast axes so that ``t.grad``
always has exactly the shape of ``t.data``.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autodiff.primitives import node_grad
from repro.backend import registry as _registry
from repro.backend.policy import DtypeLike, default_dtype
from repro.backend.registry import apply as _apply
from repro.exceptions import GradientError, ShapeError

ArrayLike = Union[float, int, np.ndarray, Sequence, "Tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (cheaper inference)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; converted to the policy compute dtype by default.
    requires_grad:
        Whether gradients should be accumulated into ``.grad`` on backward.
    name:
        Optional human-readable identifier (used in error messages).
    dtype:
        Explicit dtype override; when omitted, leaves use the global compute
        dtype (:func:`repro.backend.policy.default_dtype`).
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "op", "_backward", "_parents")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: Optional[str] = None,
        dtype: Optional[DtypeLike] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else default_dtype())
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self.name = name
        self.op: Optional[str] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return int(self.data.size)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        op_label = f", op={self.op!r}" if self.op else ""
        return f"Tensor(shape={self.shape}{grad_flag}{label}{op_label})"

    def numpy(self) -> np.ndarray:
        """Return the underlying data as a (read-write) numpy array."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        if self.data.size != 1:
            raise ShapeError(
                f"item() requires a tensor with exactly one element, got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False, name=self.name, dtype=self.data.dtype)

    def astype(self, dtype: DtypeLike) -> "Tensor":
        """A detached copy of this tensor in another dtype."""
        return Tensor(self.data, requires_grad=False, name=self.name, dtype=dtype)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure(value: ArrayLike) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(
        self,
        data: np.ndarray,
        parents: Iterable["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: Optional[str] = None,
    ) -> "Tensor":
        """Create a result tensor, wiring the backward closure when needed.

        The computed dtype is preserved (interior nodes follow numpy promotion
        rather than the leaf policy) and ``op`` names the tape record.
        """
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any([p.requires_grad for p in parents])
        data = np.asarray(data)
        out = Tensor(data, requires_grad=requires, dtype=data.dtype)
        out.op = op
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, shared: bool = True) -> None:
        """Add the cotangent ``grad`` into ``.grad``.

        The first cotangent is kept without a copy when it is not ``shared``
        (the vjp made it for this input alone) or when casting or reducing
        it made a new array; otherwise it is copied, so no two tensors, and
        no op, hold one gradient array.
        """
        data = self.data
        if type(grad) is np.ndarray and grad.dtype == data.dtype and grad.shape == data.shape:
            reduced = grad  # node_grad would hand it back as it is
        else:
            reduced = node_grad(grad, data)
        if self.grad is None:
            copy = shared and (reduced is grad or np.may_share_memory(reduced, grad))
            self.grad = reduced.copy() if copy else reduced
        else:
            self.grad = self.grad + reduced

    # ------------------------------------------------------------------ #
    # tape inspection
    # ------------------------------------------------------------------ #
    def trace(self) -> List[Tuple[str, Tuple[int, ...]]]:
        """The recorded graph as ``(op name, shape)`` pairs in topological order.

        Leaves (no recorded op) are reported as ``"leaf"``.  Only nodes kept
        alive for the backward pass appear — inference-mode results under
        :func:`no_grad` have an empty tape beyond themselves.
        """
        ordered: List[Tensor] = []
        seen = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                ordered.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        return [(node.op or "leaf", node.shape) for node in ordered]

    # ------------------------------------------------------------------ #
    # arithmetic (dispatched through the op registry)
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _apply("add", self, other)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply("neg", self)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return _apply("sub", self, other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return _apply("sub", self._ensure(other), self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _apply("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _apply("div", self, other)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return _apply("div", self._ensure(other), self)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        return _apply("pow", self, exponent=float(exponent))

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._ensure(other)
        if self.data.ndim < 1 or other.data.ndim < 1:
            raise ShapeError("matmul requires at least 1-dimensional operands")
        return _apply("matmul", self, other)

    # ------------------------------------------------------------------ #
    # elementwise non-linearities
    # ------------------------------------------------------------------ #
    def sqrt(self) -> "Tensor":
        return _apply("sqrt", self)

    def relu(self) -> "Tensor":
        return _apply("relu", self)

    def clamp_min(self, minimum: float) -> "Tensor":
        """Elementwise ``max(x, minimum)`` (sub-gradient 0 where clipped)."""
        return _apply("clamp_min", self, minimum=float(minimum))

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return _apply("sum", self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", self, shape=shape)

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        return _apply("transpose", self, axes=axes)

    @property
    def T(self) -> "Tensor":  # noqa: N802 - mirrors numpy naming
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        return _apply("getitem", self, index=index)

    # ------------------------------------------------------------------ #
    # backward pass
    # ------------------------------------------------------------------ #
    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        gradient:
            Seed gradient.  Defaults to 1.0 and is only optional when the
            tensor is a scalar.
        """
        if not self.requires_grad:
            raise GradientError("called backward() on a tensor that does not require grad")
        data = self.data
        if gradient is None:
            if data.size != 1:
                raise GradientError(
                    "backward() without an explicit gradient requires a scalar output, "
                    f"got shape {data.shape}"
                )
            gradient = np.ones(data.shape, dtype=data.dtype)
            shared = False  # made here: the root's gradient can be this array
        else:
            gradient = np.asarray(gradient, dtype=data.dtype)
            shared = True
            if gradient.shape != data.shape:
                gradient = np.broadcast_to(gradient, data.shape).copy()

        # Interior nodes in topological order.  A leaf has no vjp to run and
        # takes its gradient from its consumers' records, so the walk skips
        # leaves: a one-record tape is one node, however many leaves it has.
        ordered: List[Tensor] = []
        visited = set()
        stack = [(self, False)]
        while stack:
            current, processed = stack.pop()
            if processed:
                ordered.append(current)
                continue
            if id(current) in visited:
                continue
            visited.add(id(current))
            stack.append((current, True))
            for parent in current._parents:
                if parent._backward is not None and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(gradient, shared)
        for node in reversed(ordered):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # comparisons return plain numpy (no gradient flows through them)
    # ------------------------------------------------------------------ #
    def __gt__(self, other: ArrayLike) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data > other

    def __lt__(self, other: ArrayLike) -> np.ndarray:
        other = other.data if isinstance(other, Tensor) else other
        return self.data < other


# Bind the tensor class into the registry (breaks the import cycle); importing
# the primitives above registered every op the methods dispatch.
_registry.bind_tensor(Tensor)
