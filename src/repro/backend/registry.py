"""Declarative operation registry for the autodiff engine.

The seed implementation defined every tensor operation as an ad-hoc closure
inside a ``Tensor`` method — gradients worked, but the tape was anonymous
(``_backward`` callables with no name), ops could not be tested in isolation,
and there was no seam for alternative backends.  Following the tape/record
idiom of vmad-style engines, each operation is now a registered
:class:`OpSpec` — a named record with a ``forward`` and a ``vjp`` (vector-
Jacobian product) implementation working on raw numpy arrays:

* ``forward(ctx, *arrays, **kwargs) -> ndarray`` computes the result and may
  stash intermediates on ``ctx`` for the backward pass;
* ``vjp(ctx, grad) -> tuple[ndarray | None, ...]`` returns one cotangent per
  input (``None`` for inputs that need no gradient).

:func:`apply` dispatches an op by name over tensors, wiring the resulting
tape record so it carries the op name — making the recorded graph
inspectable (see ``Tensor.trace()``) and each op unit-testable through
:func:`get_op` without building a graph at all.

An op's ``forward`` is also the inference program: called with
:data:`NO_TAPE` instead of an :class:`OpContext` it runs on plain arrays and
keeps nothing for a backward pass.  The network layers are one op each
(``linear``, ``batch_norm_train``/``batch_norm_eval``), so
serving runs the very same layer forwards with no ``Tensor`` at all.
PILOTE's whole training step — layers and objective — is one op
(``pilote_step``): one dispatch and one tape record a step, for PILOTE and
for the Re-trained baseline alike.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

import numpy as np

ForwardFn = Callable[..., np.ndarray]
VjpFn = Callable[..., Tuple[Optional[np.ndarray], ...]]

_REGISTRY: Dict[str, "OpSpec"] = {}

# Set by repro.autodiff.tensor at import time; apply() needs the Tensor class
# but the registry must stay import-cycle-free.
_TENSOR_CLS = None


class OpContext:
    """Per-application scratch space shared between ``forward`` and ``vjp``.

    ``needs_input_grad`` mirrors torch's convention: ``vjp`` implementations
    may skip computing cotangents for inputs whose entry is ``False``.
    """

    __slots__ = ("op_name", "needs_input_grad", "saved", "kwargs")

    def __init__(self, op_name: str) -> None:
        self.op_name = op_name
        self.needs_input_grad: Tuple[bool, ...] = ()
        self.saved: Tuple[Any, ...] = ()
        self.kwargs: Dict[str, Any] = {}

    def save(self, *values: Any) -> None:
        """Stash values needed by the backward pass."""
        self.saved = values


class _NoTape:
    """An :class:`OpContext` stand-in that keeps nothing (thread-safe)."""

    __slots__ = ()
    needs_input_grad: Tuple[bool, ...] = ()

    def save(self, *values: Any) -> None:
        """Discard: no backward pass will read it."""


#: Pass as ``ctx`` to run an op's ``forward`` on plain arrays, off the tape.
NO_TAPE = _NoTape()


class OpSpec:
    """A named, declaratively registered tensor operation."""

    __slots__ = ("name", "forward", "vjp", "doc")

    def __init__(self, name: str, forward: ForwardFn, vjp: VjpFn, doc: str = "") -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp
        self.doc = doc or (forward.__doc__ or "")

    def __repr__(self) -> str:
        return f"OpSpec({self.name!r})"


def register_op(name: str, forward: ForwardFn, vjp: VjpFn, doc: str = "") -> OpSpec:
    """Register an operation; re-registering a name overwrites it."""
    spec = OpSpec(name, forward, vjp, doc)
    _REGISTRY[name] = spec
    return spec


def get_op(name: str) -> OpSpec:
    """Look up a registered op (raises ``KeyError`` with the known names)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no op named {name!r} is registered; known ops: {sorted(_REGISTRY)}"
        ) from None


def list_ops() -> Tuple[str, ...]:  # repro: noqa[repro-unused] test oracle: tests/test_registered_ops.py
    """Sorted names of every registered op."""
    return tuple(sorted(_REGISTRY))


def bind_tensor(tensor_cls) -> None:
    """Called once by ``repro.autodiff.tensor`` to break the import cycle."""
    global _TENSOR_CLS
    _TENSOR_CLS = tensor_cls


def apply(name: str, *inputs, **kwargs):  # repro: noqa[repro-unused] called as _apply; perfbench/tracing.py
    """Apply a registered op to tensors, recording a named tape entry.

    ``inputs`` may mix tensors and array-likes; non-tensors are promoted.
    Keyword arguments are forwarded to the op's ``forward`` and kept on the
    context for the ``vjp``.
    """
    spec = get_op(name)
    tensor_cls = _TENSOR_CLS
    if tensor_cls is None:  # pragma: no cover - tensor module imports first
        from repro.autodiff.tensor import Tensor as tensor_cls  # noqa: N813

    tensors = tuple([
        x if isinstance(x, tensor_cls) else tensor_cls(x) for x in inputs
    ])
    ctx = OpContext(name)
    ctx.needs_input_grad = tuple([t.requires_grad for t in tensors])
    ctx.kwargs = kwargs
    data = spec.forward(ctx, *[t.data for t in tensors], **kwargs)

    def backward(grad: np.ndarray) -> None:
        cotangents = spec.vjp(ctx, grad)
        # A cotangent is shared when it is the upstream gradient, a view of
        # another array, or an array an earlier input already took.
        taken = {id(grad)}
        for tensor, cotangent in zip(tensors, cotangents):
            if cotangent is not None and tensor.requires_grad:
                shared = cotangent.base is not None or id(cotangent) in taken
                tensor._accumulate(cotangent, shared)
                taken.add(id(cotangent))

    return tensors[0]._make(data, tensors, backward, op=name)
