"""Every op in the backend registry, checked the same way.

One case per registered op builds it through its public entry point (a
``Tensor`` method or operator, or a function of :mod:`repro.autodiff.ops`)
from small random leaves.  Each case is checked for:

* its vjp, against central finite differences in ``float64`` (a fixed
  weighted sum of the output, so no cotangent is trivially uniform);
* the edge profile's dtype: ``float32`` leaves give a ``float32`` output and
  ``float32`` gradients;
* inference mode: under :func:`~repro.autodiff.tensor.no_grad` the result
  records no parents, so nothing is kept alive for a backward pass.

A new op registered without a case here fails
``test_every_registered_op_has_a_case``.  The binary operators' gradients
are also checked across broadcast shapes, where the vjp must sum the
cotangent back over the broadcast axes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.primitives import batch_norm_eval_constants
from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import precision
from repro.backend import registry
from repro.backend.registry import list_ops

_RUNNING_MEAN = np.array([0.1, -0.2, 0.3])
_RUNNING_VAR = np.array([0.5, 1.5, 2.0])
_STEP_LAYERS = (("linear", None), ("relu", None), ("linear", None))
_STEP_PAIRS = dict(
    left=np.array([0, 0, 1, 2, 3]),
    right=np.array([1, 2, 3, 4, 4]),
    same_class=np.array([True, False, False, True, False]),
    margin=1.0,
)


def _batch_norm_eval(t):
    # the constants in the policy dtype, as BatchNorm1d caches them
    constants = batch_norm_eval_constants(_RUNNING_MEAN, _RUNNING_VAR, 1e-5)
    return ops.batch_norm_eval(t[0], t[1], t[2], *constants)


def _step(t):
    loss, _ = ops.pilote_step(t[0], t[1:], layers=_STEP_LAYERS, **_STEP_PAIRS)
    return loss


#: op name -> (input shapes, whether inputs must be positive, the call).
CASES = {
    "add": ([(3, 4), (3, 4)], False, lambda t: t[0] + t[1]),
    "sub": ([(3, 4), (3, 4)], False, lambda t: t[0] - t[1]),
    "mul": ([(3, 4), (3, 4)], False, lambda t: t[0] * t[1]),
    "div": ([(3, 4), (3, 4)], True, lambda t: t[0] / t[1]),
    "neg": ([(3, 4)], False, lambda t: -t[0]),
    "pow": ([(3, 4)], True, lambda t: t[0] ** 2.5),
    "sqrt": ([(3, 4)], True, lambda t: t[0].sqrt()),
    "relu": ([(3, 4)], False, lambda t: t[0].relu()),
    "clamp_min": ([(3, 4)], False, lambda t: t[0].clamp_min(0.25)),
    "matmul": ([(3, 4), (4, 2)], False, lambda t: t[0] @ t[1]),
    "sum": ([(3, 4)], False, lambda t: t[0].sum(axis=1, keepdims=True)),
    "reshape": ([(3, 4)], False, lambda t: t[0].reshape(2, 6)),
    "transpose": ([(2, 3, 4)], False, lambda t: t[0].transpose((2, 0, 1))),
    "getitem": ([(5, 3)], False, lambda t: t[0][np.array([4, 0, 0, 2])]),
    "linear": ([(4, 3), (3, 2), (2,)], False, lambda t: ops.linear(t[0], t[1], t[2])),
    "batch_norm_train": (
        [(5, 3), (3,), (3,)], False,
        lambda t: ops.batch_norm_train(t[0], t[1], t[2], 1e-5)[0],
    ),
    "batch_norm_eval": ([(5, 3), (3,), (3,)], False, _batch_norm_eval),
    "pairwise_squared_distance": (
        [(4, 3), (4, 3)], False, lambda t: ops.pairwise_squared_distance(t[0], t[1]),
    ),
    "pilote_step": ([(5, 4), (4, 6), (6,), (6, 3), (3,)], False, _step),
}


def _leaves(name, seed=0):
    shapes, positive, _ = CASES[name]
    rng = np.random.default_rng(seed)
    leaves = []
    for shape in shapes:
        data = rng.normal(size=shape)
        if positive:
            data = np.abs(data) + 0.5
        leaves.append(Tensor(data, requires_grad=True))
    return leaves


def _weighted(output, seed=1):
    weights = np.random.default_rng(seed).normal(size=output.shape)
    return (output * Tensor(weights, dtype=output.dtype)).sum()


def test_every_registered_op_has_a_case():
    assert sorted(CASES) == sorted(list_ops())


@pytest.mark.parametrize("name", sorted(CASES))
def test_vjp_matches_finite_differences(name):
    call = CASES[name][2]
    with precision("float64"):
        leaves = _leaves(name)
        assert check_gradients(lambda t: _weighted(call(t)), leaves)


@pytest.mark.parametrize("name", sorted(CASES))
def test_edge_precision_keeps_float32(name):
    call = CASES[name][2]
    with precision("edge"):
        leaves = _leaves(name)
        assert all(leaf.dtype == np.float32 for leaf in leaves)
        output = call(leaves)
        assert output.op == name
        assert output.dtype == np.float32
        _weighted(output).backward()
    for leaf in leaves:
        assert leaf.grad is not None
        assert leaf.grad.dtype == np.float32
        assert leaf.grad.shape == leaf.shape
        assert np.all(np.isfinite(leaf.grad))


@pytest.mark.parametrize("name", sorted(CASES))
def test_no_grad_records_no_parents(name):
    call = CASES[name][2]
    leaves = _leaves(name)
    recorded = call(leaves)
    with no_grad():
        inferred = call(leaves)
    assert recorded.requires_grad and len(recorded.trace()) > 1
    assert not inferred.requires_grad
    assert inferred.trace() == [(name, inferred.shape)]
    assert np.array_equal(inferred.data, recorded.data)


#: (left shape, right shape) pairs that broadcast differently.
BROADCASTS = [
    ((3, 4), (4,)),
    ((3, 1), (1, 4)),
    ((3, 4), ()),
    ((1, 4), (3, 4)),
]
BINARY = {
    "add": lambda t: t[0] + t[1],
    "sub": lambda t: t[0] - t[1],
    "mul": lambda t: t[0] * t[1],
    "div": lambda t: t[0] / t[1],
}


def _shapes_id(shapes):
    return "-".join("x".join(map(str, shape)) or "scalar" for shape in shapes)


@pytest.mark.parametrize("shapes", BROADCASTS, ids=_shapes_id)
@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_op_gradients_sum_over_broadcast_axes(name, shapes):
    rng = np.random.default_rng(3)
    with precision("float64"):
        leaves = [
            Tensor(np.abs(rng.normal(size=shape)) + 0.5, requires_grad=True)
            for shape in shapes
        ]
        assert check_gradients(lambda t: _weighted(BINARY[name](t)), leaves)
        leaves[0].zero_grad()
        leaves[1].zero_grad()
        _weighted(BINARY[name](leaves)).backward()
    for leaf in leaves:
        assert leaf.grad.shape == leaf.shape


def _arrays(value):
    """Every ndarray inside ``value`` (nested tuples and lists)."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_leaf_holds_a_gradient_array_of_its_own(name, monkeypatch):
    """A leaf keeps a fresh cotangent without copying it, so none may be an
    array the op saved, the upstream gradient, or another leaf's."""
    contexts = []

    class RecordingContext(registry.OpContext):
        __slots__ = ()

        def __init__(self, op_name):
            super().__init__(op_name)
            contexts.append(self)

    monkeypatch.setattr(registry, "OpContext", RecordingContext)
    leaves = _leaves(name)
    output = CASES[name][2](leaves)
    seed = np.random.default_rng(1).normal(size=output.shape)
    output.backward(seed)
    (context,) = contexts
    others = [seed, output.data, *(leaf.data for leaf in leaves), *_arrays(context.saved)]
    for position, leaf in enumerate(leaves):
        assert leaf.grad is not None
        others_here = others + [other.grad for other in leaves[:position]]
        assert not any(np.shares_memory(leaf.grad, other) for other in others_here)


def test_both_sides_of_an_add_get_distinct_gradients():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.ones((2, 3)), requires_grad=True)
    (a + b).sum().backward()
    assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
    a.grad[...] = 7.0
    assert np.array_equal(b.grad, np.ones((2, 3)))
