"""Declarative definitions of the primitive tensor operations.

Each primitive is a ``(forward, vjp)`` pair of pure functions over numpy
arrays, registered by name in the backend op registry
(:mod:`repro.backend.registry`).  ``Tensor`` methods dispatch through
``registry.apply`` so every tape record carries the op name — the graph is
inspectable and each rule below is testable in isolation via
``get_op(name)`` without constructing tensors.

Conventions:

* ``forward(ctx, *arrays, **kwargs)`` returns the result array and stashes
  whatever the backward pass needs via ``ctx.save(...)``;
* ``vjp(ctx, grad)`` returns one cotangent per input (``None`` to skip);
  broadcast reduction is handled downstream by ``Tensor._accumulate``.

The network layers are single ops (``linear``, ``batch_norm_train``,
``batch_norm_eval``, ``l2_normalize``) as are ``pairwise_squared_distance``
and PILOTE's whole training objective (``pilote_objective``: the pair and
old-row gathers, the contrastive and distillation terms and their α-mix), so
each layer's arithmetic lives here and nowhere else.  Their forwards do the
same numpy calls, in the same order, as the elementwise graphs they replace
— constants materialised in the policy dtype, as a ``Tensor`` leaf would be
— and their vjps walk that graph's backward pass by hand: each interior
cotangent is cast and reduced as ``Tensor._accumulate`` would
(:func:`node_grad`) and contributions are summed in the order the tape
delivered them; the objective scatters its row gathers' cotangents with
:func:`scatter_rows`, byte-equal to ``np.add.at``.  Training results are
therefore bit-identical to the elementwise graph.  The inference path calls
the same forwards on plain arrays with
:data:`~repro.backend.registry.NO_TAPE`, so serving and training share one implementation of every layer.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.backend.policy import default_dtype
from repro.backend.registry import register_op
from repro.exceptions import ShapeError


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so it matches ``shape`` after a broadcast operation."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def node_grad(grad: np.ndarray, node: np.ndarray) -> np.ndarray:
    """``grad`` as an interior graph node holding ``node`` would receive it:
    cast to the node's dtype and summed over broadcast axes."""
    return _unbroadcast(np.asarray(grad, dtype=node.dtype), node.shape)


def _constant(value: float) -> np.ndarray:
    """A scalar as a ``Tensor`` leaf holds it: in the policy dtype."""
    return np.asarray(value, dtype=default_dtype())


# --------------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------------- #


def _add_forward(ctx, a, b):
    return a + b


def _add_vjp(ctx, grad):
    return grad, grad


register_op("add", _add_forward, _add_vjp, doc="elementwise a + b")


def _neg_forward(ctx, a):
    return -a


def _neg_vjp(ctx, grad):
    return (-grad,)


register_op("neg", _neg_forward, _neg_vjp, doc="elementwise -a")


def _sub_forward(ctx, a, b):
    return a - b


def _sub_vjp(ctx, grad):
    return grad, -grad


register_op("sub", _sub_forward, _sub_vjp, doc="elementwise a - b")


def _mul_forward(ctx, a, b):
    ctx.save(a, b)
    return a * b


def _mul_vjp(ctx, grad):
    a, b = ctx.saved
    return grad * b, grad * a


register_op("mul", _mul_forward, _mul_vjp, doc="elementwise a * b")


def _div_forward(ctx, a, b):
    ctx.save(a, b)
    return a / b


def _div_vjp(ctx, grad):
    a, b = ctx.saved
    grad_a = grad / b if ctx.needs_input_grad[0] else None
    grad_b = -grad * a / (b**2) if ctx.needs_input_grad[1] else None
    return grad_a, grad_b


register_op("div", _div_forward, _div_vjp, doc="elementwise a / b")


def _pow_forward(ctx, a, *, exponent):
    ctx.save(a, exponent)
    return a**exponent


def _pow_vjp(ctx, grad):
    a, exponent = ctx.saved
    return (grad * exponent * a ** (exponent - 1.0),)


register_op("pow", _pow_forward, _pow_vjp, doc="elementwise a ** c for scalar c")


def _matmul_forward(ctx, a, b):
    ctx.save(a, b)
    return a @ b


def _matmul_vjp(ctx, grad):
    a, b = ctx.saved
    return _matmul_cotangents(a, b, grad, *ctx.needs_input_grad)


def _matmul_cotangents(a, b, grad, need_a, need_b):
    if a.ndim == 2 and b.ndim == 2:
        return (
            grad @ b.T if need_a else None,
            a.T @ grad if need_b else None,
        )
    if a.ndim == 1 and b.ndim == 2:
        return (
            grad @ b.T if need_a else None,
            np.outer(a, grad) if need_b else None,
        )
    if a.ndim == 2 and b.ndim == 1:
        return (
            np.outer(grad, b) if need_a else None,
            a.T @ grad if need_b else None,
        )
    if a.ndim == 1 and b.ndim == 1:
        return (
            grad * b if need_a else None,
            grad * a if need_b else None,
        )
    raise ShapeError(  # pragma: no cover - not used by the library
        f"matmul backward unsupported for shapes {a.shape} @ {b.shape}"
    )


register_op("matmul", _matmul_forward, _matmul_vjp, doc="matrix product a @ b")

# --------------------------------------------------------------------------- #
# elementwise non-linearities
# --------------------------------------------------------------------------- #


def _exp_forward(ctx, a):
    out = np.exp(a)
    ctx.save(out)
    return out


def _exp_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * out,)


register_op("exp", _exp_forward, _exp_vjp, doc="elementwise exponential")


def _log_forward(ctx, a):
    ctx.save(a)
    return np.log(a)


def _log_vjp(ctx, grad):
    (a,) = ctx.saved
    return (grad / a,)


register_op("log", _log_forward, _log_vjp, doc="elementwise natural log")


def _sqrt_forward(ctx, a):
    out = np.sqrt(a)
    ctx.save(out)
    return out


def _sqrt_vjp(ctx, grad):
    (out,) = ctx.saved
    return (_sqrt_cotangent(grad, out),)


def _sqrt_cotangent(grad, out):
    # The guard keeps sqrt(0) finite; ``tiny`` is representable in both dtypes.
    return grad * 0.5 / np.maximum(out, np.finfo(out.dtype).tiny)


register_op("sqrt", _sqrt_forward, _sqrt_vjp, doc="elementwise square root")


def _relu_forward(ctx, a):
    mask = a > 0
    ctx.save(mask)
    return a * mask


def _relu_vjp(ctx, grad):
    (mask,) = ctx.saved
    return (grad * mask,)


register_op("relu", _relu_forward, _relu_vjp, doc="rectified linear unit")


def _sigmoid_forward(ctx, a):
    out = 1.0 / (1.0 + np.exp(-a))
    ctx.save(out)
    return out


def _sigmoid_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * out * (1.0 - out),)


register_op("sigmoid", _sigmoid_forward, _sigmoid_vjp, doc="logistic sigmoid")


def _tanh_forward(ctx, a):
    out = np.tanh(a)
    ctx.save(out)
    return out


def _tanh_vjp(ctx, grad):
    (out,) = ctx.saved
    return (grad * (1.0 - out**2),)


register_op("tanh", _tanh_forward, _tanh_vjp, doc="hyperbolic tangent")


def _clamp_min_forward(ctx, a, *, minimum):
    mask = a > minimum
    ctx.save(mask)
    return np.maximum(a, minimum)


def _clamp_min_vjp(ctx, grad):
    (mask,) = ctx.saved
    return (grad * mask,)


register_op(
    "clamp_min", _clamp_min_forward, _clamp_min_vjp,
    doc="elementwise max(a, minimum) with sub-gradient 0 where clipped",
)


def _abs_forward(ctx, a):
    ctx.save(np.sign(a))
    return np.abs(a)


def _abs_vjp(ctx, grad):
    (sign,) = ctx.saved
    return (grad * sign,)


register_op("abs", _abs_forward, _abs_vjp, doc="elementwise absolute value")

# --------------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------------- #


def _sum_forward(ctx, a, *, axis=None, keepdims=False):
    ctx.save(a.shape, axis, keepdims)
    return a.sum(axis=axis, keepdims=keepdims)


def _sum_vjp(ctx, grad):
    shape, axis, keepdims = ctx.saved
    grad = np.asarray(grad)
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (np.broadcast_to(grad, shape),)


register_op("sum", _sum_forward, _sum_vjp, doc="sum reduction over axis")


def _max_forward(ctx, a, *, axis=None, keepdims=False):
    out = a.max(axis=axis, keepdims=keepdims)
    ctx.save(a, out, axis, keepdims)
    return out


def _max_vjp(ctx, grad):
    a, out, axis, keepdims = ctx.saved
    grad = np.asarray(grad)
    if axis is None:
        mask = (a == out).astype(a.dtype)
        mask /= mask.sum()
        return (mask * grad,)
    expanded_max = a.max(axis=axis, keepdims=True)
    mask = (a == expanded_max).astype(a.dtype)
    mask /= mask.sum(axis=axis, keepdims=True)
    if not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return (mask * grad,)


register_op(
    "max", _max_forward, _max_vjp,
    doc="max reduction (gradient split uniformly across ties)",
)

# --------------------------------------------------------------------------- #
# shape manipulation
# --------------------------------------------------------------------------- #


def _reshape_forward(ctx, a, *, shape):
    ctx.save(a.shape)
    return a.reshape(shape)


def _reshape_vjp(ctx, grad):
    (original,) = ctx.saved
    return (np.asarray(grad).reshape(original),)


register_op("reshape", _reshape_forward, _reshape_vjp, doc="view with a new shape")


def _transpose_forward(ctx, a, *, axes=None):
    ctx.save(tuple(np.argsort(axes)) if axes is not None else None)
    return np.transpose(a, axes)


def _transpose_vjp(ctx, grad):
    (inverse,) = ctx.saved
    return (np.transpose(np.asarray(grad), inverse),)


register_op("transpose", _transpose_forward, _transpose_vjp, doc="axis permutation")


def _getitem_forward(ctx, a, *, index):
    ctx.save(a.shape, a.dtype, index)
    return a[index]


def scatter_rows(shape, dtype, index, values) -> np.ndarray:
    """``np.add.at(np.zeros(shape, dtype), index, values)``, byte for byte,
    for a valid 1-D integer ``index`` into the first axis.

    ``np.add.at`` adds one contribution at a time, in index order.  Here
    each contribution goes to slab ``k`` of a zero ``(K + 1, *shape)``
    stack, ``k`` being its occurrence rank in its row (counted from 1; a
    stable sort finds it), and one reduce over the slab axis adds the
    stack.  numpy reduces an outer axis slab by slab, so every element is
    ``((0 + v1) + v2) + ...`` exactly as ``np.add.at`` sums it: slab 0 is
    its zero start (whether or not numpy starts a reduction from its
    identity), and the zero padding after a row's last contribution leaves
    a sum that starts from ``+0.0`` unchanged.  Two cases keep
    ``np.add.at``: a slab of a single element, which would make the slab
    axis numpy's inner loop, summed pairwise; and a stack of ``depth =
    K + 1`` slabs (``K`` the most contributions to one row) whose
    ``depth * shape[0]`` rows exceed eight times the ``count + shape[0]``
    rows ``np.add.at`` touches.  The objective's pair gathers can reach a
    depth of the batch size (one row in every pair, e.g. a ``new_centred``
    batch with a single new-class row), a stack quadratic in the batch.
    The factor 8 sits below the measured speed crossover (float32, 32–128
    columns, 64–256 rows, 16–255 contributions, 2 vCPUs: once the sort's
    fixed cost is paid, the stack is faster up to ~9×, slower from ~14×),
    so the guard costs no speed and keeps the stack's memory linear in the
    contributions and the output.
    """
    count = index.shape[0]
    values = np.asarray(values, dtype=dtype)
    if values.shape != (count,) + tuple(shape[1:]):
        values = np.broadcast_to(values, (count,) + tuple(shape[1:]))
    full_size = math.prod(shape)
    if count == 0 or full_size == 0:
        return np.zeros(shape, dtype=dtype)
    rows = index if index.min() >= 0 else index % shape[0]
    order = np.argsort(rows, kind="stable")
    ordered = rows[order]
    rank = np.empty(count, dtype=np.intp)
    rank[order] = np.arange(1, count + 1) - np.searchsorted(ordered, ordered)
    depth = int(rank.max()) + 1
    if full_size == 1 or depth * shape[0] > 8 * (count + shape[0]):
        full = np.zeros(shape, dtype=dtype)
        np.add.at(full, index, values)
        return full
    slabs = np.zeros((depth,) + tuple(shape), dtype=dtype)
    slabs[rank, rows] = values
    return np.add.reduce(slabs, axis=0)


def _getitem_vjp(ctx, grad):
    shape, dtype, index = ctx.saved
    full = np.zeros(shape, dtype=dtype)
    np.add.at(full, index, np.asarray(grad, dtype=dtype))
    return (full,)


register_op(
    "getitem", _getitem_forward, _getitem_vjp,
    doc="basic/fancy indexing (gradient scattered with np.add.at)",
)

# --------------------------------------------------------------------------- #
# variadic ops
# --------------------------------------------------------------------------- #


def _concatenate_forward(ctx, *arrays, axis=0):
    sizes = [array.shape[axis] for array in arrays]
    ctx.save(np.cumsum([0] + sizes), axis)
    return np.concatenate(arrays, axis=axis)


def _concatenate_vjp(ctx, grad):
    offsets, axis = ctx.saved
    grad = np.asarray(grad)
    pieces = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        slicer = [slice(None)] * grad.ndim
        slicer[axis] = slice(int(start), int(stop))
        pieces.append(grad[tuple(slicer)])
    return tuple(pieces)


register_op(
    "concatenate", _concatenate_forward, _concatenate_vjp,
    doc="concatenation along an existing axis",
)


def _stack_forward(ctx, *arrays, axis=0):
    ctx.save(len(arrays), axis)
    return np.stack(arrays, axis=axis)


def _stack_vjp(ctx, grad):
    count, axis = ctx.saved
    pieces = np.split(np.asarray(grad), count, axis=axis)
    return tuple(np.squeeze(piece, axis=axis) for piece in pieces)


register_op("stack", _stack_forward, _stack_vjp, doc="stacking along a new axis")

# --------------------------------------------------------------------------- #
# network layers (one op each; see the module docstring)
# --------------------------------------------------------------------------- #


def _linear_forward(ctx, x, weight, bias=None):
    product = x @ weight
    ctx.save(x, weight, product)
    return product if bias is None else product + bias


def _linear_vjp(ctx, grad):
    x, weight, product = ctx.saved
    need = ctx.needs_input_grad
    grad_x, grad_weight = _matmul_cotangents(
        x, weight, node_grad(grad, product), need[0], need[1]
    )
    return (grad_x, grad_weight, grad)[:len(need)]


register_op(
    "linear", _linear_forward, _linear_vjp,
    doc="fully connected layer x @ weight (+ bias)",
)


def _scale_shift_vjp(need, grad, normalised, scaled, gamma):
    """Cotangents of ``normalised * gamma + beta`` for ``normalised``, ``gamma``
    and ``beta`` (``None`` where not needed)."""
    grad_scaled = node_grad(grad, scaled)
    grad_normalised = node_grad(grad_scaled * gamma, normalised) if need[0] else None
    grad_gamma = grad_scaled * normalised if need[1] else None
    return grad_normalised, grad_gamma, (grad if need[2] else None)


def batch_norm_eval_constants(running_mean, running_var, epsilon):
    """The ``(mean, std)`` rows ``batch_norm_eval`` normalises by, in the
    policy dtype: ``std = sqrt(running_var + epsilon)``."""
    mean = np.asarray(running_mean.reshape(1, -1), dtype=default_dtype())
    variance = np.asarray(running_var.reshape(1, -1), dtype=default_dtype())
    return mean, np.sqrt(variance + _constant(epsilon))


def _batch_norm_eval_forward(ctx, x, gamma, beta, *, mean, std):
    # No (n, features) temporary outlives its use: this is the serving path.
    normalised = (x - mean) / std
    scaled = normalised * gamma
    ctx.save(gamma, np.result_type(x, mean), std, normalised, scaled)
    return scaled + beta


def _batch_norm_eval_vjp(ctx, grad):
    gamma, centred_dtype, std, normalised, scaled = ctx.saved
    grad_normalised, grad_gamma, grad_beta = _scale_shift_vjp(
        ctx.needs_input_grad, grad, normalised, scaled, gamma
    )
    grad_x = None
    if grad_normalised is not None:
        # the (x - mean) node has the output's shape: only the cast applies
        grad_x = np.asarray(grad_normalised / std, dtype=centred_dtype)
    return grad_x, grad_gamma, grad_beta


register_op(
    "batch_norm_eval", _batch_norm_eval_forward, _batch_norm_eval_vjp,
    doc="batch normalisation with tracked (running) statistics",
)


def _batch_norm_train_forward(ctx, x, gamma, beta, *, epsilon, batch_stats=None):
    inverse_count = _constant(1.0 / x.shape[0])
    total = x.sum(axis=0, keepdims=True)
    mean = total * inverse_count
    centred = x - mean
    squared = centred * centred
    squared_total = squared.sum(axis=0, keepdims=True)
    variance = squared_total * inverse_count
    shifted = variance + _constant(epsilon)
    std = np.sqrt(shifted)
    normalised = centred / std
    scaled = normalised * gamma
    if batch_stats is not None:
        batch_stats[:] = (mean.reshape(-1), variance.reshape(-1))
    ctx.save(
        x, gamma, inverse_count, total, mean, centred, squared, squared_total,
        variance, shifted, std, normalised, scaled,
    )
    return scaled + beta


def _batch_norm_train_vjp(ctx, grad):
    (x, gamma, inverse_count, total, mean, centred, squared, squared_total,
     variance, shifted, std, normalised, scaled) = ctx.saved
    grad_normalised, grad_gamma, grad_beta = _scale_shift_vjp(
        ctx.needs_input_grad, grad, normalised, scaled, gamma
    )
    if grad_normalised is None:
        return None, grad_gamma, grad_beta
    # centred / std
    grad_centred = node_grad(grad_normalised / std, centred)
    grad_std = node_grad(-grad_normalised * centred / (std**2), std)
    # std = sqrt(variance * 1/n + epsilon), variance from sum(centred * centred)
    grad_shifted = node_grad(_sqrt_cotangent(grad_std, std), shifted)
    grad_variance = node_grad(grad_shifted, variance)
    grad_squared_total = node_grad(grad_variance * inverse_count, squared_total)
    grad_squared = node_grad(np.broadcast_to(grad_squared_total, squared.shape), squared)
    # centred * centred hands the same cotangent back twice
    grad_square_term = node_grad(grad_squared * centred, centred)
    grad_centred = grad_centred + grad_square_term
    grad_centred = grad_centred + grad_square_term
    # centred = x - mean, mean = sum(x) * 1/n
    grad_mean = node_grad(-grad_centred, mean)
    grad_total = node_grad(grad_mean * inverse_count, total)
    grad_x = node_grad(grad_centred, x) + node_grad(
        np.broadcast_to(grad_total, x.shape), x
    )
    return grad_x, grad_gamma, grad_beta


register_op(
    "batch_norm_train", _batch_norm_train_forward, _batch_norm_train_vjp,
    doc="batch normalisation with batch statistics (biased variance)",
)


def _l2_normalize_forward(ctx, x, *, axis=-1, epsilon=1e-12):
    squared = x * x
    total = squared.sum(axis=axis, keepdims=True)
    shifted = total + _constant(epsilon)
    norm = np.sqrt(shifted)
    ctx.save(x, axis, squared, total, shifted, norm)
    return x / norm


def _l2_normalize_vjp(ctx, grad):
    x, axis, squared, total, shifted, norm = ctx.saved
    # x / norm
    grad_x = node_grad(grad / norm, x)
    grad_norm = node_grad(-grad * x / (norm**2), norm)
    # norm = sqrt(sum(x * x) + epsilon)
    grad_shifted = node_grad(_sqrt_cotangent(grad_norm, norm), shifted)
    grad_total = node_grad(grad_shifted, total)
    grad_squared = node_grad(np.broadcast_to(grad_total, squared.shape), squared)
    # x * x hands the same cotangent back twice
    grad_square_term = node_grad(grad_squared * x, x)
    grad_x = grad_x + grad_square_term
    return (grad_x + grad_square_term,)


register_op(
    "l2_normalize", _l2_normalize_forward, _l2_normalize_vjp,
    doc="x / sqrt(sum(x * x, axis) + epsilon)",
)


def _squared_distances(a, b):
    """``(diff, squared, row sums)`` of ``a - b``: the distance forward."""
    diff = a - b
    squared = diff * diff
    return diff, squared, squared.sum(axis=-1)


def _squared_distances_vjp(grad, diff, squared):
    """Cotangent of ``diff`` given the row sums' cotangent ``grad``."""
    grad_squared = node_grad(
        np.broadcast_to(np.expand_dims(np.asarray(grad), axis=-1), squared.shape), squared
    )
    # diff * diff hands the same cotangent back twice
    grad_square_term = node_grad(grad_squared * diff, diff)
    return grad_square_term + grad_square_term


def _pairwise_squared_distance_forward(ctx, a, b):
    diff, squared, total = _squared_distances(a, b)
    ctx.save(diff, squared)
    return total


def _pairwise_squared_distance_vjp(ctx, grad):
    diff, squared = ctx.saved
    need_a, need_b = ctx.needs_input_grad
    grad_diff = _squared_distances_vjp(grad, diff, squared)
    return (grad_diff if need_a else None, -grad_diff if need_b else None)


register_op(
    "pairwise_squared_distance",
    _pairwise_squared_distance_forward, _pairwise_squared_distance_vjp,
    doc="row-wise ||a_i - b_i||^2 of two (n, d) matrices",
)

# --------------------------------------------------------------------------- #
# PILOTE's training objective (one op; see the module docstring)
# --------------------------------------------------------------------------- #


def _mean_vjp(grad, per_item, total, inverse_count):
    """Cotangent of ``per_item`` in ``per_item.sum() * inverse_count``."""
    grad_total = node_grad(grad * inverse_count, total)
    return node_grad(np.broadcast_to(grad_total, per_item.shape), per_item)


def _pilote_objective_forward(ctx, embeddings, *, left, right, same_class, margin,
                              variant="squared", alpha=0.0, old_rows=None, teacher=None):
    # contrastive term (paper Eq. 2) over the pairs (left[i], right[i])
    pair_left = embeddings[left]
    pair_right = embeddings[right]
    labels = np.asarray(
        np.asarray(same_class, dtype=pair_left.dtype).reshape(-1), dtype=default_dtype()
    )
    diff, squared, distance2 = _squared_distances(pair_left, pair_right)
    if variant == "squared":
        hinge_input = _constant(margin**2) - distance2
        dissimilar = np.maximum(hinge_input, 0.0)
        hadsell = None
    else:
        shifted = distance2 + _constant(1e-12)
        distance = np.sqrt(shifted)
        hinge_input = _constant(margin) - distance
        hinge = np.maximum(hinge_input, 0.0)
        dissimilar = hinge * hinge
        hadsell = (shifted, distance, hinge)
    similar_part = labels * distance2
    dissimilar_weight = _constant(1.0) - labels
    dissimilar_part = dissimilar_weight * dissimilar
    per_pair = similar_part + dissimilar_part
    total = np.asarray(per_pair.sum())
    inverse_pairs = _constant(1.0 / per_pair.size)
    contrastive = total * inverse_pairs
    contrastive_nodes = (
        pair_left, pair_right, labels, diff, squared, distance2, hinge_input, dissimilar,
        hadsell, similar_part, dissimilar_part, dissimilar_weight, per_pair, total,
        inverse_pairs, contrastive,
    )
    # the α-mix: pure contrastive without a teacher, scaled without old rows
    distillation_nodes = contrastive_weight = None
    if alpha <= 0.0 or old_rows is None:
        loss = contrastive
    elif len(old_rows) == 0:
        contrastive_weight = _constant(1.0 - alpha)
        loss = contrastive * contrastive_weight
    else:
        # distillation term (Algorithm 1, line 11) on the old-class rows
        student = embeddings[old_rows]
        old = np.asarray(teacher, dtype=default_dtype())
        d_diff, d_squared, d_distance2 = _squared_distances(student, old)
        d_total = np.asarray(d_distance2.sum())
        inverse_rows = _constant(1.0 / d_distance2.size)
        distillation = d_total * inverse_rows
        distillation_weight = _constant(alpha)
        contrastive_weight = _constant(1.0 - alpha)
        weighted = (distillation * distillation_weight, contrastive * contrastive_weight)
        loss = weighted[0] + weighted[1]
        distillation_nodes = (
            student, d_diff, d_squared, d_distance2, d_total, inverse_rows, distillation,
            distillation_weight, weighted,
        )
    ctx.save(embeddings, left, right, old_rows, contrastive_nodes, distillation_nodes,
             contrastive_weight)
    return loss


def _pilote_objective_vjp(ctx, grad):
    (embeddings, left, right, old_rows, contrastive_nodes, distillation_nodes,
     contrastive_weight) = ctx.saved
    (pair_left, pair_right, labels, diff, squared, distance2, hinge_input, dissimilar,
     hadsell, similar_part, dissimilar_part, dissimilar_weight, per_pair, total,
     inverse_pairs, contrastive) = contrastive_nodes
    shape, dtype = embeddings.shape, embeddings.dtype
    # the α-mix
    grad_contrastive = grad
    if distillation_nodes is not None:
        (student, d_diff, d_squared, d_distance2, d_total, inverse_rows, distillation,
         distillation_weight, weighted) = distillation_nodes
        grad_distillation = node_grad(
            node_grad(grad, weighted[0]) * distillation_weight, distillation
        )
        grad_contrastive = node_grad(grad, weighted[1])
    if contrastive_weight is not None:
        grad_contrastive = node_grad(grad_contrastive * contrastive_weight, contrastive)
    # contrastive: mean over pairs of y * d² + (1 - y) * hinge
    grad_per_pair = _mean_vjp(grad_contrastive, per_pair, total, inverse_pairs)
    grad_dissimilar = node_grad(
        node_grad(grad_per_pair, dissimilar_part) * dissimilar_weight, dissimilar
    )
    if hadsell is None:
        grad_hinge_input = node_grad(grad_dissimilar * (hinge_input > 0.0), hinge_input)
        grad_from_hinge = -grad_hinge_input
    else:
        shifted, distance, hinge = hadsell
        # hinge * hinge hands the same cotangent back twice
        grad_square_term = node_grad(grad_dissimilar * hinge, hinge)
        grad_hinge = grad_square_term + grad_square_term
        grad_hinge_input = node_grad(grad_hinge * (hinge_input > 0.0), hinge_input)
        grad_distance = node_grad(-grad_hinge_input, distance)
        grad_from_hinge = node_grad(_sqrt_cotangent(grad_distance, distance), shifted)
    grad_distance2 = node_grad(
        node_grad(grad_per_pair, similar_part) * labels, distance2
    ) + node_grad(grad_from_hinge, distance2)
    grad_diff = _squared_distances_vjp(grad_distance2, diff, squared)
    grad_left = node_grad(grad_diff, pair_left)
    grad_right = node_grad(-grad_diff, pair_right)
    # Floating-point sums are not associative: add the row scatters as the
    # tape delivered them, (student rows + left members) + right members.
    grad_embeddings = scatter_rows(shape, dtype, left, grad_left)
    if distillation_nodes is not None:
        grad_student = node_grad(_squared_distances_vjp(
            _mean_vjp(grad_distillation, d_distance2, d_total, inverse_rows),
            d_diff, d_squared,
        ), student)
        grad_embeddings = scatter_rows(shape, dtype, old_rows, grad_student) + grad_embeddings
    return (grad_embeddings + scatter_rows(shape, dtype, right, grad_right),)


register_op(
    "pilote_objective", _pilote_objective_forward, _pilote_objective_vjp,
    doc="PILOTE's loss over a batch's embeddings: alpha * distillation + "
        "(1 - alpha) * contrastive, with the pair and old-row gathers",
)
