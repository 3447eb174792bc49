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
``batch_norm_eval``) as is ``pairwise_squared_distance``,
so each layer's arithmetic lives here and nowhere else.  Their forwards do
the same numpy calls, in the same order, as the elementwise graphs they
replace — constants materialised in the policy dtype, as a ``Tensor`` leaf
would be — and their vjps walk that graph's backward pass by hand: each
interior cotangent is cast and reduced as ``Tensor._accumulate`` would
(:func:`node_grad`) and contributions are summed in the order the tape
delivered them, so a tape of these ops is bit-identical to the elementwise
graph.  The inference path (:func:`eval_forward`) calls the same
forwards on plain arrays with :data:`~repro.backend.registry.NO_TAPE`, so
serving and training share one implementation of every layer.  Off the
tape the linear op adds its bias into its own product, and ``relu`` and
``batch_norm_eval`` write into their input when a no-tape caller gives it
up (``overwrite``).  They do so only where every operand shares the
written array's dtype, so each step runs the same ufunc on the same
dtypes as out of place, and the bytes do not change.

PILOTE's whole training step is one op, ``pilote_step``.  Its forward runs
the training-mode layer forwards above and the objective (:func:`pilote_loss`:
the contrastive and distillation terms and their α-mix, with the composite
losses' constants), so its loss is the per-layer graph's to the byte.  Its
backward computes every parameter's gradient in closed form from the
layers' saved arrays: BatchNorm by its three-term formula, and the scatter
of the pair and old-row gathers' cotangents as one small GEMM with the ±1
pair-incidence matrix of :func:`pair_incidence`.  Those sums run in another
order than the graph's, so the gradients agree with it to float rounding.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.backend.policy import default_dtype
from repro.backend.registry import NO_TAPE, register_op
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


def _constant(value: float) -> np.generic:
    """A scalar as a ``Tensor`` leaf holds it: in the policy dtype.  A numpy
    scalar promotes exactly as the 0-d array of a leaf would, so every
    result keeps its dtype and bytes."""
    return default_dtype().type(value)

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


def _relu_forward(ctx, a, *, overwrite=False):
    mask = a > 0
    ctx.save(mask)
    return np.multiply(a, mask, out=a if overwrite else None)  # a's dtype either way


def _relu_vjp(ctx, grad):
    (mask,) = ctx.saved
    return (grad * mask,)


register_op("relu", _relu_forward, _relu_vjp, doc="rectified linear unit")


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
# network layers (one op each; see the module docstring)
# --------------------------------------------------------------------------- #


def _linear_forward(ctx, x, weight, bias):
    product = x @ weight
    ctx.save(x, weight, product)
    # the product is this call's own array: off the tape the bias goes into it
    in_place = ctx is NO_TAPE and bias.dtype == product.dtype
    return np.add(product, bias, out=product if in_place else None)


def _linear_vjp(ctx, grad):
    x, weight, product = ctx.saved
    need = ctx.needs_input_grad
    grad_x, grad_weight = _matmul_cotangents(
        x, weight, node_grad(grad, product), need[0], need[1]
    )
    return grad_x, grad_weight, grad


register_op(
    "linear", _linear_forward, _linear_vjp,
    doc="fully connected layer x @ weight + bias",
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


def _batch_norm_eval_forward(ctx, x, gamma, beta, *, mean, std, overwrite=False):
    # Serving and validation run this off the tape.  Given ``x`` to
    # overwrite, every step writes into it and no (n, features) array is
    # allocated; otherwise, or when an operand's dtype differs from x's (a
    # step would round to x's narrower dtype), each step allocates and
    # ``x`` is only read.
    in_place = overwrite and x.dtype == gamma.dtype == beta.dtype == mean.dtype == std.dtype
    out = x if in_place else None
    normalised = np.divide(np.subtract(x, mean, out=out), std, out=out)
    scaled = np.multiply(normalised, gamma, out=out)
    ctx.save(gamma, np.result_type(x, mean), std, normalised, scaled)
    return np.add(scaled, beta, out=out)


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
# PILOTE's training step (one op; see the module docstring)
# --------------------------------------------------------------------------- #

#: Layer kinds a ``pilote_step`` program may chain.
STEP_LAYERS = ("linear", "batch_norm", "relu")


def pair_incidence(left, right, rows, old_rows=None, dtype=None) -> np.ndarray:
    """The ±1 pair-incidence matrix ``D`` of a batch of ``rows`` rows.

    Row ``p`` of the first ``P = len(left)`` holds +1 at ``left[p]`` and −1
    at ``right[p]``, so ``(D @ e)[:P]`` is ``e[left] - e[right]``; the ``R``
    rows after them hold +1 at ``old_rows[r]``, so ``(D @ e)[P:]`` is
    ``e[old_rows]``.  ``Dᵀ @ g`` is then the scatter-add of the gathered
    rows' cotangents ``g`` back onto the batch, in one GEMM.
    """
    pairs = left.shape[0]
    extra = 0 if old_rows is None else old_rows.shape[0]
    matrix = np.zeros((pairs + extra, rows), dtype=dtype or default_dtype())
    positions = np.arange(pairs)
    matrix[positions, left] = 1.0
    matrix[positions, right] -= 1.0  # a self-pair's row stays 0
    if extra:
        matrix[pairs + np.arange(extra), old_rows] = 1.0
    return matrix


def pilote_loss(embeddings, *, left, right, same_class, margin, variant="squared",
                alpha=0.0, old_rows=None, teacher=None) -> np.ndarray:
    """PILOTE's objective over a batch's embeddings, on plain arrays.

    ``α · L_disti + (1 − α) · L_contra``: the contrastive term (paper Eq. 2)
    is the mean over the pairs ``(left[i], right[i])`` with pair labels
    ``same_class``; the distillation term (Algorithm 1, line 11) is the mean
    squared distance of the ``old_rows`` to ``teacher``, the frozen model's
    embeddings of those rows.  With no ``old_rows`` (or ``alpha == 0``) the
    objective is the contrastive term alone; with an empty ``old_rows`` it
    is ``(1 − α) · L_contra``.  This is ``pilote_step``'s objective; the
    validation pass evaluates it on ``EmbeddingNetwork.embed`` output.
    """
    return _objective_forward(embeddings, left, right, same_class, margin, variant,
                              alpha, old_rows, teacher)[0]


def _objective_forward(embeddings, left, right, same_class, margin, variant, alpha,
                       old_rows, teacher):
    # Constants are materialised in the policy dtype, as the composite of
    # row gathers, ContrastiveLoss and DistillationLoss holds them.
    diff = embeddings[left] - embeddings[right]
    distance2 = (diff * diff).sum(axis=1)
    labels = np.asarray(same_class, dtype=default_dtype()).reshape(-1)
    if variant == "squared":
        distance = None
        hinge = np.maximum(_constant(margin * margin) - distance2, 0.0)
        dissimilar = hinge
    else:
        distance = np.sqrt(distance2 + _constant(1e-12))
        hinge = np.maximum(_constant(margin) - distance, 0.0)
        dissimilar = hinge * hinge
    per_pair = labels * distance2 + (_constant(1.0) - labels) * dissimilar
    contrastive = per_pair.sum() * _constant(1.0 / diff.shape[0])
    weight = _constant(1.0 if alpha <= 0.0 or old_rows is None else 1.0 - alpha)
    loss = contrastive * weight
    student_error = None
    if alpha > 0.0 and old_rows is not None and len(old_rows) > 0:
        student_error = embeddings[old_rows] - np.asarray(teacher, dtype=default_dtype())
        distillation = (student_error * student_error).sum(axis=1).sum()
        loss = distillation * _constant(1.0 / len(old_rows)) * _constant(alpha) + loss
    saved = (embeddings.shape[0], left, right, old_rows, diff, labels, hinge, distance,
             weight, alpha, student_error)
    return np.asarray(loss, dtype=embeddings.dtype), saved


def _objective_vjp(grad, saved):
    """Cotangent of the embeddings given the loss's cotangent ``grad``."""
    (rows, left, right, old_rows, diff, labels, hinge, distance, weight, alpha,
     student_error) = saved
    # d(per-pair loss)/d(d²): y - (1 - y)·[m² > d²] (squared form) or
    # y - (1 - y)·hinge/d (Hadsell form, hinge = max(m - d, 0))
    if distance is None:
        slope = labels - (_constant(1.0) - labels) * (hinge > 0.0)
    else:
        slope = labels - (_constant(1.0) - labels) * hinge / distance
    grad_pair = grad * weight * _constant(1.0 / diff.shape[0]) * 2.0
    grad_rows = (grad_pair * slope)[:, None] * diff
    if student_error is None:
        old_rows = None
    else:
        scale = grad * _constant(alpha) * _constant(1.0 / student_error.shape[0]) * 2.0
        grad_rows = np.concatenate([grad_rows, scale * student_error])
    incidence = pair_incidence(left, right, rows, old_rows, diff.dtype)
    return incidence.T @ grad_rows


def eval_forward(x, layers, parameters, norms):
    """The network in eval mode on a plain array, off the tape: the layer
    ops' forwards over ``layers`` and ``parameters`` as :func:`pilote_step`
    takes them, here the ``Parameter`` objects (their arrays are read as
    ``.data``), each BatchNorm normalised by the ``(mean, std)`` of the next
    of ``norms``' ``eval_constants()`` (:func:`batch_norm_eval_constants`),
    so the bytes are the eval-mode tape's.  ``x`` is only read; every later
    array is the program's own, so BatchNorm and ReLU write into the array
    the layer before made (``overwrite``) and the transient peak is one
    layer's output beside the next one's."""
    hidden = x
    values = iter(parameters)
    batch_norms = iter(norms)
    for kind, _ in layers:
        if kind == "linear":
            weight = next(values).data
            hidden = _linear_forward(NO_TAPE, hidden, weight, next(values).data)
        elif kind == "relu":
            hidden = _relu_forward(NO_TAPE, hidden, overwrite=hidden is not x)
        else:
            gamma = next(values).data
            mean, std = next(batch_norms).eval_constants()
            hidden = _batch_norm_eval_forward(
                NO_TAPE, hidden, gamma, next(values).data, mean=mean, std=std,
                overwrite=hidden is not x,
            )
    return hidden


def _pilote_step_forward(ctx, x, *parameters, layers, left, right, same_class,
                         margin, variant="squared", alpha=0.0, old_rows=None,
                         teacher=None, batch_stats=None):
    # The network in training mode (batch statistics in every BatchNorm),
    # through the layer ops' own forwards.  Of each layer's arrays the step
    # keeps only those the closed-form backward reads.  A layer forward
    # stashes its arrays on this step's own context, which is read back at
    # once and finally holds what the step's backward needs.  The linear
    # layer keeps nothing the step needs (its input and weight are at hand),
    # so it runs off the tape and adds its bias into its own product, and a
    # ReLU writes into an array an earlier layer made; either way the ufuncs
    # and their dtypes are the tape's, so the bytes are too.
    saved = []
    hidden = x
    weights = iter(parameters)
    for kind, epsilon in layers:
        if kind == "linear":
            weight = next(weights)
            saved.append((hidden, weight))
            hidden = _linear_forward(NO_TAPE, hidden, weight, next(weights))
        elif kind == "relu":
            hidden = _relu_forward(ctx, hidden, overwrite=hidden is not x)
            saved.append(ctx.saved)  # the mask
        else:
            gamma = next(weights)
            hidden = _batch_norm_train_forward(ctx, hidden, gamma, next(weights),
                                               epsilon=epsilon)
            (_, _, inverse_count, _, mean, _, _, _, variance, _, std, normalised,
             _) = ctx.saved
            if batch_stats is not None:
                batch_stats.append((mean.reshape(-1), variance.reshape(-1)))
            saved.append((gamma, inverse_count, std, normalised))
    loss, objective = _objective_forward(hidden, left, right, same_class, margin, variant,
                                         alpha, old_rows, teacher)
    ctx.save(layers, len(parameters), saved, objective)
    return loss


def _pilote_step_vjp(ctx, grad):
    layers, count, saved, objective = ctx.saved
    upstream = _objective_vjp(grad, objective)
    need_x = ctx.needs_input_grad[0]
    cotangents = [None] * count
    position = count
    input_total = None  # the column sums of a BatchNorm's input cotangent
    for (kind, _), values in zip(reversed(layers), reversed(saved)):
        if kind == "linear":
            inputs, weight = values
            position -= 2
            cotangents[position] = inputs.T @ upstream
            cotangents[position + 1] = (
                upstream.sum(axis=0) if input_total is None else input_total
            )
            input_total = None
            if position or need_x:
                upstream = upstream @ weight.T
        elif kind == "batch_norm":
            # The three-term BatchNorm backward, written with the forward's
            # own 1/n constant k (exact also where k is rounded to a float32
            # policy): with g the normalised rows' cotangent,
            # grad_centred = (g - k·normalised·Σ(g·normalised)) / std and
            # grad_x = grad_centred - k·Σ grad_centred.
            gamma, inverse_count, std, normalised = values
            position -= 2
            cotangents[position] = (upstream * normalised).sum(axis=0)
            cotangents[position + 1] = upstream.sum(axis=0)
            grad_normalised = upstream * gamma
            spread = (grad_normalised * normalised).sum(axis=0) * inverse_count
            grad_centred = (grad_normalised - normalised * spread) / std
            centred_total = grad_centred.sum(axis=0)
            upstream = grad_centred - centred_total * inverse_count
            # Σ grad_x is (1 - n·k)·Σ grad_centred: 0 when k is exactly 1/n
            # (the batch mean subtracts a bias that feeds this layer).  Summing
            # ``upstream`` instead gives rounding noise, which Adam's
            # normalisation turns into lr-sized steps in float32.
            residual = 1.0 - upstream.shape[0] * float(inverse_count)
            input_total = centred_total * np.asarray(residual, dtype=centred_total.dtype)
        else:
            (mask,) = values
            upstream = upstream * mask
            input_total = None
    return (upstream if need_x else None, *cotangents)


register_op(
    "pilote_step", _pilote_step_forward, _pilote_step_vjp,
    doc="PILOTE's training loss over a batch's rows: the training-mode "
        "Linear/BatchNorm1d/ReLU chain, then "
        "alpha * distillation + (1 - alpha) * contrastive",
)
