"""One op per layer, and one for PILOTE's training step, against the
elementwise graphs and kernels they replaced.

Each network layer (``linear``, ``batch_norm_train``, ``batch_norm_eval``)
and the loss's ``pairwise_squared_distance`` is a single
registered op whose forward and vjp redo, by hand, the arithmetic of the
elementwise ``Tensor`` graph that used to implement it: every forward and
every input cotangent must be ``np.array_equal`` to it (``EmbeddingNetwork
.forward`` builds its tape from these ops).  The composite forms survive
below only as references,
together with the composite objective (gathers through ``getitem``, whose
vjp scatters with ``np.add.at``, then ``ContrastiveLoss`` and
``DistillationLoss``), the per-parameter Adam loop and the
``triu_indices``/``np.isin`` pair sampler.

PILOTE's training step (``pilote_step``: the layers and the objective, with
a closed-form backward) sums in another order, so it is checked against the
layer ops plus the composite objective to float rounding, and a whole
reference-precision pretrain + increment + predict run against one with
every composite form swapped back in to ``rtol=1e-8`` (``atol=1e-9``),
with equal predictions.  Two runs of the program itself are byte-identical.
"""

from __future__ import annotations

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff import tensor as autodiff_tensor
from repro.core import pilote as pilote_module
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.primitives import batch_norm_eval_constants
from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import get_backend, precision
from repro.core.embedding import EMBED_ROWS, EmbeddingNetwork
from repro.core.pairs import PairBatch, PairSampler, upper_triangle
from repro.core.pilote import PILOTE
from repro.edge.transfer import package_for_edge
from repro.evaluation.runner import retrained_increment
from repro.exceptions import DataError, ShapeError
from repro.nn.layers import EPSILON, MOMENTUM, BatchNorm1d, Linear
from repro.nn.losses import ContrastiveLoss, DistillationLoss
from repro.nn.module import Parameter
from repro.nn import optim as optim_module
from repro.nn.optim import BETA1, BETA2, Adam
from repro.nn.optim import EPSILON as ADAM_EPSILON
from repro.nn.trainer import Trainer

# --------------------------------------------------------------------------- #
# the composite references (the code the single ops replaced)
# --------------------------------------------------------------------------- #


def composite_linear(x, weight, bias):
    return x @ weight + bias


def composite_batch_norm_train(x, gamma, beta, epsilon):
    mean = x.mean(axis=0, keepdims=True)
    centred = x - mean
    variance = (centred * centred).mean(axis=0, keepdims=True)
    normalised = centred / (variance + epsilon).sqrt()
    return normalised * gamma + beta, mean.data.reshape(-1), variance.data.reshape(-1)


def composite_batch_norm_eval(x, gamma, beta, running_mean, running_var, epsilon):
    mean = Tensor(running_mean.reshape(1, -1))
    variance = Tensor(running_var.reshape(1, -1))
    normalised = (x - mean) / (variance + epsilon).sqrt()
    return normalised * gamma + beta


def composite_pairwise_squared_distance(a, b):
    if a.shape != b.shape:
        raise ShapeError(f"pairwise distance requires equal shapes, got {a.shape} and {b.shape}")
    diff = a - b
    return (diff * diff).sum(axis=-1)


def composite_linear_forward(self, inputs):
    inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    return composite_linear(inputs, self.weight, self.bias)


def composite_batch_norm_forward(self, inputs):
    inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    if self.training and inputs.shape[0] > 1:
        output, mean, variance = composite_batch_norm_train(
            inputs, self.gamma, self.beta, EPSILON
        )
        self._update_running(mean, variance, inputs.shape[0])
        return output
    return composite_batch_norm_eval(
        inputs, self.gamma, self.beta, self.running_mean, self.running_var, EPSILON
    )


def composite_embed(self, features):
    features = get_backend().asarray(features)
    if features.ndim == 1:
        features = features[None, :]
    was_training = self.training
    self.eval()
    outputs = []
    with no_grad():
        for start in range(0, features.shape[0], EMBED_ROWS):
            chunk = features[start:start + EMBED_ROWS]
            outputs.append(self.forward(Tensor(chunk)).data.copy())
    if was_training:
        self.train()
    return np.concatenate(outputs, axis=0)


def reference_adam_step(self):
    """The per-parameter Adam loop (moments keyed by parameter identity)."""
    first_moment = self.__dict__.setdefault("_reference_first", {})
    second_moment = self.__dict__.setdefault("_reference_second", {})
    self._step_count += 1
    bias_correction1 = 1.0 - BETA1**self._step_count
    bias_correction2 = 1.0 - BETA2**self._step_count
    for parameter in self.parameters:
        if parameter.grad is None:
            continue
        gradient = parameter.grad
        key = id(parameter)
        first = first_moment.get(key)
        second = second_moment.get(key)
        if first is None:
            first = np.zeros_like(parameter.data)
            second = np.zeros_like(parameter.data)
        first = BETA1 * first + (1.0 - BETA1) * gradient
        second = BETA2 * second + (1.0 - BETA2) * gradient**2
        first_moment[key] = first
        second_moment[key] = second
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        parameter.data = parameter.data - self.lr * corrected_first / (
            np.sqrt(corrected_second) + ADAM_EPSILON
        )


def composite_pilote_objective(embeddings, left, right, same_class, *, margin=1.0,
                               variant="squared", alpha=0.0, old_rows=None, teacher=None):
    """The objective as gathers, ``ContrastiveLoss`` and ``DistillationLoss``."""
    contrastive = ContrastiveLoss(margin=margin, variant=variant)(
        embeddings[left], embeddings[right], same_class
    )
    if alpha <= 0.0 or old_rows is None:
        return contrastive
    if len(old_rows) == 0:
        return contrastive * (1.0 - alpha)
    distillation = DistillationLoss()(embeddings[old_rows], Tensor(teacher))
    return distillation * alpha + contrastive * (1.0 - alpha)


def composite_training_loss(self, features, **objective):
    """The training step as the network's tape forward and the composite
    objective.  A bias that feeds a BatchNorm enters as a constant, so it
    gets the exact zero cotangent ``pilote_step`` gives it (the batch mean
    subtracts it): the graph would give it rounding noise, which Adam
    (|g| far below its ``epsilon``) turns into ~1e-10 of drift that reaches
    every weight of the next increment through the running statistics."""
    layers = self.backbone.layers
    hidden = Tensor(features)
    for layer, following in zip(layers, layers[1:] + [None]):
        if isinstance(layer, Linear) and isinstance(following, BatchNorm1d):
            hidden = composite_linear(hidden, layer.weight, Tensor(layer.bias.data))
        else:
            hidden = layer(hidden)
    return composite_pilote_objective(hidden, **objective)


def composite_pilote_loss(embeddings, **objective):
    """The validation objective through the composite graph."""
    return composite_pilote_objective(Tensor(embeddings), **objective).data


def composite_step(x, parameters, *, layers, **objective):
    """``pilote_step`` as the layer ops plus the composite objective."""
    hidden, position = x, 0
    for kind, epsilon in layers:
        if kind == "linear":
            hidden = ops.linear(hidden, parameters[position], parameters[position + 1])
            position += 2
        elif kind == "batch_norm":
            gamma, beta = parameters[position:position + 2]
            hidden = ops.batch_norm_train(hidden, gamma, beta, epsilon)[0]
            position += 2
        else:
            hidden = hidden.relu()
    return composite_pilote_objective(hidden, **objective)


def reference_pair_sample(self, labels, new_classes=None):
    """Pair sampling over ``np.triu_indices`` with ``np.isin`` membership."""
    labels = np.asarray(labels).reshape(-1)
    count = labels.shape[0]
    if count < 2:
        raise DataError("at least two samples are required to build pairs")
    left, right = np.triu_indices(count, k=1)
    if new_classes:
        row_is_new = np.isin(labels, np.asarray(sorted(int(c) for c in new_classes)))
        involves_new = row_is_new[left] | row_is_new[right]
        left, right = left[involves_new], right[involves_new]
        if left.size == 0:
            left, right = np.triu_indices(count, k=1)
    if left.size > self.max_pairs:
        chosen = self._rng.choice(left.size, size=self.max_pairs, replace=False)
        left, right = left[chosen], right[chosen]
    return PairBatch(left=left, right=right, same_class=labels[left] == labels[right])


def install_composite(monkeypatch):
    """Swap the composite layers, distances, training step and validation
    objective (which gather through ``getitem`` and so scatter with
    ``np.add.at``), embed, the Adam loop and the pair sampler back in."""
    monkeypatch.setattr(Linear, "forward", composite_linear_forward)
    monkeypatch.setattr(BatchNorm1d, "forward", composite_batch_norm_forward)
    monkeypatch.setattr(ops, "pairwise_squared_distance", composite_pairwise_squared_distance)
    monkeypatch.setattr(EmbeddingNetwork, "training_loss", composite_training_loss)
    monkeypatch.setattr(pilote_module, "pilote_loss", composite_pilote_loss)
    monkeypatch.setattr(EmbeddingNetwork, "embed", composite_embed)
    monkeypatch.setattr(Adam, "step", reference_adam_step)
    monkeypatch.setattr(PairSampler, "sample", reference_pair_sample)


# --------------------------------------------------------------------------- #
# per-op equality
# --------------------------------------------------------------------------- #

#: (policy profile, explicit leaf dtype): float32, float64, and float64
#: leaves under the float32 policy (constants in float32, graph in float64).
PRECISIONS = {
    "float32": ("edge", None),
    "float64": ("reference", None),
    "float64-leaves-edge-policy": ("edge", np.float64),
}


def _leaves(rng, leaf_dtype, *shapes, requires=None):
    requires = requires or [True] * len(shapes)
    return [
        Tensor(rng.normal(size=shape), requires_grad=flag, dtype=leaf_dtype)
        for shape, flag in zip(shapes, requires)
    ]


def _run(function, arrays, requires, leaf_dtype, upstream):
    """Forward ``function`` over fresh leaves, backward with ``upstream``;
    returns the output and every leaf's gradient."""
    leaves = [
        Tensor(array, requires_grad=flag, dtype=leaf_dtype)
        for array, flag in zip(arrays, requires)
    ]
    out = function(*leaves)
    if out.requires_grad:
        out.backward(upstream.astype(out.data.dtype))
    return out.data, [leaf.grad for leaf in leaves]


def assert_same(fused, composite, arrays, requires, leaf_dtype, seed=0):
    """Forward and every input cotangent of ``fused`` equal ``composite``'s."""
    probe, _ = _run(fused, arrays, [False] * len(arrays), leaf_dtype, None)
    upstream = np.random.default_rng(seed).normal(size=probe.shape)
    out_fused, grads_fused = _run(fused, arrays, requires, leaf_dtype, upstream)
    out_composite, grads_composite = _run(composite, arrays, requires, leaf_dtype, upstream)
    assert out_fused.dtype == out_composite.dtype
    assert np.array_equal(out_fused, out_composite)
    for grad_fused, grad_composite in zip(grads_fused, grads_composite):
        if grad_composite is None:
            assert grad_fused is None
            continue
        assert grad_fused.dtype == grad_composite.dtype
        assert np.array_equal(grad_fused, grad_composite)


#: Which of a layer op's three inputs (the rows, then weight and bias or
#: gamma and beta) need a gradient: every mask but the empty one, since each
#: vjp computes each cotangent only where it is needed.
REQUIRES = [
    (True, True, True), (False, True, True), (True, False, False),
    (True, True, False), (True, False, True), (False, True, False), (False, False, True),
]

#: The objective's forms: cloud pretrain (no teacher), an increment batch
#: without old-class rows, and mixed batches (rows shared with the pairs).
OBJECTIVE_FORMS = {
    "pretrain": {},
    "no-old-rows": {"alpha": 0.3, "old_rows": np.array([], dtype=np.int64)},
    "mixed": {"alpha": 0.3, "old_rows": np.array([0, 2, 3, 5])},
    "alpha-one": {"alpha": 1.0, "old_rows": np.array([6, 1])},
}


def objective_kwargs(form, variant, rows=7, dim=3, pairs=24):
    """Seeded objective arguments over ``rows`` embeddings: pair rows
    repeat, appear unsorted and on both sides."""
    rng = np.random.default_rng(17)
    left = rng.integers(0, rows, size=pairs)
    right = (left + rng.integers(1, rows, size=pairs)) % rows
    kwargs = dict(OBJECTIVE_FORMS[form], left=left, right=right,
                  same_class=rng.integers(0, 2, size=pairs).astype(bool),
                  margin=2.0, variant=variant)
    if kwargs.get("old_rows") is not None and len(kwargs["old_rows"]):
        kwargs["teacher"] = rng.normal(size=(len(kwargs["old_rows"]), dim))
    return kwargs


#: ``(rtol, atol as a share of the largest cotangent)`` of ``pilote_step``
#: against the composite, per precision.
STEP_TOLERANCES = {
    "float32": (1e-5, 1e-6),
    "float64": (1e-10, 1e-12),
    "float64-leaves-edge-policy": (1e-10, 1e-12),
}

def step_network(widths=(5, 6, 4, 3), seed=21):
    """``(layers, parameter arrays)`` of a Linear/BatchNorm1d/ReLU chain
    ending in a Linear, as ``EmbeddingNetwork.training_loss`` passes them."""
    rng = np.random.default_rng(seed)
    layers, arrays = [], []
    for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
        layers.append(("linear", None))
        arrays += [rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out)]
        if index < len(widths) - 2:
            layers.append(("batch_norm", EPSILON))
            arrays += [rng.normal(size=fan_out), rng.normal(size=fan_out)]
            layers.append(("relu", None))
    return layers, arrays


def step_loss(x, parameters, **kwargs):
    return ops.pilote_step(x, parameters, **kwargs)[0]


def assert_step_matches_composite(form, variant, leaf_dtype, rtol, atol_scale):
    """``pilote_step``'s loss (byte-equal: its forward is the layer ops'
    own) and every cotangent (the input rows' and each parameter's) against
    the composite's: within ``rtol``, plus ``atol`` of ``atol_scale`` times
    the largest cotangent (a bias that feeds a BatchNorm has a true gradient
    of 0, which the composite gets as rounding noise)."""
    layers, arrays = step_network()
    x = np.random.default_rng(7).normal(size=(7, 5)) * 2.0
    kwargs = dict(objective_kwargs(form, variant), layers=layers)
    results = []
    for step in (step_loss, composite_step):
        leaves = [Tensor(a, requires_grad=True, dtype=leaf_dtype) for a in [x] + arrays]
        loss = step(leaves[0], leaves[1:], **kwargs)
        loss.backward()
        results.append((loss.data, [leaf.grad for leaf in leaves]))
    (loss, grads), (ref_loss, ref_grads) = results
    assert loss.dtype == ref_loss.dtype
    assert loss.tobytes() == ref_loss.tobytes()
    atol = atol_scale * max(np.abs(g).max() for g in ref_grads)
    for grad, ref_grad in zip(grads, ref_grads):
        assert grad.dtype == ref_grad.dtype
        np.testing.assert_allclose(grad, ref_grad, rtol=rtol, atol=atol)


@pytest.mark.parametrize("precision_name", list(PRECISIONS))
class TestSingleOpsMatchCompositeGraphs:
    @pytest.mark.parametrize("x_shape", [(5, 4), (1, 4), (4,)])
    @pytest.mark.parametrize("requires", REQUIRES)
    def test_linear(self, precision_name, x_shape, requires):
        profile, leaf_dtype = PRECISIONS[precision_name]
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)]
        with precision(profile):
            assert_same(ops.linear, composite_linear, arrays, requires, leaf_dtype)

    @pytest.mark.parametrize("shape", [(2, 3), (7, 5), (33, 1)])
    @pytest.mark.parametrize("requires", REQUIRES)
    def test_batch_norm_train(self, precision_name, shape, requires):
        profile, leaf_dtype = PRECISIONS[precision_name]
        rng = np.random.default_rng(2)
        arrays = [rng.normal(size=shape) * 3.0 + 1.0, rng.normal(size=shape[1]),
                  rng.normal(size=shape[1])]
        with precision(profile):
            assert_same(
                lambda x, g, b: ops.batch_norm_train(x, g, b, 1e-5)[0],
                lambda x, g, b: composite_batch_norm_train(x, g, b, 1e-5)[0],
                arrays, requires, leaf_dtype,
            )
            leaves = [Tensor(array, dtype=leaf_dtype) for array in arrays]
            _, mean, variance = ops.batch_norm_train(*leaves, 1e-5)
            _, ref_mean, ref_variance = composite_batch_norm_train(*leaves, 1e-5)
        assert np.array_equal(mean, ref_mean) and mean.dtype == ref_mean.dtype
        assert np.array_equal(variance, ref_variance) and variance.dtype == ref_variance.dtype

    @pytest.mark.parametrize("rows", [1, 6])
    @pytest.mark.parametrize("requires", REQUIRES)
    def test_batch_norm_eval(self, precision_name, rows, requires):
        profile, leaf_dtype = PRECISIONS[precision_name]
        rng = np.random.default_rng(3)
        running_mean = rng.normal(size=4)
        running_var = rng.uniform(0.1, 2.0, size=4)
        arrays = [rng.normal(size=(rows, 4)), rng.normal(size=4), rng.normal(size=4)]
        with precision(profile):
            assert_same(
                lambda x, g, b: ops.batch_norm_eval(
                    x, g, b, *batch_norm_eval_constants(running_mean, running_var, 1e-5)
                ),
                lambda x, g, b: composite_batch_norm_eval(
                    x, g, b, running_mean, running_var, 1e-5
                ),
                arrays, requires, leaf_dtype,
            )

    @pytest.mark.parametrize("requires", [(True, True), (True, False), (False, True)])
    def test_pairwise_squared_distance(self, precision_name, requires):
        profile, leaf_dtype = PRECISIONS[precision_name]
        rng = np.random.default_rng(5)
        arrays = [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))]
        with precision(profile):
            assert_same(
                ops.pairwise_squared_distance, composite_pairwise_squared_distance,
                arrays, list(requires), leaf_dtype,
            )

    @pytest.mark.parametrize("variant", ["squared", "hadsell"])
    @pytest.mark.parametrize("form", list(OBJECTIVE_FORMS))
    def test_pilote_objective(self, precision_name, variant, form):
        """``pilote_step`` (network and objective) against the layer ops
        plus the composite objective: to 1e-10 in float64; to float32
        rounding where the composite's constants (its ``1 / count`` means,
        for one) are float32 leaves."""
        profile, leaf_dtype = PRECISIONS[precision_name]
        rtol, atol_scale = STEP_TOLERANCES[precision_name]
        with precision(profile):
            assert_step_matches_composite(form, variant, leaf_dtype, rtol, atol_scale)

    def test_same_tensor_on_both_sides_of_a_distance(self, precision_name):
        profile, leaf_dtype = PRECISIONS[precision_name]
        arrays = [np.random.default_rng(6).normal(size=(4, 3))]
        with precision(profile):
            assert_same(
                lambda a: ops.pairwise_squared_distance(a, a * 2.0),
                lambda a: composite_pairwise_squared_distance(a, a * 2.0),
                arrays, [True], leaf_dtype,
            )


class TestSingleOpGradients:
    """Finite-difference checks (weighted sums, so no gradient is trivially 0)."""

    @staticmethod
    def _weights(shape, seed=9):
        return Tensor(np.random.default_rng(seed).normal(size=shape))

    def _inputs(self, *shapes):
        rng = np.random.default_rng(8)
        return [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]

    def test_linear(self):
        inputs = self._inputs((4, 3), (3, 2), (2,))
        w = self._weights((4, 2))
        assert check_gradients(lambda t: (ops.linear(t[0], t[1], t[2]) * w).sum(), inputs)

    def test_batch_norm_train(self):
        inputs = self._inputs((5, 3), (3,), (3,))
        w = self._weights((5, 3))
        assert check_gradients(
            lambda t: (ops.batch_norm_train(t[0], t[1], t[2], 1e-5)[0] * w).sum(), inputs
        )

    def test_batch_norm_eval(self):
        inputs = self._inputs((5, 3), (3,), (3,))
        w = self._weights((5, 3))
        constants = batch_norm_eval_constants(
            np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.5, 2.0]), 1e-5
        )
        assert check_gradients(
            lambda t: (ops.batch_norm_eval(t[0], t[1], t[2], *constants) * w).sum(),
            inputs,
        )

    @pytest.mark.parametrize("variant", ["squared", "hadsell"])
    @pytest.mark.parametrize("form", ["pretrain", "mixed"])
    def test_pilote_objective(self, variant, form):
        """``pilote_step``'s input-row and parameter cotangents."""
        layers, arrays = step_network()
        kwargs = dict(objective_kwargs(form, variant), layers=layers)
        inputs = self._inputs((7, 5))
        inputs += [Tensor(a, requires_grad=True) for a in arrays]
        assert check_gradients(lambda t: step_loss(t[0], t[1:], **kwargs), inputs)

    def test_pairwise_squared_distance(self):
        inputs = self._inputs((4, 3), (4, 3))
        w = self._weights((4,))
        assert check_gradients(
            lambda t: (ops.pairwise_squared_distance(t[0], t[1]) * w).sum(), inputs
        )


class TestOneRecordPerLayer:
    def test_training_forward_records_one_op_per_layer(self, tiny_config):
        model = EmbeddingNetwork(6, config=tiny_config)
        out = model(Tensor(np.random.default_rng(0).normal(size=(4, 6))))
        ops_recorded = [name for name, _ in out.trace() if name != "leaf"]
        assert ops_recorded == [
            "linear", "batch_norm_train", "relu",
            "linear", "batch_norm_train", "relu",
            "linear",
        ]

    def test_eval_forward_uses_the_tracked_statistics_op(self, tiny_config):
        model = EmbeddingNetwork(6, config=tiny_config).eval()
        out = model(Tensor(np.random.default_rng(0).normal(size=(4, 6))))
        assert [name for name, _ in out.trace()].count("batch_norm_eval") == 2


# --------------------------------------------------------------------------- #
# the array inference path
# --------------------------------------------------------------------------- #


class TestArrayEmbed:
    @pytest.mark.parametrize("profile", ["reference", "edge"])
    @pytest.mark.parametrize("rows", [1, 2, 8, 64, 512, 513, 1025])
    def test_embed_equals_the_tensor_eval_forward(self, tiny_config, profile, rows):
        with precision(profile):
            model = EmbeddingNetwork(6, config=tiny_config, rng=3)
            rng = np.random.default_rng(rows)
            # Move the BatchNorm statistics off their initial values.
            model(Tensor(rng.normal(size=(16, 6)) * 2.0 + 0.5))
            features = rng.normal(size=(rows, 6))
            buffers = {name: value for name, value in model.named_buffers()}
            snapshot = {name: value.copy() for name, value in buffers.items()}

            embedded = model.embed(features)

            assert model.training
            for name, value in model.named_buffers():
                assert value is buffers[name]
                assert np.array_equal(value, snapshot[name])
            model.eval()
            cast = get_backend().asarray(features)
            with no_grad():
                expected = np.concatenate([
                    model(Tensor(cast[start:start + 512])).data
                    for start in range(0, rows, 512)
                ])
        assert embedded.dtype == expected.dtype
        assert np.array_equal(embedded, expected)

    @staticmethod
    def _assert_embed_is_the_eval_forward(model, features):
        """``embed`` against the tape's eval forward through the composite
        BatchNorm, which reads the running statistics with no cache."""
        embedded = model.embed(features)
        was_training = model.training
        model.eval()
        with no_grad(), pytest.MonkeyPatch.context() as patch:
            patch.setattr(BatchNorm1d, "forward", composite_batch_norm_forward)
            expected = model(Tensor(get_backend().asarray(features))).data
        model.train(was_training)
        assert embedded.dtype == expected.dtype
        assert embedded.tobytes() == expected.tobytes()
        return embedded

    def test_cached_batch_norm_constants_follow_a_training_step(self, tiny_config):
        rng = np.random.default_rng(11)
        model = EmbeddingNetwork(6, config=tiny_config, rng=3)
        features = rng.normal(size=(5, 6))
        before = self._assert_embed_is_the_eval_forward(model, features)
        model(Tensor(rng.normal(size=(16, 6)) * 2.0 + 0.5))  # update_buffer
        after = self._assert_embed_is_the_eval_forward(model, features)
        assert not np.array_equal(before, after)

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_a_training_step_updates_the_running_statistics_in_place(
        self, tiny_config, profile, monkeypatch
    ):
        """``training_loss`` folds each BatchNorm's batch statistics into
        that module's own float64 buffers, byte-equal to the out-of-place
        formula; ``embed`` then reads the new statistics, and a state dict
        taken before the step keeps the old ones."""
        rng = np.random.default_rng(14)
        with precision(profile):
            model = EmbeddingNetwork(6, config=tiny_config, rng=3)
            norms = [m for m in model.backbone.layers if isinstance(m, BatchNorm1d)]
            features = get_backend().asarray(rng.normal(size=(16, 6)) * 2.0 + 0.5)
            probe = rng.normal(size=(5, 6))
            before = self._assert_embed_is_the_eval_forward(model, probe)  # caches
            snapshot = model.state_dict()
            kept = {key: value.copy() for key, value in snapshot.items()}
            buffers = [(norm.running_mean, norm.running_var) for norm in norms]
            old = [(mean.copy(), var.copy()) for mean, var in buffers]
            batch_stats = []
            step = ops.pilote_step

            def recording(*args, **kwargs):
                loss, stats = step(*args, **kwargs)
                batch_stats.extend((m.copy(), v.copy()) for m, v in stats)
                return loss, stats

            monkeypatch.setattr(ops, "pilote_step", recording)
            left, right = np.triu_indices(16, k=1)
            labels = np.arange(16) % 3
            model.training_loss(features, left=left, right=right,
                                same_class=labels[left] == labels[right])
            assert len(batch_stats) == len(norms) == 2
            for norm, (mean, var), (old_mean, old_var), (batch_mean, batch_var) in zip(
                norms, buffers, old, batch_stats
            ):
                unbiased = batch_var * 16 / 15
                expected_mean = (1.0 - MOMENTUM) * old_mean + MOMENTUM * batch_mean
                expected_var = (1.0 - MOMENTUM) * old_var + MOMENTUM * unbiased
                assert norm.running_mean is mean and norm.running_var is var
                registered = dict(norm.named_buffers())
                assert registered["running_mean"] is mean and registered["running_var"] is var
                assert mean.dtype == var.dtype == np.float64
                assert mean.tobytes() == expected_mean.tobytes()
                assert var.tobytes() == expected_var.tobytes()
            after = self._assert_embed_is_the_eval_forward(model, probe)
            assert not np.array_equal(before, after)
            for key, value in snapshot.items():
                assert value.tobytes() == kept[key].tobytes(), key

    def test_buffers_are_the_modules_own_copies(self):
        """``register_buffer`` and ``update_buffer`` copy: an in-place update
        never writes through to the caller's array."""
        norm = BatchNorm1d(3)
        given = np.array([1.0, 2.0, 3.0])
        norm.update_buffer("running_mean", given)
        assert not np.shares_memory(norm.running_mean, given)
        norm._update_running(np.zeros(3), np.ones(3), 4)
        assert given.tolist() == [1.0, 2.0, 3.0]
        state = norm.state_dict()
        donor = state["buffer.running_var"]
        norm.load_state_dict(state)
        assert not np.shares_memory(norm.running_var, donor)

    def test_cached_batch_norm_constants_follow_load_state_dict(self, tiny_config):
        rng = np.random.default_rng(12)
        model = EmbeddingNetwork(6, config=tiny_config, rng=3)
        donor = EmbeddingNetwork(6, config=tiny_config, rng=3)
        donor(Tensor(rng.normal(size=(16, 6)) * 2.0 + 0.5))  # move its statistics
        features = rng.normal(size=(5, 6))
        before = self._assert_embed_is_the_eval_forward(model, features)
        model.load_state_dict(donor.state_dict())
        after = self._assert_embed_is_the_eval_forward(model, features)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, donor.embed(features))

    def test_cached_batch_norm_constants_follow_the_precision(self, tiny_config):
        rng = np.random.default_rng(13)
        model = EmbeddingNetwork(6, config=tiny_config, rng=3)
        model(Tensor(rng.normal(size=(16, 6)) * 2.0 + 0.5))
        features = rng.normal(size=(5, 6))
        norm = next(m for m in model.backbone.layers if isinstance(m, BatchNorm1d))
        dtypes = []
        for profile in ("reference", "edge", "reference", "edge"):
            with precision(profile):
                self._assert_embed_is_the_eval_forward(model, features)
                dtypes.append(norm.eval_constants()[1].dtype)
        assert dtypes == [np.float64, np.float32] * 2

    def test_embed_rejects_the_wrong_width(self, tiny_config):
        model = EmbeddingNetwork(6, config=tiny_config)
        with pytest.raises(ShapeError):
            model.embed(np.zeros((2, 5)))

    def test_embed_of_zero_rows_is_empty(self, tiny_config):
        model = EmbeddingNetwork(6, config=tiny_config)
        assert model.embed(np.zeros((0, 6))).shape == (0, tiny_config.embedding_dim)


# --------------------------------------------------------------------------- #
# flat Adam
# --------------------------------------------------------------------------- #


class TestFlatAdam:
    @staticmethod
    def _parameters(dtypes):
        rng = np.random.default_rng(11)
        shapes = [(3, 4), (4,), (2, 2), (5,)]
        parameters = []
        for shape, dtype in zip(shapes, dtypes):
            with precision(dtype):
                parameters.append(Parameter(rng.normal(size=shape)))
        return parameters

    @pytest.mark.parametrize("dtypes", [("float64",) * 4, ("float32",) * 4])
    def test_matches_the_per_parameter_loop(self, dtypes):
        flat_params = self._parameters(dtypes)
        ref_params = self._parameters(dtypes)
        flat = Adam(flat_params, lr=0.05)
        reference = Adam(ref_params, lr=0.05)
        rng = np.random.default_rng(12)
        for step in range(20):
            for a, b in zip(flat_params, ref_params):
                a.grad = rng.normal(size=a.data.shape).astype(a.data.dtype)
                b.grad = a.grad.copy()
            flat.step()
            reference_adam_step(reference)
            for a, b in zip(flat_params, ref_params):
                assert a.data.dtype == b.data.dtype
                assert np.array_equal(a.data, b.data)
        assert all(np.shares_memory(p.data, flat._values) for p in flat_params)

    @staticmethod
    def _set_gradients(parameters, seed):
        rng = np.random.default_rng(seed)
        for parameter in parameters:
            parameter.grad = rng.normal(size=parameter.data.shape).astype(parameter.data.dtype)

    def test_steps_update_one_buffer_in_place_and_state_dicts_keep_their_bytes(
        self, tiny_config
    ):
        model = EmbeddingNetwork(6, config=tiny_config, rng=1)
        parameters = model.parameters()
        optimizer = Adam(parameters, lr=0.1)
        self._set_gradients(parameters, 0)
        optimizer.step()
        views = [p.data for p in parameters]
        assert b"".join(view.tobytes() for view in views) == optimizer._values.tobytes()
        assert all(np.shares_memory(view, optimizer._values) for view in views)
        for step in range(1, 4):
            saved = model.state_dict()
            saved_bytes = {key: value.tobytes() for key, value in saved.items()}
            self._set_gradients(parameters, step)
            optimizer.step()
            # The parameters still view Adam's buffer, which the step rewrote ...
            assert all(p.data is view for p, view in zip(parameters, views))
            now = model.state_dict()
            assert all(
                now[key].tobytes() != saved_bytes[key] for key in saved if key.startswith("param.")
            )
            # ... while the state taken before the step kept its bytes.
            assert {key: value.tobytes() for key, value in saved.items()} == saved_bytes

    def test_a_load_state_dict_between_steps_is_honoured(self, tiny_config):
        models = [EmbeddingNetwork(6, config=tiny_config, rng=1) for _ in range(2)]
        saved = EmbeddingNetwork(6, config=tiny_config, rng=2).state_dict()
        flat = Adam(models[0].parameters(), lr=0.1)
        reference = Adam(models[1].parameters(), lr=0.1)
        for step in range(4):
            if step == 2:
                for model in models:
                    model.load_state_dict(saved)
            for model in models:
                self._set_gradients(model.parameters(), step)
            flat.step()
            reference_adam_step(reference)
            for ours, theirs in zip(models[0].parameters(), models[1].parameters()):
                assert ours.data.tobytes() == theirs.data.tobytes()

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_a_step_leaves_only_the_values_and_moments_allocated(self, profile):
        """The optimiser allocates the flat values and two moments once;
        the gathered gradient and the temporary live only inside a step,
        so no step leaves them allocated (tracemalloc)."""
        rng = np.random.default_rng(13)
        with precision(profile):
            parameters = [Parameter(rng.normal(size=shape))
                          for shape in [(64, 32), (32,), (32, 16), (16,)]]
        buffers = 3 * sum(parameter.data.nbytes for parameter in parameters)

        def live_optimiser_bytes():
            """Bytes of the live numpy buffers allocated under ``nn/optim.py``
            (Python objects, which the interpreter may cache, left out)."""
            snapshot = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
            ).filter_traces(
                [tracemalloc.Filter(True, optim_module.__file__, all_frames=True)]
            )
            return sum(stat.size for stat in snapshot.statistics("filename"))

        tracemalloc.start(8)
        try:
            optimizer = Adam(parameters, lr=0.05)  # packs: the flat buffers
            packed = live_optimiser_bytes()
            for step in range(3):
                self._set_gradients(parameters, step)
                optimizer.step()
                assert live_optimiser_bytes() == packed
        finally:
            tracemalloc.stop()
        assert packed == buffers


# --------------------------------------------------------------------------- #
# pair sampling without the O(n²) index arrays
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("pairs", ["all", "new_centred"])
@pytest.mark.parametrize("count", [2, 5, 16, 33])
@pytest.mark.parametrize("max_pairs", [1, 7, 64, 1000])
def test_pair_sampler_matches_the_triu_reference(pairs, count, max_pairs):
    labels_rng = np.random.default_rng(count)
    ours = PairSampler(max_pairs=max_pairs, rng=count + max_pairs)
    theirs = PairSampler(max_pairs=max_pairs, rng=count + max_pairs)
    for draw in range(6):
        labels = labels_rng.integers(0, 4, size=count)
        new_classes = None
        if pairs == "new_centred":
            new_classes = {3} if draw % 3 else {9}  # some batches hold no new rows
        a = ours.sample(labels, new_classes=new_classes)
        b = reference_pair_sample(theirs, labels, new_classes=new_classes)
        for field in ("left", "right", "same_class"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and np.array_equal(x, y), field
    assert ours._rng.integers(1 << 30) == theirs._rng.integers(1 << 30)


def test_pair_sampler_membership_follows_the_class_set():
    """The lookup table of a ``new_classes`` set is built once and reused:
    repeated calls with one set, then with another, then with labels past
    the table's range (above the largest id, negative, and past the table
    limit) draw the reference's pairs, and leave the generator where the
    reference leaves it."""
    labels_rng = np.random.default_rng(21)
    ours = PairSampler(max_pairs=20, rng=8)
    theirs = PairSampler(max_pairs=20, rng=8)
    batches = (
        [(labels_rng.integers(0, 5, size=12), {3}) for _ in range(4)]
        + [(labels_rng.integers(0, 5, size=12), {1, 4}) for _ in range(3)]
        + [(labels_rng.integers(-3, 9, size=12), {1, 4}) for _ in range(3)]
        + [(labels_rng.integers(0, 1 << 17, size=12) | 4, {4, 70_000}) for _ in range(2)]
        + [(labels_rng.integers(0, 5, size=12), {3}) for _ in range(2)]
    )
    for labels, new_classes in batches:
        a = ours.sample(labels, new_classes=new_classes)
        b = reference_pair_sample(theirs, labels, new_classes=new_classes)
        for field in ("left", "right", "same_class"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field
    assert ours._rng.bit_generator.state == theirs._rng.bit_generator.state


def test_cached_pair_indices_are_read_only():
    """Batches share one ``triu_indices`` pair per row count: a write to a
    returned ``PairBatch`` raises instead of corrupting the cache."""
    sampler = PairSampler(max_pairs=1000, rng=0)
    pairs = sampler.sample(np.array([0, 1, 1, 2, 0]))
    assert pairs.left is upper_triangle(5)[0] and pairs.right is upper_triangle(5)[1]
    for indices in (pairs.left, pairs.right):
        with pytest.raises(ValueError):
            indices[0] = 3
    expected = np.triu_indices(5, k=1)
    again = sampler.sample(np.array([2, 2, 1, 0, 1]))
    assert np.array_equal(again.left, expected[0]) and np.array_equal(again.right, expected[1])


# --------------------------------------------------------------------------- #
# dispatches per training step
# --------------------------------------------------------------------------- #


class TestDispatchCount:
    """Counted the way the benchmark tracer counts: calls of the ``_apply``
    that ``repro.autodiff.tensor`` and ``repro.autodiff.ops`` bind."""

    @staticmethod
    def _assert_one_per_step(monkeypatch, run):
        """``run()`` trains once: each training step dispatches one op, each
        validation pass none, and nothing else dispatches."""
        dispatches = [0]

        def counting(apply):
            def counted(*args, **kwargs):
                dispatches[0] += 1
                return apply(*args, **kwargs)
            return counted

        for module in (autodiff_tensor, ops):
            monkeypatch.setattr(module, "_apply", counting(module._apply))
        per_call = []
        fit = Trainer.fit

        def measured(kind, loss):
            def wrapper(*args):
                before = dispatches[0]
                out = loss(*args)
                per_call.append((kind, dispatches[0] - before))
                return out
            return wrapper

        histories = []

        def counted_fit(self, batch_loss, features, *, validation_loss=None):
            histories.append(fit(self, measured("train", batch_loss), features,
                                 validation_loss=measured("validation", validation_loss)))
            return histories[-1]

        steps = [0]
        adam_step = Adam.step

        def counted_step(self):
            steps[0] += 1
            adam_step(self)

        monkeypatch.setattr(Trainer, "fit", counted_fit)
        monkeypatch.setattr(Adam, "step", counted_step)
        run()

        train = [count for kind, count in per_call if kind == "train"]
        validation = [count for kind, count in per_call if kind == "validation"]
        assert train == [1] * steps[0] and steps[0] > 0
        assert len(histories) == 1
        assert validation == [0] * len(histories[0].validation_losses) and validation
        # Herding, the teacher, validation and prototype refresh run on
        # plain arrays.
        assert dispatches[0] == steps[0]

    def test_a_training_step_dispatches_one_op_and_validation_none(
        self, pretrained_pilote, run_scenario, tiny_config, monkeypatch
    ):
        edge = package_for_edge(pretrained_pilote).instantiate_learner(tiny_config, seed=0)
        self._assert_one_per_step(monkeypatch, lambda: edge.learn_new_classes(
            run_scenario.new_train, run_scenario.new_validation))

    def test_the_retrained_baseline_dispatches_one_op_a_step_and_validation_none(
        self, pilote_copy, run_scenario, monkeypatch
    ):
        """Table 2's Re-trained strategy (PILOTE with α = 0) trains through
        the same one-op step."""
        self._assert_one_per_step(monkeypatch, lambda: retrained_increment(
            pilote_copy, run_scenario.new_train, run_scenario.new_validation))
        assert pilote_copy.config.alpha == 0.0


# --------------------------------------------------------------------------- #
# end to end: byte-equal to the composite forms
# --------------------------------------------------------------------------- #


def _pipeline(scenario, config):
    """Every array a pretrain + package + increment + predict produces."""
    cloud = PILOTE(config)
    history = cloud.pretrain(scenario.old_train, scenario.old_validation,
                             exemplars_per_class=12)
    edge = package_for_edge(cloud).instantiate_learner(config, seed=0)
    increment = edge.learn_new_classes(scenario.new_train, scenario.new_validation)
    arrays = {
        "losses": np.asarray(history.train_losses + history.validation_losses
                             + increment.train_losses + increment.validation_losses),
    }
    for name, learner in (("cloud", cloud), ("edge", edge)):
        arrays.update({f"{name}.{k}": v for k, v in learner.model.state_dict().items()})
        for c in learner.exemplars.classes:
            arrays[f"{name}.exemplars.{c}"] = learner.exemplars.get(c)
        for c in learner.prototypes.classes:
            arrays[f"{name}.prototype.{c}"] = learner.prototypes.get(c)
        arrays[f"{name}.embed"] = learner.embed(scenario.test.features)
        arrays[f"{name}.predict"] = learner.predict(scenario.test.features)
    arrays["engine"] = edge.inference_engine().predict(scenario.test.features[:9])
    return arrays


def _one_row_step(config):
    """A training step on a 1-row batch: BatchNorm falls back to its tracked
    statistics while gradients still flow."""
    model = EmbeddingNetwork(6, config=config, rng=5)
    rng = np.random.default_rng(5)
    model(Tensor(rng.normal(size=(8, 6))))  # move the running statistics
    optimizer = Adam(model.parameters(), lr=0.01)
    for _ in range(3):
        optimizer.zero_grad()
        out = model(Tensor(rng.normal(size=(1, 6))))
        (out * out).sum().backward()
        optimizer.step()
    return {**model.state_dict(), "embed": model.embed(rng.normal(size=(3, 6)))}


@pytest.mark.parametrize("profile", ["reference", "edge"])
class TestByteEqualToCompositeForms:
    def _config(self, tiny_config):
        return dataclasses.replace(tiny_config, max_epochs_pretrain=3, max_epochs_increment=3)

    def _assert_byte_equal(self, ours, theirs):
        assert ours.keys() == theirs.keys()
        for key in ours:
            assert ours[key].dtype == theirs[key].dtype, key
            assert ours[key].tobytes() == theirs[key].tobytes(), key

    @pytest.mark.parametrize("variant", ["squared", "hadsell"])
    def test_pretrain_increment_predict(self, run_scenario, tiny_config, profile,
                                        variant, monkeypatch):
        """Two runs are byte-identical.  In float64 every prediction equals
        the composite forms', and every array is within ``rtol=1e-8`` of
        theirs.  The ``atol`` of 1e-9 is for the last layer's bias: the
        contrastive term does not depend on it, so pretraining gives it a
        gradient of rounding noise in both programs, and Adam turns that
        into ~2e-10 of drift."""
        config = dataclasses.replace(self._config(tiny_config), contrastive_variant=variant)
        with precision(profile):
            ours = _pipeline(run_scenario, config)
            self._assert_byte_equal(ours, _pipeline(run_scenario, config))
            if profile != "reference":
                return
            with monkeypatch.context() as patch:
                install_composite(patch)
                theirs = _pipeline(run_scenario, config)
        assert ours.keys() == theirs.keys()
        for key in ours:
            assert ours[key].dtype == theirs[key].dtype, key
            if key.endswith("predict") or key == "engine":
                np.testing.assert_array_equal(ours[key], theirs[key], err_msg=key)
            else:
                np.testing.assert_allclose(
                    ours[key], theirs[key], rtol=1e-8, atol=1e-9, err_msg=key
                )

    def test_one_row_training_batch(self, tiny_config, profile, monkeypatch):
        config = self._config(tiny_config)
        with precision(profile):
            ours = _one_row_step(config)
            with monkeypatch.context() as patch:
                install_composite(patch)
                theirs = _one_row_step(config)
        self._assert_byte_equal(ours, theirs)


# --------------------------------------------------------------------------- #
# sqrt at zero
# --------------------------------------------------------------------------- #


@pytest.mark.parametrize("profile", ["edge", "reference"])
def test_sqrt_gradient_at_zero_is_finite(profile):
    with precision(profile), warnings.catch_warnings():
        warnings.simplefilter("error")
        leaf = Tensor([0.0, 4.0], requires_grad=True)
        leaf.sqrt().sum().backward()
        dtype = leaf.data.dtype
        tiny = np.finfo(dtype).tiny
    assert np.isfinite(leaf.grad).all()
    assert leaf.grad[0] == np.asarray(0.5, dtype=dtype) / tiny
    assert leaf.grad[1] == 0.25
