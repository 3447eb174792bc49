"""One op per layer: bit-exactness against the elementwise graphs it replaced.

Each network layer (``linear``, ``batch_norm_train``, ``batch_norm_eval``,
``l2_normalize``) and the loss's ``pairwise_squared_distance`` is a single
registered op whose forward and vjp redo, by hand, the arithmetic of the
elementwise ``Tensor`` graph that used to implement it.  The composite forms
survive below only as references: every op's forward and every input
cotangent must be ``np.array_equal`` to them, and a whole pretrain +
increment + predict run must be byte-equal to one with the composite forms
(and the per-parameter Adam loop) swapped back in.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import get_backend, precision
from repro.core.embedding import EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.edge.transfer import package_for_edge
from repro.exceptions import ShapeError
from repro.nn.layers import BatchNorm1d, Linear
from repro.nn.module import Parameter
from repro.nn.optim import Adam

# --------------------------------------------------------------------------- #
# the composite references (the code the single ops replaced)
# --------------------------------------------------------------------------- #


def composite_linear(x, weight, bias=None):
    output = x @ weight
    if bias is not None:
        output = output + bias
    return output


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


def composite_l2_normalize(x, axis=-1, epsilon=1e-12):
    squared = (x * x).sum(axis=axis, keepdims=True)
    norm = (squared + epsilon).sqrt()
    return x / norm


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
            inputs, self.gamma, self.beta, self.epsilon
        )
        self._update_running(mean, variance, inputs.shape[0])
        return output
    return composite_batch_norm_eval(
        inputs, self.gamma, self.beta, self.running_mean, self.running_var, self.epsilon
    )


def composite_embed(self, features, *, batch_size=512):
    features = get_backend().asarray(features)
    if features.ndim == 1:
        features = features[None, :]
    was_training = self.training
    self.eval()
    outputs = []
    with no_grad():
        for start in range(0, features.shape[0], batch_size):
            chunk = features[start:start + batch_size]
            outputs.append(self.forward(Tensor(chunk)).data.copy())
    if was_training:
        self.train()
    return np.concatenate(outputs, axis=0)


def reference_adam_step(self):
    """The per-parameter Adam loop (moments keyed by parameter identity)."""
    first_moment = self.__dict__.setdefault("_reference_first", {})
    second_moment = self.__dict__.setdefault("_reference_second", {})
    self._step_count += 1
    bias_correction1 = 1.0 - self.beta1**self._step_count
    bias_correction2 = 1.0 - self.beta2**self._step_count
    for parameter in self.parameters:
        if parameter.grad is None:
            continue
        gradient = parameter.grad
        if self.weight_decay:
            gradient = gradient + self.weight_decay * parameter.data
        key = id(parameter)
        first = first_moment.get(key)
        second = second_moment.get(key)
        if first is None:
            first = np.zeros_like(parameter.data)
            second = np.zeros_like(parameter.data)
        first = self.beta1 * first + (1.0 - self.beta1) * gradient
        second = self.beta2 * second + (1.0 - self.beta2) * gradient**2
        first_moment[key] = first
        second_moment[key] = second
        corrected_first = first / bias_correction1
        corrected_second = second / bias_correction2
        parameter.data = parameter.data - self.lr * corrected_first / (
            np.sqrt(corrected_second) + self.epsilon
        )


def install_composite(monkeypatch):
    """Swap the composite layers, distances, embed and Adam loop back in."""
    monkeypatch.setattr(Linear, "forward", composite_linear_forward)
    monkeypatch.setattr(BatchNorm1d, "forward", composite_batch_norm_forward)
    monkeypatch.setattr(ops, "l2_normalize", composite_l2_normalize)
    monkeypatch.setattr(ops, "pairwise_squared_distance", composite_pairwise_squared_distance)
    monkeypatch.setattr(EmbeddingNetwork, "embed", composite_embed)
    monkeypatch.setattr(Adam, "step", reference_adam_step)


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


REQUIRES = [(True, True, True), (False, True, True), (True, False, False)]


@pytest.mark.parametrize("precision_name", list(PRECISIONS))
class TestSingleOpsMatchCompositeGraphs:
    @pytest.mark.parametrize("x_shape", [(5, 4), (1, 4), (4,)])
    @pytest.mark.parametrize("with_bias", [True, False])
    @pytest.mark.parametrize("requires", REQUIRES)
    def test_linear(self, precision_name, x_shape, with_bias, requires):
        profile, leaf_dtype = PRECISIONS[precision_name]
        rng = np.random.default_rng(1)
        arrays = [rng.normal(size=x_shape), rng.normal(size=(4, 3)), rng.normal(size=3)]
        if not with_bias:
            arrays, requires = arrays[:2], requires[:2]
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
                lambda x, g, b: ops.batch_norm_eval(x, g, b, running_mean, running_var, 1e-5),
                lambda x, g, b: composite_batch_norm_eval(
                    x, g, b, running_mean, running_var, 1e-5
                ),
                arrays, requires, leaf_dtype,
            )

    @pytest.mark.parametrize("axis", [1, -1, 0])
    def test_l2_normalize(self, precision_name, axis):
        profile, leaf_dtype = PRECISIONS[precision_name]
        arrays = [np.random.default_rng(4).normal(size=(5, 3))]
        with precision(profile):
            assert_same(
                lambda x: ops.l2_normalize(x, axis=axis),
                lambda x: composite_l2_normalize(x, axis=axis),
                arrays, [True], leaf_dtype,
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
        mean, var = np.array([0.1, -0.2, 0.3]), np.array([0.5, 1.5, 2.0])
        assert check_gradients(
            lambda t: (ops.batch_norm_eval(t[0], t[1], t[2], mean, var, 1e-5) * w).sum(),
            inputs,
        )

    def test_l2_normalize(self):
        inputs = self._inputs((4, 3))
        w = self._weights((4, 3))
        assert check_gradients(lambda t: (ops.l2_normalize(t[0], axis=1) * w).sum(), inputs)

    def test_pairwise_squared_distance(self):
        inputs = self._inputs((4, 3), (4, 3))
        w = self._weights((4,))
        assert check_gradients(
            lambda t: (ops.pairwise_squared_distance(t[0], t[1]) * w).sum(), inputs
        )


class TestOneRecordPerLayer:
    def test_training_forward_records_one_op_per_layer(self, tiny_config):
        config = dataclasses.replace(tiny_config, normalize_embeddings=True)
        model = EmbeddingNetwork(6, config=config)
        out = model(Tensor(np.random.default_rng(0).normal(size=(4, 6))))
        ops_recorded = [name for name, _ in out.trace() if name != "leaf"]
        assert ops_recorded == [
            "linear", "batch_norm_train", "relu",
            "linear", "batch_norm_train", "relu",
            "linear", "l2_normalize",
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
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("rows", [1, 2, 8, 64, 513])
    def test_embed_equals_the_tensor_eval_forward(self, tiny_config, profile, normalize, rows):
        config = dataclasses.replace(tiny_config, normalize_embeddings=normalize)
        with precision(profile):
            model = EmbeddingNetwork(6, config=config, rng=3)
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

    @pytest.mark.parametrize("dtypes", [
        ("float64",) * 4, ("float32",) * 4, ("float32", "float64", "float32", "float64"),
    ])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_matches_the_per_parameter_loop(self, dtypes, weight_decay):
        flat_params = self._parameters(dtypes)
        ref_params = self._parameters(dtypes)
        flat = Adam(flat_params, lr=0.05, weight_decay=weight_decay)
        reference = Adam(ref_params, lr=0.05, weight_decay=weight_decay)
        never = 3  # this parameter's grad stays None
        untouched = flat_params[never].data
        rng = np.random.default_rng(12)
        for step in range(20):
            for index, (a, b) in enumerate(zip(flat_params, ref_params)):
                # Parameter 1 sits out every third step.
                if index == never or (index == 1 and step % 3 == 0):
                    a.grad = b.grad = None
                    continue
                a.grad = rng.normal(size=a.data.shape).astype(a.data.dtype)
                b.grad = a.grad.copy()
            flat.step()
            reference_adam_step(reference)
            for a, b in zip(flat_params, ref_params):
                assert a.data.dtype == b.data.dtype
                assert np.array_equal(a.data, b.data)
        assert flat_params[never].data is untouched
        for group in flat._groups:
            for position, parameter in enumerate(group.parameters):
                if parameter is flat_params[never]:
                    rows = slice(group.bounds[position], group.bounds[position + 1])
                    assert not group.first[rows].any() and not group.second[rows].any()

    def test_a_step_with_no_gradients_changes_nothing(self):
        parameters = self._parameters(("float64",) * 4)
        before = [p.data for p in parameters]
        Adam(parameters, lr=0.1).step()
        assert all(p.data is value for p, value in zip(parameters, before))


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
@pytest.mark.parametrize("normalize", [False, True])
class TestByteEqualToCompositeForms:
    def _config(self, tiny_config, normalize):
        return dataclasses.replace(
            tiny_config, max_epochs_pretrain=3, max_epochs_increment=3,
            normalize_embeddings=normalize,
        )

    def _assert_byte_equal(self, ours, theirs):
        assert ours.keys() == theirs.keys()
        for key in ours:
            assert ours[key].dtype == theirs[key].dtype, key
            assert ours[key].tobytes() == theirs[key].tobytes(), key

    def test_pretrain_increment_predict(self, run_scenario, tiny_config, profile,
                                        normalize, monkeypatch):
        config = self._config(tiny_config, normalize)
        with precision(profile):
            ours = _pipeline(run_scenario, config)
            with monkeypatch.context() as patch:
                install_composite(patch)
                theirs = _pipeline(run_scenario, config)
        self._assert_byte_equal(ours, theirs)

    def test_one_row_training_batch(self, tiny_config, profile, normalize, monkeypatch):
        config = self._config(tiny_config, normalize)
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
