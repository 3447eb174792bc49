"""Tests for neural-network layers."""

import numpy as np
import pytest

from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor
from repro.exceptions import ShapeError
from repro.nn.layers import MOMENTUM, BatchNorm1d, Linear, ReLU, Sequential, build_mlp


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(5, 3, rng=0)
        assert layer(Tensor(np.ones((7, 5)))).shape == (7, 3)

    def test_wrong_input_dim_raises(self):
        with pytest.raises(ShapeError):
            Linear(5, 3, rng=0)(Tensor(np.ones((2, 4))))

    def test_invalid_dims_raise(self):
        with pytest.raises(ShapeError):
            Linear(0, 3)

    def test_gradients_flow_to_weight_and_bias(self):
        layer = Linear(4, 2, rng=0)
        x = Tensor(np.random.default_rng(1).normal(size=(3, 4)), requires_grad=True)
        assert check_gradients(
            lambda t: (layer(t[0]) ** 2).sum(), [x, layer.weight, layer.bias]
        )

    def test_deterministic_with_seed(self):
        assert np.allclose(Linear(4, 2, rng=3).weight.data, Linear(4, 2, rng=3).weight.data)


class TestReLU:
    def test_relu_forward(self):
        x = Tensor(np.array([[-1.0, 2.0]]))
        assert np.allclose(ReLU()(x).data, [[0.0, 2.0]])


class TestBatchNorm:
    def test_training_normalises_batch(self):
        layer = BatchNorm1d(3)
        data = np.random.default_rng(0).normal(5.0, 3.0, size=(64, 3))
        out = layer(Tensor(data)).data
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-6)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_running_stats_updated(self):
        layer = BatchNorm1d(2)
        data = np.full((10, 2), 4.0) + np.random.default_rng(0).normal(0, 0.1, size=(10, 2))
        layer(Tensor(data))
        np.testing.assert_allclose(layer.running_mean, MOMENTUM * data.mean(axis=0))
        np.testing.assert_allclose(
            layer.running_var, (1.0 - MOMENTUM) + MOMENTUM * data.var(axis=0, ddof=1)
        )

    def test_eval_uses_running_stats(self):
        layer = BatchNorm1d(2)
        data = np.random.default_rng(0).normal(2.0, 1.0, size=(32, 2))
        for _ in range(20):
            layer(Tensor(data))
        layer.eval()
        out = layer(Tensor(data)).data
        assert abs(out.mean()) < 0.3

    def test_single_sample_in_training_falls_back_to_running(self):
        layer = BatchNorm1d(2)
        out = layer(Tensor(np.ones((1, 2))))
        assert out.shape == (1, 2)

    def test_wrong_feature_count_raises(self):
        with pytest.raises(ShapeError):
            BatchNorm1d(3)(Tensor(np.ones((4, 2))))

    def test_gradients_flow_through_batchnorm(self):
        layer = BatchNorm1d(3)
        x = Tensor(np.random.default_rng(2).normal(size=(6, 3)), requires_grad=True)
        assert check_gradients(
            lambda t: (layer(t[0]) ** 2).sum(), [x, layer.gamma, layer.beta],
            atol=1e-4, rtol=1e-3,
        )


class TestSequentialAndBuildMlp:
    def test_sequential_indexing_and_len(self):
        net = Sequential(Linear(4, 3, rng=0), ReLU(), Linear(3, 2, rng=1))
        assert len(net) == 3
        assert isinstance(net[1], ReLU)

    def test_sequential_append(self):
        net = Sequential(Linear(4, 3, rng=0))
        net.append(ReLU())
        assert len(net) == 2

    def test_build_mlp_paper_backbone_structure(self):
        net = build_mlp([80, 1024, 512, 128, 64, 128], rng=0)
        # 5 Linear layers + 4 (BatchNorm + ReLU) blocks
        assert sum(isinstance(l, Linear) for l in net.layers) == 5
        assert sum(isinstance(l, BatchNorm1d) for l in net.layers) == 4
        out = net(Tensor(np.random.default_rng(0).normal(size=(4, 80))))
        assert out.shape == (4, 128)

    def test_build_mlp_requires_two_sizes(self):
        with pytest.raises(ShapeError):
            build_mlp([8])
