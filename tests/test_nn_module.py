"""Tests for the Module/Parameter abstraction."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.exceptions import SerializationError
from repro.nn.layers import BatchNorm1d, Linear, ReLU, Sequential
from repro.nn.module import Module


class TinyNet(Module):
    def __init__(self):
        super().__init__()
        self.first = Linear(4, 3, rng=0)
        self.second = Linear(3, 2, rng=1)
        self.register_buffer("scale", np.array([2.0]))

    def forward(self, x):
        return self.second(self.first(x).relu())


class TestParameterRegistration:
    def test_parameters_collected_recursively(self):
        net = TinyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "first.weight" in names and "second.bias" in names
        assert len(net.parameters()) == 4

    def test_num_parameters(self):
        net = TinyNet()
        assert net.num_parameters() == 4 * 3 + 3 + 3 * 2 + 2

    def test_parameter_nbytes_float32(self):
        net = TinyNet()
        assert net.parameter_nbytes() == net.num_parameters() * 4

    def test_buffers_collected(self):
        net = TinyNet()
        buffers = dict(net.named_buffers())
        assert "scale" in buffers


class TestTrainEvalAndGrads:
    def test_train_eval_propagates(self):
        net = Sequential(Linear(4, 4, rng=0), BatchNorm1d(4), ReLU())
        net.eval()
        assert not net.training and all(not layer.training for layer in net.layers)
        net.train()
        assert net.training and all(layer.training for layer in net.layers)

    def test_zero_grad_clears_all(self):
        net = TinyNet()
        out = net(Tensor(np.ones((3, 4)))).sum()
        out.backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_forward_not_implemented_on_base(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestStateDict:
    def test_round_trip(self):
        net = TinyNet()
        other = TinyNet()
        other.load_state_dict(net.state_dict())
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_is_a_copy(self):
        net = TinyNet()
        state = net.state_dict()
        state["param.first.weight"][:] = 0.0
        assert not np.allclose(net.first.weight.data, 0.0)

    def test_load_state_dict_copies_parameters_and_buffers(self):
        state = TinyNet().state_dict()
        net = TinyNet()
        net.load_state_dict(state)
        loaded = [p.data for p in net.parameters()] + [b for _, b in net.named_buffers()]
        assert len(loaded) == len(state)
        for value in state.values():
            assert not any(np.shares_memory(value, array) for array in loaded)

    def test_missing_parameter_raises(self):
        net = TinyNet()
        state = net.state_dict()
        del state["param.first.weight"]
        with pytest.raises(SerializationError):
            TinyNet().load_state_dict(state)

    def test_unexpected_parameter_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["param.bogus"] = np.zeros(3)
        with pytest.raises(SerializationError):
            TinyNet().load_state_dict(state)

    def test_shape_mismatch_raises(self):
        net = TinyNet()
        state = net.state_dict()
        state["param.first.weight"] = np.zeros((2, 2))
        with pytest.raises(SerializationError):
            TinyNet().load_state_dict(state)

    def test_buffers_round_trip(self):
        net = Sequential(Linear(3, 3, rng=0), BatchNorm1d(3))
        net(Tensor(np.random.default_rng(0).normal(size=(8, 3)))).sum()
        state = net.state_dict()
        other = Sequential(Linear(3, 3, rng=1), BatchNorm1d(3))
        other.load_state_dict(state)
        assert np.allclose(other[1].running_mean, net[1].running_mean)
