"""Tests for the Tensor class: forward semantics, graph bookkeeping, backward."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, no_grad
from repro.exceptions import GradientError, ShapeError


class TestTensorBasics:
    def test_construction_from_list(self):
        tensor = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert tensor.shape == (2, 2)
        assert tensor.ndim == 2
        assert tensor.size == 4
        assert not tensor.requires_grad

    def test_construction_from_tensor_copies_data_reference(self):
        source = Tensor([1.0, 2.0])
        wrapped = Tensor(source)
        assert np.allclose(wrapped.data, source.data)

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_on_multi_element_tensor_raises_shape_error(self):
        from repro.exceptions import ShapeError

        with pytest.raises(ShapeError, match="exactly one element"):
            Tensor([1.0, 2.0]).item()
        with pytest.raises(ShapeError, match=r"shape \(2, 2\)"):
            Tensor(np.zeros((2, 2))).item()

    def test_item_on_size_one_matrix(self):
        assert Tensor(np.full((1, 1), 7.0)).item() == pytest.approx(7.0)

    def test_detach_cuts_graph(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        detached = (a * 2).detach()
        assert not detached.requires_grad

    def test_len_matches_first_dimension(self):
        assert len(Tensor(np.zeros((5, 2)))) == 5


class TestArithmeticForward:
    def test_add_broadcast(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        assert np.allclose((a + b).data, np.ones((2, 3)) + np.arange(3.0))

    def test_scalar_radd(self):
        assert np.allclose((1.0 + Tensor([1.0, 2.0])).data, [2.0, 3.0])

    def test_subtraction_and_rsub(self):
        a = Tensor([3.0])
        assert np.allclose((a - 1.0).data, [2.0])
        assert np.allclose((5.0 - a).data, [2.0])

    def test_multiplication_and_division(self):
        a = Tensor([2.0, 4.0])
        assert np.allclose((a * 3.0).data, [6.0, 12.0])
        assert np.allclose((a / 2.0).data, [1.0, 2.0])
        assert np.allclose((8.0 / a).data, [4.0, 2.0])

    def test_power(self):
        assert np.allclose((Tensor([2.0, 3.0]) ** 2).data, [4.0, 9.0])

    def test_power_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([2.0]) ** Tensor([2.0])

    def test_matmul_2d(self):
        a = Tensor(np.eye(2))
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose((a @ b).data, b.data)

    def test_matmul_rejects_scalars(self):
        with pytest.raises(ShapeError):
            Tensor(1.0) @ Tensor(2.0)

    def test_negation(self):
        assert np.allclose((-Tensor([1.0, -2.0])).data, [-1.0, 2.0])


class TestReductionsAndShapes:
    def test_sum_axis_keepdims(self):
        tensor = Tensor(np.arange(6.0).reshape(2, 3))
        assert tensor.sum().data == pytest.approx(15.0)
        assert tensor.sum(axis=0).shape == (3,)
        assert tensor.sum(axis=1, keepdims=True).shape == (2, 1)

    def test_mean_matches_numpy(self):
        data = np.arange(12.0).reshape(3, 4)
        assert np.allclose(Tensor(data).mean(axis=0).data, data.mean(axis=0))

    def test_reshape_and_transpose(self):
        tensor = Tensor(np.arange(6.0))
        assert tensor.reshape(2, 3).shape == (2, 3)
        assert tensor.reshape((3, 2)).shape == (3, 2)
        assert Tensor(np.zeros((2, 4))).T.shape == (4, 2)

    def test_getitem_slice_and_fancy(self):
        tensor = Tensor(np.arange(10.0))
        assert np.allclose(tensor[2:5].data, [2.0, 3.0, 4.0])
        assert np.allclose(tensor[np.array([1, 1, 3])].data, [1.0, 1.0, 3.0])

    def test_clamp_min(self):
        assert np.allclose(Tensor([-1.0, 2.0]).clamp_min(0.0).data, [0.0, 2.0])


class TestBackwardBasics:
    def test_backward_requires_grad(self):
        with pytest.raises(GradientError):
            Tensor([1.0]).backward()

    def test_backward_requires_scalar_without_seed(self):
        tensor = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(GradientError):
            (tensor * 2).backward()

    def test_simple_chain_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        y = x * x + 2.0 * x + 1.0
        y.backward()
        assert x.grad == pytest.approx(2 * 3.0 + 2.0)

    def test_gradient_accumulates_over_multiple_uses(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * x  # x used twice in two branches
        y.backward()
        assert x.grad == pytest.approx(8.0)

    def test_broadcast_gradient_is_reduced(self):
        bias = Tensor(np.zeros(3), requires_grad=True)
        data = Tensor(np.ones((4, 3)))
        loss = (data + bias).sum()
        loss.backward()
        assert bias.grad.shape == (3,)
        assert np.allclose(bias.grad, 4.0)

    def test_zero_grad_resets(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2).backward()
        x.zero_grad()
        assert x.grad is None

    def test_grad_matches_shape_of_data(self):
        w = Tensor(np.random.default_rng(0).normal(size=(3, 2)), requires_grad=True)
        x = Tensor(np.ones((5, 3)))
        ((x @ w) ** 2).sum().backward()
        assert w.grad.shape == w.data.shape


class TestNoGrad:
    def test_no_grad_disables_graph(self):
        with no_grad():
            x = Tensor(1.0, requires_grad=True)
            y = x * 2
        assert Tensor(1.0, requires_grad=True).requires_grad
        assert not y.requires_grad
        assert not x.requires_grad  # requires_grad was forced off at creation

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert Tensor(1.0, requires_grad=True).requires_grad

    def test_comparison_returns_numpy(self):
        result = Tensor([1.0, 3.0]) > 2.0
        assert isinstance(result, np.ndarray)
        assert result.tolist() == [False, True]
