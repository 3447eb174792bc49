"""Finite-difference gradient checks for every differentiable operation."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.gradcheck import check_gradients, numerical_gradient
from repro.autodiff.tensor import Tensor
from repro.exceptions import GradientError


def _tensor(shape, seed, positive=False):
    data = np.random.default_rng(seed).normal(size=shape)
    if positive:
        data = np.abs(data) + 0.5
    return Tensor(data, requires_grad=True)


class TestElementwiseGradients:
    @pytest.mark.parametrize(
        "name, function, positive",
        [
            ("add", lambda t: (t[0] + t[1]).sum(), False),
            ("sub", lambda t: (t[0] - t[1]).sum(), False),
            ("mul", lambda t: (t[0] * t[1]).sum(), False),
            ("div", lambda t: (t[0] / t[1]).sum(), True),
        ],
    )
    def test_binary_ops(self, name, function, positive):
        inputs = [_tensor((3, 4), 1, positive), _tensor((3, 4), 2, positive)]
        assert check_gradients(function, inputs)

    @pytest.mark.parametrize(
        "name, function, positive",
        [
            ("sqrt", lambda t: t[0].sqrt().sum(), True),
            ("relu", lambda t: (t[0].relu() * 3).sum(), False),
            ("pow", lambda t: (t[0] ** 3).sum(), True),
            ("neg", lambda t: (-t[0]).sum(), False),
        ],
    )
    def test_unary_ops(self, name, function, positive):
        inputs = [_tensor((4, 3), 5, positive)]
        assert check_gradients(function, inputs)

    def test_clamp_min_gradient_masks_clipped_region(self):
        inputs = [Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)]
        assert check_gradients(lambda t: (t[0].clamp_min(0.0) * 2).sum(), inputs)


class TestMatmulGradients:
    def test_matrix_matrix(self):
        inputs = [_tensor((4, 3), 0), _tensor((3, 2), 1)]
        assert check_gradients(lambda t: (t[0] @ t[1]).sum(), inputs)

    def test_vector_matrix(self):
        inputs = [_tensor((3,), 0), _tensor((3, 2), 1)]
        assert check_gradients(lambda t: (t[0] @ t[1]).sum(), inputs)

    def test_matrix_vector(self):
        inputs = [_tensor((4, 3), 0), _tensor((3,), 1)]
        assert check_gradients(lambda t: (t[0] @ t[1]).sum(), inputs)

    def test_vector_vector(self):
        inputs = [_tensor((5,), 0), _tensor((5,), 1)]
        assert check_gradients(lambda t: (t[0] @ t[1]) * 1.0, inputs)


class TestReductionShapeGradients:
    def test_sum_axis(self):
        inputs = [_tensor((3, 4), 9)]
        assert check_gradients(lambda t: (t[0].sum(axis=0) ** 2).sum(), inputs)

    def test_mean_axis_keepdims(self):
        inputs = [_tensor((3, 4), 9)]
        assert check_gradients(lambda t: (t[0].mean(axis=1, keepdims=True) ** 2).sum(), inputs)

    def test_reshape_transpose_chain(self):
        inputs = [_tensor((2, 6), 3)]
        assert check_gradients(
            lambda t: (t[0].reshape(3, 4).transpose() ** 2).sum(), inputs
        )

    def test_getitem_fancy_index(self):
        inputs = [_tensor((6, 2), 4)]
        index = np.array([0, 0, 3, 5])
        assert check_gradients(lambda t: (t[0][index] ** 2).sum(), inputs)

    def test_getitem_rows_and_columns(self):
        inputs = [_tensor((5, 4), 8)]
        rows = np.array([0, 2, 2])
        cols = np.array([1, 1, 3])
        assert check_gradients(lambda t: (t[0][rows, cols] ** 2).sum(), inputs)

    def test_broadcast_multiply(self):
        inputs = [_tensor((4, 3), 1), _tensor((3,), 2)]
        assert check_gradients(lambda t: (t[0] * t[1]).sum(), inputs)


class TestOpsFunctionGradients:
    def test_l2_normalize(self):
        inputs = [_tensor((3, 4), 6)]
        assert check_gradients(lambda t: (ops.l2_normalize(t[0]) ** 2).sum(), inputs)

    def test_pairwise_squared_distance(self):
        inputs = [_tensor((4, 3), 1), _tensor((4, 3), 2)]
        assert check_gradients(
            lambda t: ops.pairwise_squared_distance(t[0], t[1]).sum(), inputs
        )

    def test_euclidean_distance(self):
        # the smoothed distance ContrastiveLoss's Hadsell variant takes
        inputs = [_tensor((4, 3), 1), _tensor((4, 3), 2)]
        assert check_gradients(
            lambda t: (ops.pairwise_squared_distance(t[0], t[1]) + 1e-12).sqrt().sum(), inputs
        )


class TestGradcheckUtilities:
    def test_numerical_gradient_of_quadratic(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        numeric = numerical_gradient(lambda t: (t[0] ** 2).sum(), [x], 0)
        assert np.allclose(numeric, 2 * x.data, atol=1e-4)

    def test_check_gradients_detects_mismatch(self):
        # A function whose forward uses detach() so the analytic gradient is zero
        # while the numerical gradient is not — must be flagged.
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)

        def bad(inputs):
            return (inputs[0].detach() * inputs[0].detach()).sum() + inputs[0].sum() * 0.0

        with pytest.raises(GradientError):
            check_gradients(bad, [x])

    def test_check_gradients_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(GradientError):
            check_gradients(lambda t: t[0] * 2, [x])

    def test_check_gradients_non_raising_mode(self):
        x = Tensor(np.array([1.0]), requires_grad=True)

        def bad(inputs):
            return (inputs[0].detach() ** 2).sum() + inputs[0].sum() * 0.0

        assert check_gradients(bad, [x], raise_on_failure=False) is False
