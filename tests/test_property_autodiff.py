"""Property-based tests (hypothesis) for the autodiff engine.

Every analytic gradient must agree with a central finite-difference estimate
for arbitrary well-conditioned inputs, and basic algebraic identities of the
forward pass must hold exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.autodiff import ops
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor

SETTINGS = dict(max_examples=25, deadline=None)

finite_floats = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False, width=64
)


def small_matrix(rows=st.integers(2, 5), cols=st.integers(2, 5)):
    return hnp.arrays(np.float64, st.tuples(rows, cols), elements=finite_floats)


class TestForwardAlgebra:
    @given(small_matrix())
    @settings(**SETTINGS)
    def test_addition_commutes(self, data):
        a, b = Tensor(data), Tensor(data[::-1].copy())
        assert np.allclose((a + b).data, (b + a).data)

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_double_negation_is_identity(self, data):
        assert np.allclose((-(-Tensor(data))).data, data)

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_sum_matches_numpy(self, data):
        assert np.isclose(Tensor(data).sum().data, data.sum())

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_relu_is_idempotent_and_nonnegative(self, data):
        once = Tensor(data).relu()
        twice = once.relu()
        assert np.all(once.data >= 0)
        assert np.allclose(once.data, twice.data)

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_reshape_preserves_contents(self, data):
        flat = Tensor(data).reshape(data.size)
        assert np.allclose(np.sort(flat.data), np.sort(data.reshape(-1)))

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_l2_normalize_unit_norm(self, data):
        normalised = ops.l2_normalize(Tensor(data + 0.1), axis=1).data
        norms = np.linalg.norm(normalised, axis=1)
        assert np.allclose(norms[np.abs(data + 0.1).sum(axis=1) > 1e-6], 1.0, atol=1e-6)


class TestGradientProperties:
    @given(small_matrix())
    @settings(**SETTINGS)
    def test_sum_gradient_is_ones(self, data):
        tensor = Tensor(data, requires_grad=True)
        tensor.sum().backward()
        assert np.allclose(tensor.grad, 1.0)

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_linear_combination_gradient(self, data):
        tensor = Tensor(data, requires_grad=True)
        (tensor * 3.0 - tensor).sum().backward()
        assert np.allclose(tensor.grad, 2.0)

    @given(hnp.arrays(np.float64, st.tuples(st.integers(2, 4), st.integers(2, 4)),
                      elements=st.floats(min_value=-2.0, max_value=2.0,
                                         allow_nan=False, allow_infinity=False)))
    @settings(**SETTINGS)
    def test_elementwise_chain_matches_finite_differences(self, data):
        tensor = Tensor(data, requires_grad=True)
        assert check_gradients(
            lambda t: (((t[0] * 0.5) ** 2 + 1.0).sqrt() + (t[0] ** 2)).sum(), [tensor],
            atol=1e-4, rtol=1e-3,
        )

    @given(st.integers(2, 5), st.integers(2, 5), st.integers(1, 4))
    @settings(**SETTINGS)
    def test_matmul_gradient_shapes(self, n, k, m):
        rng = np.random.default_rng(n * 100 + k * 10 + m)
        a = Tensor(rng.normal(size=(n, k)), requires_grad=True)
        b = Tensor(rng.normal(size=(k, m)), requires_grad=True)
        ((a @ b) ** 2).sum().backward()
        assert a.grad.shape == (n, k)
        assert b.grad.shape == (k, m)

    @given(small_matrix())
    @settings(**SETTINGS)
    def test_gradient_of_constant_branch_is_zero(self, data):
        tensor = Tensor(data, requires_grad=True)
        (tensor.detach() * 5.0).sum()  # no backward possible; just must not crash
        (tensor * 0.0).sum().backward()
        assert np.allclose(tensor.grad, 0.0)
