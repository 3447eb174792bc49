"""Tests for optimisers and learning-rate schedulers."""

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.backend import precision
from repro.exceptions import GradientError
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.schedulers import MIN_LR, HalvingLR


def _quadratic_step(optimizer, parameter):
    """One optimisation step on f(w) = ||w||^2 / 2 (gradient = w)."""
    optimizer.zero_grad()
    loss = (parameter * parameter).sum() * 0.5
    loss.backward()
    optimizer.step()


class TestOptimizers:
    def test_adam_descends_quadratic(self):
        parameter = Parameter(np.array([4.0, -2.0, 1.0]))
        optimizer = Adam([parameter], lr=0.2)
        for _ in range(120):
            _quadratic_step(optimizer, parameter)
        assert np.allclose(parameter.data, 0.0, atol=1e-2)

    def test_a_missing_gradient_raises_and_changes_nothing(self):
        used = Parameter(np.array([1.0]))
        unused = Parameter(np.array([5.0]))
        optimizer = Adam([used, unused], lr=0.1)
        with pytest.raises(GradientError, match=r"gradient for the parameters at \[1\]"):
            _quadratic_step(optimizer, used)
        assert used.data.tolist() == [1.0] and unused.data.tolist() == [5.0]
        assert optimizer._step_count == 0

    def test_mixed_dtypes_raise(self):
        with precision("edge"):
            narrow = Parameter(np.array([1.0]))
        with pytest.raises(GradientError, match="one dtype"):
            Adam([Parameter(np.array([1.0])), narrow], lr=0.1)

    def test_invalid_hyperparameters(self):
        parameter = Parameter(np.array([1.0]))
        with pytest.raises(ValueError):
            Adam([parameter], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_set_lr_validation(self):
        optimizer = Adam([Parameter(np.array([1.0]))], lr=0.1)
        with pytest.raises(ValueError):
            optimizer.set_lr(0.0)


class TestSchedulers:
    def _optimizer(self, lr=0.01):
        return Adam([Parameter(np.array([1.0]))], lr=lr)

    def test_halving_schedule_matches_paper(self):
        optimizer = self._optimizer(0.01)
        scheduler = HalvingLR(optimizer)
        values = [scheduler.step() for _ in range(3)]
        assert values == pytest.approx([0.005, 0.0025, 0.00125])
        assert optimizer.lr == pytest.approx(0.00125)

    def test_halving_respects_floor(self):
        optimizer = self._optimizer(0.01)
        scheduler = HalvingLR(optimizer)
        for _ in range(13):
            scheduler.step()
        assert optimizer.lr > MIN_LR
        scheduler.step()  # 0.01 / 2**14 is below the floor
        assert optimizer.lr == MIN_LR

    def test_rate_below_the_floor_is_never_raised(self):
        optimizer = self._optimizer(5e-7)
        scheduler = HalvingLR(optimizer)
        assert [scheduler.step() for _ in range(3)] == [5e-7, 5e-7, 5e-7]
        assert optimizer.lr == 5e-7
