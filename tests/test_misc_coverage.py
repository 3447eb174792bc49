"""Additional coverage for small public APIs not exercised elsewhere:
weight initialisers, the loss modules called functionally, op error paths
and the edge-device profile catalogue."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.tensor import Tensor
from repro.edge.device import DEVICE_PROFILES
from repro.exceptions import ShapeError
from repro.nn.init import he_uniform, zeros_init
from repro.nn.losses import ContrastiveLoss, DistillationLoss


class TestInitializers:
    def test_he_bounds(self):
        weights = he_uniform((40, 20), rng=0)
        limit = np.sqrt(6.0 / 40)
        assert np.all(np.abs(weights) <= limit + 1e-12)

    def test_zeros(self):
        assert np.all(zeros_init((3, 3)) == 0.0)

    def test_deterministic_given_seed(self):
        assert np.allclose(he_uniform((5, 5), rng=3), he_uniform((5, 5), rng=3))

    def test_vector_shapes_supported(self):
        assert he_uniform((7,), rng=0).shape == (7,)


def _numpy_contrastive(left, right, same_class, *, margin=1.0, variant="squared"):
    """Plain-numpy Eq. 2, the oracle for :class:`ContrastiveLoss`."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    same = np.asarray(same_class, dtype=np.float64).reshape(-1)
    squared = ((left - right) ** 2).sum(axis=1)
    if variant == "squared":
        dissimilar = np.maximum(0.0, margin**2 - squared)
    else:
        distance = np.sqrt(squared + 1e-12)
        dissimilar = np.maximum(0.0, margin - distance) ** 2
    return float((same * squared + (1.0 - same) * dissimilar).mean())


def _numpy_distillation(new, old):
    """Plain-numpy mean of ``||new - old||²``, the oracle for :class:`DistillationLoss`."""
    new = np.asarray(new, dtype=np.float64)
    old = np.asarray(old, dtype=np.float64)
    return float(((new - old) ** 2).sum(axis=1).mean())


class TestFunctionalLossWrappers:
    """The loss modules built and called in one expression on raw arrays,
    the way a functional ``loss(left, right, same)`` call would, agree with
    the plain-numpy formulas."""

    def _pairs(self):
        rng = np.random.default_rng(0)
        return rng.normal(size=(6, 4)), rng.normal(size=(6, 4)), rng.integers(0, 2, size=6)

    def test_contrastive_wrapper_matches_numpy_value(self):
        left, right, same = self._pairs()
        differentiable = ContrastiveLoss(margin=1.5)(Tensor(left), Tensor(right), same)
        plain = _numpy_contrastive(left, right, same, margin=1.5)
        assert float(differentiable.data) == pytest.approx(plain)

    def test_contrastive_wrapper_hadsell_variant(self):
        left, right, same = self._pairs()
        criterion = ContrastiveLoss(margin=1.0, variant="hadsell")
        differentiable = criterion(Tensor(left), Tensor(right), same)
        plain = _numpy_contrastive(left, right, same, margin=1.0, variant="hadsell")
        assert float(differentiable.data) == pytest.approx(plain, abs=1e-6)

    def test_contrastive_wrapper_propagates_gradients(self):
        left, right, same = self._pairs()
        left_tensor = Tensor(left, requires_grad=True)
        ContrastiveLoss()(left_tensor, Tensor(right), same).backward()
        assert left_tensor.grad is not None

    def test_distillation_wrapper_matches_numpy_value(self):
        rng = np.random.default_rng(1)
        new, old = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        assert float(DistillationLoss()(Tensor(new), Tensor(old)).data) == pytest.approx(
            _numpy_distillation(new, old)
        )

    def test_distillation_zero_at_identity(self):
        embeddings = np.random.default_rng(2).normal(size=(4, 6))
        assert float(
            DistillationLoss()(Tensor(embeddings), Tensor(embeddings)).data
        ) == pytest.approx(0.0)
        assert _numpy_distillation(embeddings, embeddings) == pytest.approx(0.0)


class TestOpsErrorPaths:
    def test_pairwise_distance_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ops.pairwise_squared_distance(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))))


class TestDeviceProfiles:
    def test_catalogue_entries(self):
        assert {"smartphone", "wearable", "raspberry-pi"} <= set(DEVICE_PROFILES)
        for profile in DEVICE_PROFILES.values():
            assert profile.storage_bytes > 0
            assert 0 < profile.relative_compute <= 1.0

    def test_wearable_is_most_constrained(self):
        assert (
            DEVICE_PROFILES["wearable"].storage_bytes
            < DEVICE_PROFILES["smartphone"].storage_bytes
        )
        assert (
            DEVICE_PROFILES["wearable"].relative_compute
            <= DEVICE_PROFILES["raspberry-pi"].relative_compute
        )
