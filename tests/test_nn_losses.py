"""Tests for loss functions, including gradient checks and paper-equation semantics."""

import numpy as np
import pytest

from repro.autodiff import ops
from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor
from repro.exceptions import DataError, ShapeError
from repro.nn.losses import ContrastiveLoss, DistillationLoss


def _pair(seed, n=6, d=4):
    rng = np.random.default_rng(seed)
    left = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    right = Tensor(rng.normal(size=(n, d)), requires_grad=True)
    labels = rng.integers(0, 2, size=n).astype(float)
    return left, right, labels


class TestContrastiveLoss:
    def test_similar_pairs_penalise_distance(self):
        loss = ContrastiveLoss(margin=1.0)
        left = Tensor([[0.0, 0.0]])
        right = Tensor([[3.0, 4.0]])
        value = float(loss(left, right, [1.0]).data)
        assert value == pytest.approx(25.0)  # squared distance

    def test_dissimilar_pairs_beyond_margin_are_free(self):
        loss = ContrastiveLoss(margin=1.0)
        left = Tensor([[0.0, 0.0]])
        right = Tensor([[3.0, 4.0]])
        assert float(loss(left, right, [0.0]).data) == pytest.approx(0.0)

    def test_dissimilar_pairs_within_margin_penalised(self):
        loss = ContrastiveLoss(margin=2.0)
        left = Tensor([[0.0, 0.0]])
        right = Tensor([[1.0, 0.0]])
        # m^2 - d^2 = 4 - 1 = 3 with the paper's squared variant.
        assert float(loss(left, right, [0.0]).data) == pytest.approx(3.0)

    def test_hadsell_variant_value(self):
        loss = ContrastiveLoss(margin=2.0, variant="hadsell")
        left = Tensor([[0.0, 0.0]])
        right = Tensor([[1.0, 0.0]])
        # (m - d)^2 = (2 - 1)^2 = 1
        assert float(loss(left, right, [0.0]).data) == pytest.approx(1.0, abs=1e-5)

    def test_sum_reduction(self):
        loss = ContrastiveLoss(margin=1.0, reduction="sum")
        left = Tensor([[1.0], [2.0]])
        right = Tensor([[0.0], [0.0]])
        assert float(loss(left, right, [1.0, 1.0]).data) == pytest.approx(5.0)

    def test_gradients(self):
        left, right, labels = _pair(0)
        loss = ContrastiveLoss(margin=1.5)
        assert check_gradients(lambda t: loss(t[0], t[1], labels), [left, right])

    def test_hadsell_gradients(self):
        left, right, labels = _pair(1)
        loss = ContrastiveLoss(margin=1.5, variant="hadsell")
        assert check_gradients(lambda t: loss(t[0], t[1], labels), [left, right])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ContrastiveLoss()(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 3))), [1, 0])

    def test_label_count_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ContrastiveLoss()(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))), [1.0])

    @pytest.mark.parametrize("bad_kwargs", [{"margin": 0.0}, {"variant": "foo"}, {"reduction": "max"}])
    def test_invalid_construction(self, bad_kwargs):
        with pytest.raises(ValueError):
            ContrastiveLoss(**bad_kwargs)


class TestDistillationLoss:
    def test_zero_when_embeddings_match(self):
        embeddings = Tensor(np.random.default_rng(0).normal(size=(4, 8)))
        assert float(DistillationLoss()(embeddings, embeddings.detach()).data) == pytest.approx(0.0)

    def test_value_is_mean_squared_distance(self):
        new = Tensor([[1.0, 0.0], [0.0, 0.0]])
        old = Tensor([[0.0, 0.0], [0.0, 2.0]])
        assert float(DistillationLoss()(new, old).data) == pytest.approx((1.0 + 4.0) / 2)

    def test_teacher_receives_no_gradient(self):
        new = Tensor(np.ones((3, 2)), requires_grad=True)
        old = Tensor(np.zeros((3, 2)), requires_grad=True)
        DistillationLoss()(new, old).backward()
        assert new.grad is not None
        assert old.grad is None

    def test_gradients(self):
        new = Tensor(np.random.default_rng(3).normal(size=(5, 4)), requires_grad=True)
        old = np.random.default_rng(4).normal(size=(5, 4))
        assert check_gradients(lambda t: DistillationLoss()(t[0], Tensor(old)), [new])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            DistillationLoss()(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))))


def pilote_step(embeddings, left, right, labels, **objective):
    """``ops.pilote_step`` over one identity ``linear`` layer, so the step's
    embeddings are exactly the given rows (``x @ I + 0``)."""
    width = embeddings.shape[1]
    parameters = [Tensor(np.eye(width), requires_grad=True),
                  Tensor(np.zeros(width), requires_grad=True)]
    loss, batch_stats = ops.pilote_step(
        embeddings, parameters, layers=[("linear", None)], left=left, right=right,
        same_class=labels, **objective,
    )
    assert batch_stats == []
    return loss


class TestPiloteObjective:
    """``ops.pilote_step``'s objective: α · L_disti + (1 − α) · L_contra."""

    @staticmethod
    def _batch(seed):
        """Pairs (i, 6 + i) over a 12-row batch, rows 0, 3, 7, 9 old-class."""
        left, right, labels = _pair(seed)
        embeddings = Tensor(np.concatenate([left.data, right.data]), requires_grad=True)
        old_rows = np.array([0, 3, 7, 9])
        teacher = np.random.default_rng(seed + 100).normal(size=(4, 4))
        return embeddings, np.arange(6), np.arange(6, 12), labels, old_rows, teacher

    def test_alpha_zero_equals_contrastive(self):
        embeddings, left, right, labels, old_rows, teacher = self._batch(5)
        joint = pilote_step(embeddings, left, right, labels, alpha=0.0,
                            old_rows=old_rows, teacher=teacher)
        contrastive = ContrastiveLoss(margin=1.0)(embeddings[left], embeddings[right], labels)
        assert float(joint.data) == float(contrastive.data)

    def test_without_old_rows_distillation_is_skipped(self):
        embeddings, left, right, labels, _, _ = self._batch(6)
        contrastive = float(
            ContrastiveLoss(margin=1.0)(embeddings[left], embeddings[right], labels).data
        )
        pretrain = pilote_step(embeddings, left, right, labels, alpha=0.5)
        no_old = pilote_step(embeddings, left, right, labels, alpha=0.5,
                             old_rows=np.array([], dtype=np.int64))
        assert float(pretrain.data) == contrastive
        assert float(no_old.data) == pytest.approx(0.5 * contrastive)

    def test_combination_weights(self):
        embeddings, left, right, labels, old_rows, teacher = self._batch(7)
        value = float(pilote_step(embeddings, left, right, labels, alpha=0.3,
                                  old_rows=old_rows, teacher=teacher).data)
        contrastive = float(
            ContrastiveLoss(margin=1.0)(embeddings[left], embeddings[right], labels).data
        )
        distillation = float(DistillationLoss()(embeddings[old_rows], Tensor(teacher)).data)
        assert value == pytest.approx(0.3 * distillation + 0.7 * contrastive)

    def test_gradients_reach_only_gathered_rows(self):
        embeddings, _, _, labels, old_rows, teacher = self._batch(8)
        left, right = np.array([0, 1, 2, 0, 1, 3]), np.array([4, 5, 4, 6, 3, 9])
        pilote_step(embeddings, left, right, labels, alpha=0.4,
                    old_rows=old_rows, teacher=teacher).backward()
        untouched = sorted(set(range(12)) - set(left) - set(right) - set(old_rows))
        assert untouched and not embeddings.grad[untouched].any()
        assert embeddings.grad[old_rows].any(axis=1).all()

    def test_invalid_alpha(self):
        embeddings, left, right, labels, _, _ = self._batch(9)
        with pytest.raises(DataError):
            pilote_step(embeddings, left, right, labels, alpha=1.5)

    def test_invalid_construction(self):
        embeddings, left, right, labels, old_rows, teacher = self._batch(10)
        with pytest.raises(DataError):
            pilote_step(embeddings, left, right, labels, variant="cosine")
        with pytest.raises(DataError):
            pilote_step(embeddings, left, right, labels, margin=0.0)
        with pytest.raises(ShapeError):
            pilote_step(embeddings, left, right[:3], labels)
        with pytest.raises(ShapeError):
            pilote_step(embeddings, left, right, labels[:4])
        with pytest.raises(ShapeError):
            pilote_step(embeddings, left, right, labels, alpha=0.5,
                        old_rows=old_rows, teacher=teacher[:2])
        with pytest.raises(ShapeError):  # BatchNorm statistics need two rows
            pilote_step(embeddings[:1], np.array([0]), np.array([0]), labels[:1])
        with pytest.raises(DataError):
            ops.pilote_step(embeddings, [], layers=[("dropout", None)], left=left,
                            right=right, same_class=labels)

    def test_checks_fixed_for_a_fit_raise_on_every_call(self):
        """The layer kinds, margin, variant and α are checked once per
        distinct value; a bad value is never remembered as checked."""
        embeddings, left, right, labels, _, _ = self._batch(11)
        pilote_step(embeddings, left, right, labels, alpha=0.5)
        for _ in range(2):
            for bad in (dict(alpha=-0.1), dict(margin=-1.0), dict(variant="cosine")):
                with pytest.raises(DataError):
                    pilote_step(embeddings, left, right, labels, **bad)
            with pytest.raises(DataError):  # an unhashable entry is checked too
                ops.pilote_step(embeddings, [], layers=[["dropout", None]], left=left,
                                right=right, same_class=labels)

