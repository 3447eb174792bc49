"""Tests for the Trainer and the paper's early-stopping rule."""

import weakref

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor
from repro.nn.layers import Linear, Sequential, ReLU
from repro.nn.losses import ContrastiveLoss
from repro.nn.optim import Adam
from repro.nn.schedulers import HalvingLR
from repro.nn.trainer import EarlyStopping, Trainer, TrainingHistory


class TestEarlyStopping:
    def test_plateau_rule_from_paper(self):
        stopper = EarlyStopping(threshold=1e-4, patience=5)
        # 5 consecutive epochs with < 1e-4 change trigger a stop on the 6th value.
        assert not stopper.update(1.0)
        signals = [stopper.update(1.0 + 1e-6 * i) for i in range(1, 6)]
        assert signals[-1] is True
        assert all(not s for s in signals[:-1])

    def test_large_changes_reset_streak(self):
        stopper = EarlyStopping(threshold=1e-4, patience=3)
        stopper.update(1.0)
        stopper.update(1.00001)
        stopper.update(0.5)  # big improvement resets
        assert not stopper.update(0.50001)
        assert not stopper.update(0.500011)

    def test_reset(self):
        stopper = EarlyStopping(threshold=1e-4, patience=1)
        stopper.update(1.0)
        stopper.update(1.0)
        stopper.reset()
        assert not stopper.update(1.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            EarlyStopping(patience=0)

    def test_zero_threshold_never_stops(self):
        stopper = EarlyStopping(threshold=0.0, patience=1)
        assert not any(stopper.update(1.0) for _ in range(10))


class TestTrainingHistory:
    def test_epoch_count(self):
        history = TrainingHistory(train_losses=[1.0, 0.5], validation_losses=[0.9, 0.6])
        assert history.epochs_run == 2


def _trainer(model, lr, *, early_stopping=None, max_epochs, batch_size=64):
    """A trainer with the paper's schedule; by default early stopping
    never fires (no change in loss is below a threshold of 0)."""
    optimizer = Adam(model.parameters(), lr=lr)
    return Trainer(
        model, optimizer, scheduler=HalvingLR(optimizer),
        early_stopping=early_stopping or EarlyStopping(threshold=0.0, patience=1),
        max_epochs=max_epochs, batch_size=batch_size, rng=0,
    )


class TestTrainer:
    def _regression_setup(self, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(120, 5))
        true_weights = rng.normal(size=(5, 1))
        targets = features @ true_weights
        model = Sequential(Linear(5, 1, rng=seed))

        def batch_loss(batch_x, rows):
            error = model(Tensor(batch_x)) - Tensor(targets[rows])
            return (error * error).mean()

        return model, batch_loss, features, np.arange(len(features))

    def test_training_reduces_loss(self):
        model, batch_loss, features, every_row = self._regression_setup()
        trainer = _trainer(model, 0.5, max_epochs=20, batch_size=16)
        history = trainer.fit(batch_loss, features)
        assert history.train_losses[-1] < history.train_losses[0] * 0.2

    def test_early_stopping_halts_training(self):
        model, batch_loss, features, every_row = self._regression_setup(1)
        trainer = _trainer(
            model, 0.05,
            early_stopping=EarlyStopping(threshold=10.0, patience=2),  # huge threshold
            max_epochs=50, batch_size=16,
        )
        history = trainer.fit(
            batch_loss,
            features,
            validation_loss=lambda: batch_loss(features, every_row).data,
        )
        assert history.stopped_early
        assert history.epochs_run <= 4

    def test_scheduler_is_applied(self):
        model, batch_loss, features, every_row = self._regression_setup(2)
        trainer = _trainer(model, 0.01, max_epochs=3, batch_size=32)
        history = trainer.fit(batch_loss, features)
        assert history.learning_rates == pytest.approx([0.01, 0.005, 0.0025])
        assert trainer.optimizer.lr == pytest.approx(0.00125)

    def test_validation_loss_records_no_tape(self):
        model, batch_loss, features, every_row = self._regression_setup(4)
        recorded = []

        def validation_loss():
            loss = batch_loss(features, every_row)
            recorded.append(loss.requires_grad)
            return loss.data

        trainer = _trainer(model, 0.01, max_epochs=2)
        history = trainer.fit(batch_loss, features, validation_loss=validation_loss)
        assert recorded == [False, False]
        assert len(history.validation_losses) == 2

    def test_each_step_drops_its_tape_before_the_update_and_its_gradients_after(
        self, monkeypatch
    ):
        model, batch_loss, features, every_row = self._regression_setup(5)
        parameters = model.parameters()
        losses, steps, released = [], [], []

        def tracked_loss(batch_x, rows):
            # every step, and every validation pass, starts with no gradients
            released.append(all(p.grad is None for p in parameters))
            loss = batch_loss(batch_x, rows)
            losses.append(weakref.ref(loss.data))
            return loss

        adam_step = Adam.step

        def checked_step(optimizer):
            # the loss, and with it the step's tape, is gone; the gradients are not
            steps.append((losses[-1]() is None,
                          all(p.grad is not None for p in parameters)))
            adam_step(optimizer)

        monkeypatch.setattr(Adam, "step", checked_step)
        trainer = _trainer(model, 0.01, max_epochs=2, batch_size=32)
        trainer.fit(tracked_loss, features,
                    validation_loss=lambda: tracked_loss(features, every_row).data)
        assert len(steps) == 8  # 4 batches of 120 rows, 2 epochs
        assert steps == [(True, True)] * 8
        assert released == [True] * (8 + 2)
        assert all(p.grad is None for p in parameters)

    def test_model_left_in_eval_mode(self):
        model, batch_loss, features, every_row = self._regression_setup(3)
        trainer = _trainer(model, 0.01, max_epochs=1)
        trainer.fit(batch_loss, features)
        assert not model.training

    def test_classification_training_improves_accuracy(self):
        rng = np.random.default_rng(0)
        features = np.concatenate([rng.normal(-2, 1, size=(60, 4)), rng.normal(2, 1, size=(60, 4))])
        labels = np.array([0] * 60 + [1] * 60)
        model = Sequential(Linear(4, 8, rng=0), ReLU(), Linear(8, 2, rng=1))
        criterion = ContrastiveLoss(margin=2.0)

        def batch_loss(batch_x, rows):
            # every pair of the batch, as PILOTE's "all" pair strategy draws them
            batch_y = labels[rows]
            left, right = np.triu_indices(len(batch_y), k=1)
            embeddings = model(Tensor(batch_x))
            return criterion(embeddings[left], embeddings[right], batch_y[left] == batch_y[right])

        trainer = _trainer(model, 0.05, max_epochs=10, batch_size=16)
        history = trainer.fit(batch_loss, features)
        assert history.train_losses[-1] < history.train_losses[0]
        # nearest class mean in the learned embedding space (paper Eq. 1)
        embeddings = model(Tensor(features)).data
        means = np.stack([embeddings[labels == c].mean(axis=0) for c in (0, 1)])
        distances = ((embeddings[:, None, :] - means[None]) ** 2).sum(axis=2)
        assert (np.argmin(distances, axis=1) == labels).mean() > 0.9

    def test_minibatch_iteration_covers_all_samples(self):
        model, batch_loss, features, every_row = self._regression_setup(4)
        trainer = _trainer(model, 0.01, max_epochs=1, batch_size=32)
        batches = list(trainer.iterate_minibatches(features))
        assert sum(len(x) for x, _ in batches) == features.shape[0]
        # each batch's rows are the row ids of its features, every row once
        assert all(np.array_equal(x, features[rows]) for x, rows in batches)
        assert np.array_equal(np.sort(np.concatenate([rows for _, rows in batches])), every_row)

    def test_invalid_arguments(self):
        model, _, _, _ = self._regression_setup(5)
        with pytest.raises(ValueError):
            _trainer(model, 0.01, max_epochs=0)
        with pytest.raises(ValueError):
            _trainer(model, 0.01, max_epochs=1, batch_size=0)
