"""Tests for the PILOTE learner (pre-training, incremental updates, inference, forgetting)."""

import copy

import numpy as np
import pytest

from repro.autodiff.primitives import pilote_loss
from repro.backend import default_dtype, precision
from repro.core import pilote as pilote_module
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.data.streams import build_incremental_scenario
from repro.exceptions import DataError, NotFittedError
from repro.metrics.forgetting import old_class_accuracy
from repro.nn.trainer import Trainer


class TestPretraining:
    def test_pretrain_learns_old_classes(self, pretrained_pilote, run_scenario):
        old_test = run_scenario.test.select_classes(run_scenario.old_classes)
        assert pretrained_pilote.evaluate(old_test) > 0.75

    def test_pretrain_builds_support_set_and_prototypes(self, pretrained_pilote, run_scenario):
        assert pretrained_pilote.exemplars.classes == run_scenario.old_classes
        assert pretrained_pilote.prototypes.classes == run_scenario.old_classes
        assert all(
            count == 15 for count in pretrained_pilote.exemplars.exemplars_per_class().values()
        )

    def test_pretrain_history_respects_epoch_cap(self, pretrained_pilote, tiny_config):
        assert pretrained_pilote.is_pretrained
        assert pretrained_pilote.old_classes == [0, 1, 3, 4]

    def test_pretrain_requires_samples(self, tiny_config):
        from repro.data.dataset import HARDataset

        learner = PILOTE(tiny_config)
        with pytest.raises(DataError):
            learner.pretrain(HARDataset(features=np.ones((1, 4)), labels=np.array([0])))

    def test_predict_before_training_raises(self, tiny_config):
        learner = PILOTE(tiny_config)
        with pytest.raises(NotFittedError):
            learner.predict(np.zeros((1, 80)))
        with pytest.raises(NotFittedError):
            learner.embed(np.zeros((1, 80)))


class TestSupportSet:
    def test_rebuild_with_different_budget(self, pilote_copy):
        pilote_copy.build_support_set(per_class=5)
        assert all(c == 5 for c in pilote_copy.exemplars.exemplars_per_class().values())

    def test_rebuild_with_random_strategy(self, pilote_copy):
        pilote_copy.build_support_set(per_class=8, strategy="random")
        assert pilote_copy.exemplars.strategy == "random"
        assert sum(pilote_copy.exemplars.exemplars_per_class().values()) == 8 * 4

    def test_build_without_pretrain_raises(self, tiny_config):
        with pytest.raises(NotFittedError):
            PILOTE(tiny_config).build_support_set()

    def test_per_class_budget_follows_algorithm1(self, pilote_copy, tiny_config):
        # Without an explicit budget each old class keeps K // n_classes rows.
        pilote_copy.build_support_set()
        classes = pilote_copy.exemplars.classes
        budget = tiny_config.cache_size // len(classes)
        assert budget == 20
        assert pilote_copy.exemplars.exemplars_per_class() == {c: budget for c in classes}

    def test_new_class_keeps_the_old_classes_budget(self, incremented_pilote):
        counts = incremented_pilote.exemplars.exemplars_per_class()
        assert counts[int(Activity.RUN)] == 15
        assert set(counts.values()) == {15}


class TestIncrementalLearning:
    def test_learn_new_class_extends_known_classes(self, incremented_pilote):
        assert int(Activity.RUN) in incremented_pilote.classes_
        assert incremented_pilote.new_classes == [int(Activity.RUN)]
        assert len(incremented_pilote.classes_) == 5

    def test_new_class_gets_exemplars_and_prototype(self, incremented_pilote):
        assert int(Activity.RUN) in incremented_pilote.exemplars.classes
        assert int(Activity.RUN) in incremented_pilote.prototypes.classes

    def test_accuracy_on_full_test_set(self, incremented_pilote, run_scenario):
        assert incremented_pilote.evaluate(run_scenario.test) > 0.6

    def test_new_class_is_actually_learned(self, incremented_pilote, run_scenario):
        new_test = run_scenario.test.select_classes([int(Activity.RUN)])
        assert incremented_pilote.evaluate(new_test) > 0.5

    def test_old_classes_not_catastrophically_forgotten(
        self, pretrained_pilote, incremented_pilote, run_scenario
    ):
        old_test = run_scenario.test.select_classes(run_scenario.old_classes)
        before = pretrained_pilote.evaluate(old_test)
        after = incremented_pilote.evaluate(old_test)
        assert after > before - 0.25

    def test_learn_without_pretrain_raises(self, tiny_config, run_scenario):
        learner = PILOTE(tiny_config)
        with pytest.raises(NotFittedError):
            learner.learn_new_classes(run_scenario.new_train)

    def test_learning_known_class_raises(self, pilote_copy, run_scenario):
        known = run_scenario.old_train.select_classes([run_scenario.old_classes[0]])
        with pytest.raises(DataError):
            pilote_copy.learn_new_classes(known)

    def test_learn_with_empty_support_set_raises(self, pilote_copy, run_scenario):
        pilote_copy.exemplars._exemplars.clear()
        with pytest.raises(NotFittedError):
            pilote_copy.learn_new_classes(run_scenario.new_train)

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_training_rows_arrive_in_the_policy_dtype(
        self, pilote_copy, run_scenario, monkeypatch, profile
    ):
        """The training rows arrive cast; a validation pass embeds the
        support rows as a view of them and the new validation rows from one
        array cast up front, reused every epoch."""
        seen, embedded = [], []
        fit = Trainer.fit
        embed = EmbeddingNetwork.embed

        def recording_fit(trainer, batch_loss, features, *, validation_loss=None):
            seen.append(features.dtype)

            def recording_validation():
                calls = len(embedded)
                loss = validation_loss()
                (support, support_shared), (extra, extra_shared) = embedded[calls:]
                assert support_shared and not extra_shared
                assert support.dtype == extra.dtype == default_dtype()
                validation_rows.append(extra)
                return loss

            def recording_embed(model, rows):
                embedded.append((rows, np.shares_memory(rows, features)))
                return embed(model, rows)

            validation_rows = []
            monkeypatch.setattr(EmbeddingNetwork, "embed", recording_embed)
            history = fit(trainer, batch_loss, features,
                          validation_loss=recording_validation)
            assert len(validation_rows) == history.epochs_run
            assert all(rows is validation_rows[0] for rows in validation_rows)
            return history

        monkeypatch.setattr(Trainer, "fit", recording_fit)
        with precision(profile):
            pilote_copy.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
            assert seen == [default_dtype()]

    def test_predictions_cover_all_classes(self, incremented_pilote, run_scenario):
        predictions = incremented_pilote.predict(run_scenario.test.features)
        assert set(np.unique(predictions)).issubset(set(incremented_pilote.classes_))


class TestIncrementTeacher:
    """The teacher and validation set an increment builds from one copy of
    the support rows, pinned on a second increment: its support set holds
    the first increment's new class (Run, 2) between the old classes
    (Drive 0, Still 3, Walk 4), so the old-class rows are not a prefix."""

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_second_increment_teacher_and_validation_loss(
        self, har_dataset, tiny_config, monkeypatch, profile
    ):
        scenario = build_incremental_scenario(
            har_dataset, [Activity.RUN, Activity.ESCOOTER], rng=5
        )
        old_classes = scenario.old_classes
        with precision(profile):
            learner = PILOTE(tiny_config, seed=0)
            learner.pretrain(scenario.old_train, scenario.old_validation,
                             exemplars_per_class=15)
            learner.learn_new_classes(
                scenario.new_train.select_classes([Activity.RUN]),
                scenario.new_validation.select_classes([Activity.RUN]),
            )
            new_train = scenario.new_train.select_classes([Activity.ESCOOTER])
            new_validation = scenario.new_validation.select_classes([Activity.ESCOOTER])
            support, support_labels = learner.exemplars.as_dataset()
            assert learner.exemplars.classes == [0, 2, 3, 4]
            old_support = {row.tobytes() for row in
                           support[np.isin(support_labels, old_classes)]}
            frozen = copy.deepcopy(learner.model)
            validation_rows = np.concatenate(
                [support, new_validation.features.astype(default_dtype())]
            )
            validation_labels = np.concatenate([support_labels, new_validation.labels])

            steps, passes = [], []
            training_loss = EmbeddingNetwork.training_loss

            def recording_step(model, features, **objective):
                steps.append((features.copy(), objective["old_rows"], objective["teacher"]))
                return training_loss(model, features, **objective)

            def recording_loss(embeddings, **objective):
                loss = pilote_loss(embeddings, **objective)
                one_call = learner.model.embed(validation_rows)
                passes.append((loss, embeddings, one_call, objective))
                return loss

            monkeypatch.setattr(EmbeddingNetwork, "training_loss", recording_step)
            monkeypatch.setattr(pilote_module, "pilote_loss", recording_loss)
            history = learner.learn_new_classes(new_train, new_validation)
            monkeypatch.undo()

            assert len(steps) > 0
            for features, old_rows, teacher in steps:
                expected_old = [i for i, row in enumerate(features)
                                if row.tobytes() in old_support]
                assert old_rows.tolist() == expected_old
                assert teacher.dtype == default_dtype()
                assert teacher.tobytes() == frozen.embed(features[old_rows]).tobytes()

            assert len(passes) == history.epochs_run == len(history.validation_losses)
            for (loss, embeddings, one_call, objective), recorded in zip(
                passes, history.validation_losses
            ):
                assert embeddings.tobytes() == one_call.tobytes()
                assert float(pilote_loss(one_call, **objective)) == recorded == float(loss)
                old_rows = objective["old_rows"]
                assert old_rows.tolist() == np.flatnonzero(
                    np.isin(validation_labels, old_classes)).tolist()
                assert objective["teacher"].tobytes() == frozen.embed(
                    validation_rows[old_rows]).tobytes()

    def test_validation_rows_of_a_known_class_raise(self, pilote_copy, run_scenario):
        known = run_scenario.old_validation.select_classes([run_scenario.old_classes[0]])
        with pytest.raises(DataError):
            pilote_copy.learn_new_classes(run_scenario.new_train, known)


class TestDistillationEffect:
    def test_pilote_beats_plain_retraining_on_old_classes(self, pretrained_pilote, run_scenario):
        """The core claim of the paper at test scale: distillation (α=0.5) preserves
        old-class accuracy at least as well as re-training without it (α=0)."""
        pilote = copy.deepcopy(pretrained_pilote)
        retrained = copy.deepcopy(pretrained_pilote)
        retrained.config = retrained.config.with_overrides(alpha=0.0)
        pilote.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        retrained.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        test = run_scenario.test
        pilote_old = old_class_accuracy(
            test.labels, pilote.predict(test.features), run_scenario.old_classes
        )
        retrained_old = old_class_accuracy(
            test.labels, retrained.predict(test.features), run_scenario.old_classes
        )
        assert pilote_old >= retrained_old - 0.05

    def test_no_teacher_outlives_the_increment(self, incremented_pilote):
        # The frozen teacher's embeddings are computed once per increment;
        # no second copy of the network stays on the device afterwards.
        assert not hasattr(incremented_pilote, "teacher")
        networks = [v for v in vars(incremented_pilote).values()
                    if isinstance(v, EmbeddingNetwork)]
        assert networks == [incremented_pilote.model]


class TestResourceAccounting:
    def test_memory_footprint_keys(self, incremented_pilote):
        footprint = incremented_pilote.memory_footprint()
        assert footprint["total_bytes"] == (
            footprint["model_bytes"]
            + footprint["support_set_bytes"]
            + footprint["prototype_bytes"]
        )
        assert footprint["support_set_bytes"] == incremented_pilote.support_set_nbytes()

    def test_support_set_bytes_scale_with_budget(self, pilote_copy):
        before = pilote_copy.support_set_nbytes()
        pilote_copy.build_support_set(per_class=5)
        assert pilote_copy.support_set_nbytes() < before

    def test_model_bytes_positive(self, pretrained_pilote):
        assert pretrained_pilote.model_nbytes() > 0
        assert PILOTE(PiloteConfig.edge_lightweight()).model_nbytes() == 0
