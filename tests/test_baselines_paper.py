"""Tests for the paper's two baselines (Pre-trained, Re-trained) and learner cloning."""

import numpy as np
import pytest

from repro.baselines.base import clone_pretrained
from repro.baselines.pretrained import PretrainedBaseline
from repro.baselines.retrained import RetrainedBaseline
from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.exceptions import NotFittedError


class TestClonePretrained:
    def test_clone_is_deep(self, pretrained_pilote):
        clone = clone_pretrained(pretrained_pilote)
        for parameter in clone.model.parameters():
            parameter.data += 1.0
        original = pretrained_pilote.model.parameters()[0].data
        cloned = clone.model.parameters()[0].data
        assert not np.allclose(original, cloned)

    def test_clone_preserves_prototypes(self, pretrained_pilote):
        clone = clone_pretrained(pretrained_pilote)
        assert clone.prototypes.classes == pretrained_pilote.prototypes.classes


class TestPretrainedBaseline:
    def test_increment_does_not_modify_embedding(self, pretrained_pilote, run_scenario):
        baseline = PretrainedBaseline(pretrained=pretrained_pilote)
        weights_before = [p.data.copy() for p in baseline.learner.model.parameters()]
        baseline.learn_increment(run_scenario.new_train)
        weights_after = [p.data for p in baseline.learner.model.parameters()]
        for before, after in zip(weights_before, weights_after):
            assert np.allclose(before, after)

    def test_increment_adds_new_class_prototype(self, pretrained_pilote, run_scenario):
        baseline = PretrainedBaseline(pretrained=pretrained_pilote)
        baseline.learn_increment(run_scenario.new_train)
        assert int(Activity.RUN) in baseline.learner.classes_
        predictions = baseline.predict(run_scenario.test.features)
        assert int(Activity.RUN) in set(predictions.tolist())

    def test_accuracy_reasonable_but_limited(self, pretrained_pilote, run_scenario):
        baseline = PretrainedBaseline(pretrained=pretrained_pilote)
        baseline.learn_increment(run_scenario.new_train)
        accuracy = baseline.evaluate(run_scenario.test)
        assert 0.3 < accuracy <= 1.0

    def test_original_learner_untouched(self, pretrained_pilote, run_scenario):
        n_classes_before = len(pretrained_pilote.classes_)
        baseline = PretrainedBaseline(pretrained=pretrained_pilote)
        baseline.learn_increment(run_scenario.new_train)
        assert len(pretrained_pilote.classes_) == n_classes_before

    def test_increment_before_fit_raises(self, tiny_config, run_scenario):
        with pytest.raises(NotFittedError):
            PretrainedBaseline(pretrained=PILOTE(tiny_config)).learn_increment(run_scenario.new_train)


class TestRetrainedBaseline:
    def test_increment_updates_embedding(self, pretrained_pilote, run_scenario):
        baseline = RetrainedBaseline(pretrained=pretrained_pilote)
        weights_before = [p.data.copy() for p in baseline.learner.model.parameters()]
        baseline.learn_increment(run_scenario.new_train, run_scenario.new_validation)
        changed = any(
            not np.allclose(before, after.data)
            for before, after in zip(weights_before, baseline.learner.model.parameters())
        )
        assert changed

    def test_alpha_forced_to_zero(self, pretrained_pilote, run_scenario):
        baseline = RetrainedBaseline(pretrained=pretrained_pilote)
        baseline.learn_increment(run_scenario.new_train, run_scenario.new_validation)
        assert baseline.learner.config.alpha == 0.0

    def test_learns_the_new_class(self, pretrained_pilote, run_scenario):
        baseline = RetrainedBaseline(pretrained=pretrained_pilote)
        baseline.learn_increment(run_scenario.new_train, run_scenario.new_validation)
        new_test = run_scenario.test.select_classes([int(Activity.RUN)])
        assert baseline.evaluate(new_test) > 0.5

    def test_increment_before_fit_raises(self, tiny_config, run_scenario):
        with pytest.raises(NotFittedError):
            RetrainedBaseline(pretrained=PILOTE(tiny_config)).learn_increment(run_scenario.new_train)

    def test_known_classes_after_increment(self, pretrained_pilote, run_scenario):
        baseline = RetrainedBaseline(pretrained=pretrained_pilote)
        baseline.learn_increment(run_scenario.new_train, run_scenario.new_validation)
        assert sorted(baseline.learner.classes_) == sorted(
            run_scenario.old_classes + run_scenario.new_classes
        )
