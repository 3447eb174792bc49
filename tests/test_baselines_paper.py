"""Tests for the paper's two baselines (Pre-trained, Re-trained) as increment functions.

Both increment a learner in place; ``ExperimentRunner.compare`` hands each one
its own deep copy of the shared pre-trained learner.
"""

import copy

import numpy as np
import pytest

from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.evaluation.runner import (
    INCREMENTS,
    PAPER_METHODS,
    ExperimentRunner,
    pretrained_increment,
    retrained_increment,
)
from repro.exceptions import NotFittedError
from repro.experiments import ablations


class TestDeepCopiedLearner:
    def test_copy_is_deep(self, pretrained_pilote):
        clone = copy.deepcopy(pretrained_pilote)
        for parameter in clone.model.parameters():
            parameter.data += 1.0
        original = pretrained_pilote.model.parameters()[0].data
        cloned = clone.model.parameters()[0].data
        assert not np.allclose(original, cloned)

    def test_copy_preserves_prototypes(self, pretrained_pilote):
        clone = copy.deepcopy(pretrained_pilote)
        assert clone.prototypes.classes == pretrained_pilote.prototypes.classes


class TestIncrementTable:
    def test_methods_in_paper_order(self):
        assert PAPER_METHODS == ("pre-trained", "re-trained", "pilote")
        assert INCREMENTS["pre-trained"] is pretrained_increment
        assert INCREMENTS["re-trained"] is retrained_increment
        assert INCREMENTS["pilote"] is PILOTE.learn_new_classes

    def test_compare_reports_in_paper_order_whatever_the_request_order(
        self, pretrained_pilote, run_scenario, tiny_config
    ):
        runner = ExperimentRunner(tiny_config, methods=("pilote", "pre-trained"))
        comparison = runner.compare(run_scenario, pretrained=pretrained_pilote, rng=0)
        assert list(comparison.methods) == ["pre-trained", "pilote"]
        assert list(comparison.learners) == ["pre-trained", "pilote"]


class TestPretrainedIncrement:
    def test_increment_does_not_modify_embedding(self, pilote_copy, run_scenario):
        weights_before = [p.data.copy() for p in pilote_copy.model.parameters()]
        pretrained_increment(pilote_copy, run_scenario.new_train, None)
        weights_after = [p.data for p in pilote_copy.model.parameters()]
        for before, after in zip(weights_before, weights_after):
            assert np.allclose(before, after)

    def test_increment_adds_new_class_prototype(self, pilote_copy, run_scenario):
        pretrained_increment(pilote_copy, run_scenario.new_train, None)
        assert int(Activity.RUN) in pilote_copy.classes_
        predictions = pilote_copy.inference_engine().predict(run_scenario.test.features)
        assert int(Activity.RUN) in set(predictions.tolist())

    def test_accuracy_reasonable_but_limited(self, pilote_copy, run_scenario):
        pretrained_increment(pilote_copy, run_scenario.new_train, None)
        assert 0.3 < pilote_copy.evaluate(run_scenario.test) <= 1.0

    def test_original_learner_untouched(self, pretrained_pilote, run_scenario, tiny_config):
        n_classes_before = len(pretrained_pilote.classes_)
        runner = ExperimentRunner(tiny_config, methods=("pre-trained",))
        comparison = runner.compare(run_scenario, pretrained=pretrained_pilote, rng=0)
        assert int(Activity.RUN) in comparison.learners["pre-trained"].classes_
        assert len(pretrained_pilote.classes_) == n_classes_before

    def test_increment_before_fit_raises(self, tiny_config, run_scenario):
        with pytest.raises(NotFittedError):
            pretrained_increment(PILOTE(tiny_config), run_scenario.new_train, None)


class TestRetrainedIncrement:
    def test_increment_updates_embedding(self, pilote_copy, run_scenario):
        weights_before = [p.data.copy() for p in pilote_copy.model.parameters()]
        retrained_increment(pilote_copy, run_scenario.new_train, run_scenario.new_validation)
        changed = any(
            not np.allclose(before, after.data)
            for before, after in zip(weights_before, pilote_copy.model.parameters())
        )
        assert changed

    def test_alpha_forced_to_zero(self, pilote_copy, run_scenario):
        assert pilote_copy.config.alpha > 0.0
        retrained_increment(pilote_copy, run_scenario.new_train, run_scenario.new_validation)
        assert pilote_copy.config.alpha == 0.0

    def test_learns_the_new_class(self, pilote_copy, run_scenario):
        retrained_increment(pilote_copy, run_scenario.new_train, run_scenario.new_validation)
        new_test = run_scenario.test.select_classes([int(Activity.RUN)])
        assert pilote_copy.evaluate(new_test) > 0.5

    def test_increment_before_fit_raises(self, tiny_config, run_scenario):
        with pytest.raises(NotFittedError):
            retrained_increment(PILOTE(tiny_config), run_scenario.new_train, None)

    def test_known_classes_after_increment(self, pilote_copy, run_scenario):
        retrained_increment(pilote_copy, run_scenario.new_train, run_scenario.new_validation)
        assert sorted(pilote_copy.classes_) == sorted(
            run_scenario.old_classes + run_scenario.new_classes
        )

    def test_is_the_ablations_alpha_zero_point(self, pretrained_pilote, run_scenario, tiny_config):
        """The α ablation's α = 0 row is the Re-trained baseline, as its title says."""
        runner = ExperimentRunner(tiny_config, methods=("re-trained",))
        comparison = runner.compare(run_scenario, pretrained=pretrained_pilote, rng=0)
        scores = ablations._evaluate_variant(pretrained_pilote, run_scenario, alpha=0.0)
        assert scores["accuracy"] == comparison.methods["re-trained"].accuracy
