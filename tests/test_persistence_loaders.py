"""Tests for PILOTE checkpointing."""

import numpy as np
import pytest

from repro.core.persistence import load_pilote, save_pilote
from repro.core.pilote import PILOTE
from repro.exceptions import NotFittedError, SerializationError
from repro.utils.serialization import save_npz_state


class TestPilotePersistence:
    def test_round_trip_preserves_predictions(self, incremented_pilote, run_scenario, tmp_path):
        path = save_pilote(incremented_pilote, tmp_path / "learner")
        restored = load_pilote(path)
        original = incremented_pilote.predict(run_scenario.test.features)
        recovered = restored.predict(run_scenario.test.features)
        assert np.array_equal(original, recovered)

    def test_round_trip_preserves_bookkeeping(self, incremented_pilote, tmp_path):
        path = save_pilote(incremented_pilote, tmp_path / "learner")
        restored = load_pilote(path)
        assert restored.classes_ == incremented_pilote.classes_
        assert restored.old_classes == incremented_pilote.old_classes
        assert restored.new_classes == incremented_pilote.new_classes
        assert restored.exemplars.classes == incremented_pilote.exemplars.classes
        assert restored.config.alpha == incremented_pilote.config.alpha

    def test_restored_learner_can_keep_learning(self, pretrained_pilote, run_scenario, tmp_path):
        path = save_pilote(pretrained_pilote, tmp_path / "pretrained")
        restored = load_pilote(path)
        restored.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        assert restored.evaluate(run_scenario.test) > 0.5

    def test_saving_untrained_learner_raises(self, tiny_config, tmp_path):
        with pytest.raises(NotFittedError):
            save_pilote(PILOTE(tiny_config), tmp_path / "x")

    def test_loading_non_checkpoint_raises(self, tmp_path):
        path = save_npz_state(tmp_path / "plain", {"a": np.ones(3)})
        with pytest.raises(SerializationError):
            load_pilote(path)
