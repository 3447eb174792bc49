"""Tests for the batched serving engine and its wiring into the edge stack."""

import copy

import numpy as np
import pytest

from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.inference import InferenceEngine
from repro.edge.magneto import MagnetoPlatform
from repro.exceptions import DataError, EdgeResourceError


class TestInferenceEngineCorrectness:
    def test_batched_matches_one_at_a_time_predict(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote, batch_size=32)
        windows = run_scenario.test.features
        batched = engine.predict(windows)
        one_at_a_time = np.concatenate(
            [pretrained_pilote.predict(window[None, :]) for window in windows]
        )
        assert np.array_equal(batched, one_at_a_time)

    def test_batch_size_does_not_change_predictions(self, pretrained_pilote, run_scenario):
        windows = run_scenario.test.features
        small = InferenceEngine(pretrained_pilote, batch_size=7).predict(windows)
        large = InferenceEngine(pretrained_pilote, batch_size=512).predict(windows)
        assert np.array_equal(small, large)

    def test_matches_learner_predict_after_increment(self, incremented_pilote, run_scenario):
        engine = incremented_pilote.inference_engine()
        windows = run_scenario.test.features
        assert np.array_equal(engine.predict(windows), incremented_pilote.predict(windows))

    def test_single_window_accepted(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote)
        prediction = engine.predict(run_scenario.test.features[0])
        assert prediction.shape == (1,)

    def test_invalid_batch_size_rejected(self, pretrained_pilote):
        with pytest.raises(DataError):
            InferenceEngine(pretrained_pilote, batch_size=0)

    def test_empty_batch_returns_empty_predictions(self, pretrained_pilote, run_scenario):
        """Regression: an empty request must not crash the serving loop."""
        engine = InferenceEngine(pretrained_pilote)
        empty = np.empty((0, run_scenario.test.features.shape[1]))
        assert engine.predict(empty).shape == (0,)


class TestInferenceEngineCache:
    def test_cache_built_once_and_reused(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote, batch_size=64)
        windows = run_scenario.test.features[:20]
        engine.predict(windows)
        engine.predict(windows)
        info = engine.cache_info()
        assert info["cache_refreshes"] == 1
        assert info["windows_served"] == 40
        assert info["cached_classes"] == len(pretrained_pilote.classes_)

    def test_cache_invalidates_after_learn_new_classes(self, pilote_copy, run_scenario):
        engine = pilote_copy.inference_engine()
        old_predictions = engine.predict(run_scenario.test.features)
        assert engine.cache_info()["cache_refreshes"] == 1
        new_class = int(run_scenario.new_train.classes[0])
        assert new_class not in set(old_predictions.tolist())

        pilote_copy.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        predictions = engine.predict(run_scenario.test.features)
        info = engine.cache_info()
        assert info["cache_refreshes"] == 2
        assert info["cached_classes"] == len(pilote_copy.classes_)
        # The engine now serves the freshly learned class without re-wiring.
        assert new_class in set(predictions.tolist())
        assert np.array_equal(predictions, pilote_copy.predict(run_scenario.test.features))

    def test_explicit_invalidate_forces_rebuild(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote)
        engine.predict(run_scenario.test.features[:5])
        engine.invalidate()
        engine.predict(run_scenario.test.features[:5])
        assert engine.cache_info()["cache_refreshes"] == 2

    def test_engine_accessor_is_cached_on_learner(self, pilote_copy):
        assert pilote_copy.inference_engine() is pilote_copy.inference_engine()

    def test_engine_follows_direct_prototype_mutation(self, pilote_copy, run_scenario):
        """Regression: a direct store mutation must reach the engine, so the
        engine and ``learner.predict`` can never disagree."""
        engine = pilote_copy.inference_engine()
        windows = run_scenario.test.features[:16]
        engine.predict(windows)
        victim = pilote_copy.prototypes.classes[0]
        pilote_copy.prototypes.set(
            victim, np.full(pilote_copy.config.embedding_dim, 1e6)
        )
        mutated = engine.predict(windows)
        assert victim not in set(mutated.tolist())
        assert np.array_equal(mutated, pilote_copy.predict(windows))


class TestEdgeWiring:
    def test_device_attach_and_serve(self, pretrained_pilote, run_scenario):
        device = EdgeDevice()
        device.attach_inference(pretrained_pilote.inference_engine())
        predictions = device.serve(run_scenario.test.features[:8])
        assert predictions.shape == (8,)
        assert device.inference_requests == 1

    def test_device_profiles_default_to_float32(self):
        for profile in DEVICE_PROFILES.values():
            assert profile.compute_dtype == "float32"
        with pytest.raises(EdgeResourceError):
            DeviceProfile("bad", storage_bytes=1, memory_bytes=1, compute_dtype="float16")

    def test_device_precision_scope(self):
        device = EdgeDevice()
        with device.precision():
            from repro.backend import default_dtype

            assert default_dtype() == np.dtype(np.float32)

    def test_magneto_serves_through_device_engine(self, pretrained_pilote, run_scenario, tiny_config):
        platform = MagnetoPlatform(config=tiny_config)
        platform.cloud_learner = copy.deepcopy(pretrained_pilote)
        platform.deploy_to_edge()
        predictions = platform.serving_client().predict(run_scenario.test.features[:12])
        assert predictions.shape == (12,)
        assert platform.device.inference_requests == 1
        assert platform.device.engine is not None
        assert np.array_equal(
            predictions, platform.edge_learner.predict(run_scenario.test.features[:12])
        )
