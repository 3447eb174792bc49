"""Tests for the batched serving engine and its wiring into the edge stack."""

import copy

import numpy as np
import pytest

from repro.backend import precision
from repro.core.embedding import EMBED_ROWS
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.inference import STACKED_DISTANCES, InferenceEngine, classify_stacked
from repro.edge.magneto import MagnetoPlatform
from repro.exceptions import EdgeResourceError, NotFittedError
from repro.fleet import FleetDevice
from repro.serving import serve


class TestInferenceEngineCorrectness:
    def test_batched_matches_one_at_a_time_predict(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote)
        windows = run_scenario.test.features
        batched = engine.predict(windows)
        one_at_a_time = np.concatenate(
            [pretrained_pilote.predict(window[None, :]) for window in windows]
        )
        assert np.array_equal(batched, one_at_a_time)

    def test_batch_size_does_not_change_predictions(self, pretrained_pilote, run_scenario):
        """A request's size does not change its class ids: small requests
        and one past an embedding chunk answer what one whole request does."""
        engine = InferenceEngine(pretrained_pilote)
        windows = run_scenario.test.features
        whole = engine.predict(windows)
        in_sevens = np.concatenate(
            [engine.predict(windows[start:start + 7]) for start in range(0, len(windows), 7)]
        )
        assert np.array_equal(in_sevens, whole)
        repeats = EMBED_ROWS // len(windows) + 2
        tiled = engine.predict(np.tile(windows, (repeats, 1)))
        assert tiled.shape[0] > EMBED_ROWS
        assert np.array_equal(tiled, np.tile(whole, repeats))

    def test_matches_learner_predict_after_increment(self, incremented_pilote, run_scenario):
        engine = incremented_pilote.inference_engine()
        windows = run_scenario.test.features
        assert np.array_equal(engine.predict(windows), incremented_pilote.predict(windows))
        # A batch past one embedding chunk, in both precision profiles: every
        # serving path answers with the learner's own program.
        rng = np.random.default_rng(0)
        rows = rng.integers(0, windows.shape[0], EMBED_ROWS + 1)
        large = windows[rows] + rng.normal(scale=0.01, size=(rows.size, windows.shape[1]))
        for dtype in ("float64", "float32"):
            device = FleetDevice(0, EdgeDevice(DeviceProfile(
                "test", storage_bytes=2**30, memory_bytes=2**30, compute_dtype=dtype,
            )))
            device.adopt(copy.deepcopy(incremented_pilote))
            with precision(dtype):
                expected = incremented_pilote.predict(large)
                assert expected.shape == (EMBED_ROWS + 1,)
                assert np.array_equal(engine.predict(large), expected)
                assert np.array_equal(serve(incremented_pilote).predict(large), expected)
            assert np.array_equal(device.serve(large), expected)

    def test_single_window_accepted(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote)
        prediction = engine.predict(run_scenario.test.features[0])
        assert prediction.shape == (1,)

    def test_empty_batch_returns_empty_predictions(self, pretrained_pilote, run_scenario):
        """Regression: an empty request must not crash the serving loop."""
        engine = InferenceEngine(pretrained_pilote)
        empty = np.empty((0, run_scenario.test.features.shape[1]))
        assert engine.predict(empty).shape == (0,)


class TestInferenceEngineCache:
    def test_cache_built_once_and_reused(self, pretrained_pilote, run_scenario):
        engine = InferenceEngine(pretrained_pilote)
        windows = run_scenario.test.features[:20]
        engine.predict(windows)
        engine.predict(windows)
        assert engine.cache_refreshes == 1

    def test_cache_invalidates_after_learn_new_classes(self, pilote_copy, run_scenario):
        engine = pilote_copy.inference_engine()
        old_predictions = engine.predict(run_scenario.test.features)
        assert engine.cache_refreshes == 1
        new_class = int(run_scenario.new_train.classes[0])
        assert new_class not in set(old_predictions.tolist())

        pilote_copy.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        predictions = engine.predict(run_scenario.test.features)
        assert engine.cache_refreshes == 2
        # The engine now serves the freshly learned class without re-wiring.
        assert new_class in set(predictions.tolist())
        assert np.array_equal(predictions, pilote_copy.predict(run_scenario.test.features))

    def test_explicit_invalidate_forces_rebuild(self, pilote_copy, run_scenario):
        """``refit_classifier`` is the explicit invalidation: it bumps the
        learner's state version, so the next request refreshes and answers
        from the refitted classifier."""
        engine = pilote_copy.inference_engine()
        windows = run_scenario.test.features[:5]
        before = engine.predict(windows)
        assert engine.cache_refreshes == 1
        stale = pilote_copy.classifier
        pilote_copy.refit_classifier()
        after = engine.predict(windows)
        assert engine.cache_refreshes == 2
        assert pilote_copy.classifier is not stale
        assert np.array_equal(after, before)

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


class TestClassifyStacked:
    def test_fused_lanes_and_a_lone_lane_answer_like_their_own_predict(
        self, pilote_copy, pretrained_pilote, incremented_pilote, run_scenario
    ):
        """Small lanes share one distance call; a lane past
        ``STACKED_DISTANCES`` gets a call of its own."""
        windows = run_scenario.test.features
        learners = [incremented_pilote, pretrained_pilote, pilote_copy]
        for learner in learners:
            learner.inference_engine().warm()
        lone = pilote_copy.classifier
        lone_rows = STACKED_DISTANCES // len(lone.classes_) + 1
        rng = np.random.default_rng(3)
        lane_windows = [
            windows[:10], windows[10:17], windows[rng.integers(0, len(windows), lone_rows)]
        ]
        embeddings = np.concatenate(
            [learner.embed(rows) for learner, rows in zip(learners, lane_windows)]
        )
        members = [
            (learner.classifier, len(rows)) for learner, rows in zip(learners, lane_windows)
        ]
        answers = classify_stacked(members, embeddings)
        for learner, rows, answer in zip(learners, lane_windows, answers):
            assert np.array_equal(answer, learner.predict(rows))


class TestEdgeWiring:
    def test_fleet_device_serves_through_its_learners_engine(self, pilote_copy, run_scenario):
        device = FleetDevice(0, EdgeDevice())
        with pytest.raises(NotFittedError, match="deploy a package"):
            device.serve(run_scenario.test.features[:8])
        device.adopt(pilote_copy)
        assert device.engine is pilote_copy.inference_engine()
        predictions = device.serve(run_scenario.test.features[:8])
        assert predictions.shape == (8,)
        with device.edge.precision():
            assert np.array_equal(predictions, pilote_copy.predict(run_scenario.test.features[:8]))

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
        platform.cloud_learner = pretrained_pilote
        platform.deploy_to_edge()
        client = platform.serving_client()
        predictions = client.predict(run_scenario.test.features[:12])
        assert predictions.shape == (12,)
        assert client.scheduler.devices[0] is platform.device
        assert platform.device.engine is platform.device.learner.inference_engine()
        assert np.array_equal(
            predictions, platform.device.serve(run_scenario.test.features[:12])
        )
