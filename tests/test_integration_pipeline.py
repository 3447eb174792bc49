"""End-to-end integration tests: raw sensors → features → cloud → edge → predictions.

These tests run the whole MAGNETO-style pipeline at small scale and assert the
paper's qualitative claims: the new activity is learned, old activities are not
catastrophically forgotten, PILOTE is competitive with (usually better than)
plain re-training, and the edge footprint stays small.
"""

import copy
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.data.sensors import default_sensor_suite
from repro.data.streams import build_incremental_scenario
from repro.data.synthetic import SyntheticSensorGenerator, make_feature_dataset
from repro.data.dataset import HARDataset
from repro.edge.magneto import MagnetoPlatform
from repro.features.extractor import StatisticalFeatureExtractor
from repro.metrics.confusion import ConfusionMatrix
from repro.timeseries.normalize import z_score
from repro.utils.serialization import load_npz_state, save_npz_state


@pytest.fixture(scope="module")
def pipeline_dataset():
    """Dataset built from raw windows through the full preprocessing pipeline."""
    suite = default_sensor_suite()
    generator = SyntheticSensorGenerator(suite=suite, seed=21)
    windows, labels = generator.generate_dataset(70)
    extractor = StatisticalFeatureExtractor(
        suite.triaxial_groups, sampling_rate_hz=suite.sampling_rate_hz
    )
    features = z_score(extractor.transform(windows))
    names = {int(a): a.display_name for a in Activity}
    return HARDataset(features=features, labels=labels, label_names=names)


@pytest.fixture(scope="module")
def pipeline_scenario(pipeline_dataset):
    return build_incremental_scenario(pipeline_dataset, [Activity.RUN], rng=3)


@pytest.fixture(scope="module")
def config():
    return PiloteConfig(
        hidden_dims=(48, 24),
        embedding_dim=12,
        batch_size=24,
        max_epochs_pretrain=10,
        max_epochs_increment=8,
        cache_size=120,
        seed=3,
    )


class TestFullPipeline:
    def test_raw_windows_to_80_features(self, pipeline_dataset):
        assert pipeline_dataset.n_features == 80
        assert pipeline_dataset.n_samples == 70 * 5

    def test_magneto_end_to_end(self, pipeline_scenario, config):
        platform = MagnetoPlatform(config, seed=3)
        platform.cloud_pretrain(
            pipeline_scenario.old_train,
            pipeline_scenario.old_validation,
            exemplars_per_class=20,
        )
        package = platform.deploy_to_edge()
        assert package.total_bytes < platform.device.profile.storage_bytes
        platform.device.learn_new_activity(
            pipeline_scenario.new_train, pipeline_scenario.new_validation
        )
        predictions = platform.serving_client().predict(pipeline_scenario.test.features)
        accuracy = float(np.mean(predictions == pipeline_scenario.test.labels))
        assert accuracy > 0.6

    def test_incremental_comparison_reproduces_paper_ordering(self, pipeline_scenario, config):
        """PILOTE should forget less than re-training without distillation."""
        base = PILOTE(config, seed=3)
        base.pretrain(
            pipeline_scenario.old_train,
            pipeline_scenario.old_validation,
            exemplars_per_class=20,
        )
        test = pipeline_scenario.test
        before_predictions = None

        pilote = copy.deepcopy(base)
        retrained = copy.deepcopy(base)
        retrained.config = retrained.config.with_overrides(alpha=0.0)

        pilote.learn_new_classes(
            pipeline_scenario.new_train, pipeline_scenario.new_validation
        )
        retrained.learn_new_classes(
            pipeline_scenario.new_train, pipeline_scenario.new_validation
        )

        # Forgetting report: old-class accuracy before vs after for PILOTE.
        old_test = test.select_classes(pipeline_scenario.old_classes)
        before = base.evaluate(old_test)
        after_pilote = float(
            np.mean(
                pilote.predict(old_test.features) == old_test.labels
            )
        )
        after_retrained = float(
            np.mean(
                retrained.predict(old_test.features) == old_test.labels
            )
        )
        assert after_pilote >= after_retrained - 0.05
        assert after_pilote >= before - 0.30  # bounded forgetting

        # PILOTE must actually learn the new class (Run overlaps with Walk by
        # construction, so the bar is above chance rather than near-perfect),
        # while keeping the overall five-class accuracy high.
        new_test = test.select_classes(pipeline_scenario.new_classes)
        assert pilote.evaluate(new_test) > 0.3
        assert pilote.evaluate(test) > 0.6

    def test_confusion_structure_run_vs_walk(self, pipeline_scenario, config):
        """After learning Run, most residual confusion should involve Walk (the hard pair)."""
        learner = PILOTE(config, seed=4)
        learner.pretrain(
            pipeline_scenario.old_train,
            pipeline_scenario.old_validation,
            exemplars_per_class=20,
        )
        learner.learn_new_classes(
            pipeline_scenario.new_train, pipeline_scenario.new_validation
        )
        test = pipeline_scenario.test
        matrix = ConfusionMatrix.from_predictions(
            test.labels, learner.predict(test.features), classes=sorted(test.classes.tolist())
        )
        run, walk, still = int(Activity.RUN), int(Activity.WALK), int(Activity.STILL)
        assert matrix.count(run, walk) + matrix.count(walk, run) >= matrix.count(
            run, still
        ) + matrix.count(still, run)

    def test_model_round_trip_through_serialization(self, pipeline_scenario, config, tmp_path):
        learner = PILOTE(config, seed=5)
        learner.pretrain(
            pipeline_scenario.old_train,
            pipeline_scenario.old_validation,
            exemplars_per_class=10,
        )
        predictions_before = learner.predict(pipeline_scenario.test.features)
        path = save_npz_state(tmp_path / "model", learner.model.state_dict())
        state = load_npz_state(path)
        fresh = PILOTE(config, seed=99)
        fresh.pretrain(
            pipeline_scenario.old_train,
            pipeline_scenario.old_validation,
            exemplars_per_class=10,
        )
        fresh.model.load_state_dict(state)
        fresh.build_support_set(per_class=10)
        predictions_after = fresh.predict(pipeline_scenario.test.features)
        agreement = float(np.mean(predictions_before == predictions_after))
        assert agreement > 0.95

    def test_feature_dataset_helper_matches_manual_pipeline(self):
        dataset = make_feature_dataset(samples_per_class=15, seed=0)
        assert dataset.n_features == 80
        assert set(dataset.classes.tolist()) == {int(a) for a in Activity}


_SCIPY_BLOCKED = textwrap.dedent(
    """
    import sys

    sys.modules["scipy"] = None  # any scipy import now raises ImportError

    from repro import PILOTE, PiloteConfig, build_incremental_scenario, make_feature_dataset

    dataset = make_feature_dataset(samples_per_class=40, seed=0)
    scenario = build_incremental_scenario(dataset, [2], rng=0)
    config = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, batch_size=16,
                          max_epochs_pretrain=4, max_epochs_increment=3,
                          cache_size=60, max_pairs_per_batch=64, seed=0)
    learner = PILOTE(config)
    learner.pretrain(scenario.old_train, scenario.old_validation, exemplars_per_class=10)
    learner.learn_new_classes(scenario.new_train, scenario.new_validation)
    assert learner.predict(scenario.test.features).shape == (scenario.test.n_samples,)
    """
)


def test_repro_trains_and_predicts_with_scipy_blocked():
    """numpy is the only runtime dependency: pretrain, increment and predict without scipy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    completed = subprocess.run(
        [sys.executable, "-c", _SCIPY_BLOCKED], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
