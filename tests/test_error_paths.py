"""Guard clauses and edge cases of public APIs that no other test reaches.

Each test drives one input a caller can really pass — an empty selection, a
non-positive budget, an untrained learner, a malformed frame — and checks
that the library answers with its typed error (or its documented degenerate
value) instead of a numpy traceback or a silently wrong result.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend import resolve_dtype
from repro.control import ChaosSpec, run_suite
from repro.control.hedging import HedgeStats
from repro.core.ncm import NCMClassifier
from repro.core.pairs import PairBatch
from repro.core.pilote import PILOTE
from repro.core.prototypes import PrototypeStore
from repro.data.activities import Activity
from repro.data.dataset import HARDataset, train_val_test_split
from repro.data.synthetic import SyntheticSensorGenerator, make_feature_dataset
from repro.edge.device import DEVICE_PROFILES, EdgeDevice
from repro.edge.inference import InferenceEngine
from repro.edge.transfer import package_for_edge
from repro.exceptions import (
    ConfigurationError,
    DataError,
    NotFittedError,
    SerializationError,
    ShapeError,
    WireProtocolError,
)
from repro.experiments.common import ExperimentSettings
from repro.features.extractor import StatisticalFeatureExtractor
from repro.features.statistical import triaxial_magnitude_statistics
from repro.fleet import FleetCoordinator, WorkloadSpec
from repro.fleet.coordinator import FleetDevice
from repro.fleet.traffic import staggered_schedule
from repro.metrics.confusion import ConfusionMatrix
from repro.metrics.embedding_quality import intra_inter_distance_ratio, silhouette_score
from repro.nn.layers import BatchNorm1d, Linear, ReLU, Sequential
from repro.nn.losses import DistillationLoss
from repro.server import wire
from repro.viz.ascii import ascii_line_plot, ascii_scatter


# ---------------------------------------------------------------------- #
class TestBackend:
    def test_unknown_dtype_name_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown dtype or profile"):
            resolve_dtype("not-a-dtype")


# ---------------------------------------------------------------------- #
class TestCore:
    def test_support_set_needs_a_dataset(self, pretrained_pilote, tiny_config):
        restored = package_for_edge(pretrained_pilote).instantiate_learner(tiny_config)
        with pytest.raises(DataError, match="no dataset available"):
            restored.build_support_set()

    def test_refine_prototype_before_pretrain(self, tiny_config):
        with pytest.raises(NotFittedError, match="pretrain"):
            PILOTE(tiny_config).refine_prototype(0, np.zeros((1, 80)))

    def test_refine_prototype_rejects_empty_features(self, pilote_copy):
        class_id = pilote_copy.classes_[0]
        with pytest.raises(DataError, match="non-empty"):
            pilote_copy.refine_prototype(class_id, np.zeros((0, 80)))

    def test_prototypes_are_class_means_of_embedded_exemplars(self, pretrained_pilote):
        learner = pretrained_pilote
        for class_id in learner.exemplars.classes:
            embeddings = learner.model.embed(learner.exemplars.get(class_id))
            assert np.array_equal(
                learner.prototypes.get(class_id), embeddings.mean(axis=0)
            )

    def test_ncm_prototype_matrix_before_fit(self):
        with pytest.raises(NotFittedError):
            NCMClassifier().prototype_matrix()

    def test_pair_batch_arrays_must_align(self):
        with pytest.raises(DataError, match="same shape"):
            PairBatch(left=[0, 1], right=[1, 2], same_class=[1.0])

    def test_empty_prototype_store_has_no_footprint(self):
        store = PrototypeStore()
        assert store.nbytes() == 0
        store.set(3, [1.0, 2.0, 3.0])
        assert store.embedding_dim == 3
        assert store.nbytes() == 3 * 4


# ---------------------------------------------------------------------- #
class TestData:
    def test_select_no_classes(self, har_dataset):
        with pytest.raises(DataError, match="at least one class"):
            har_dataset.select_classes([])

    def test_subsample_non_positive(self, har_dataset):
        with pytest.raises(DataError, match="n_samples must be positive"):
            har_dataset.subsample(0)

    def test_split_too_small_to_partition(self):
        single = HARDataset(features=np.zeros((1, 3)), labels=np.array([0]))
        with pytest.raises(DataError, match="empty train or test"):
            train_val_test_split(single, rng=0)

    def test_dataset_of_zero_samples_everywhere(self):
        generator = SyntheticSensorGenerator(seed=0)
        with pytest.raises(DataError, match="no samples requested"):
            generator.generate_dataset({activity: 0 for activity in Activity})

    def test_per_activity_sample_counts(self):
        counts = {Activity.WALK: 3, Activity.STILL: 5}
        dataset = make_feature_dataset(counts, seed=0)
        classes, per_class = np.unique(dataset.labels, return_counts=True)
        assert dict(zip(classes.tolist(), per_class.tolist())) == {
            int(Activity.STILL): 5, int(Activity.WALK): 3,
        }


# ---------------------------------------------------------------------- #
class TestEdge:
    def test_engine_over_an_untrained_learner(self, tiny_config):
        engine = InferenceEngine(PILOTE(tiny_config))
        with pytest.raises(NotFittedError, match="not been trained"):
            engine.predict(np.zeros((1, 80)))

    def test_package_without_support_set(self, pretrained_pilote, tiny_config):
        package = dataclasses.replace(
            package_for_edge(pretrained_pilote), exemplar_features={}
        )
        with pytest.raises(SerializationError, match="no support set"):
            package.instantiate_learner(tiny_config)


# ---------------------------------------------------------------------- #
class TestExperimentsAndFeatures:
    def test_settings_need_a_positive_exemplar_budget(self):
        with pytest.raises(ConfigurationError, match="exemplars_per_class"):
            ExperimentSettings(exemplars_per_class=0)

    def test_extractor_rejects_4d_windows(self):
        extractor = StatisticalFeatureExtractor([(0, 1, 2)])
        with pytest.raises(DataError, match=r"\(n, time, channels\)"):
            extractor.transform(np.zeros((2, 3, 4, 5)))

    def test_magnitude_statistics_without_triaxial_groups(self):
        features = triaxial_magnitude_statistics(np.ones((4, 10, 3)), [])
        assert features.shape == (4, 0)


# ---------------------------------------------------------------------- #
class TestFleet:
    def test_region_count_must_be_positive(self, tiny_config):
        with pytest.raises(ConfigurationError, match="n_regions"):
            FleetCoordinator(tiny_config, n_regions=0)

    def test_provision_count_must_be_positive(self, tiny_config):
        with pytest.raises(ConfigurationError, match="n_devices"):
            FleetCoordinator(tiny_config).provision(0)

    def test_accuracy_of_an_empty_fleet(self, tiny_config, har_dataset):
        with pytest.raises(ConfigurationError, match="no devices"):
            FleetCoordinator(tiny_config).accuracy_report(har_dataset)

    def test_accuracy_before_deploy(self, tiny_config, har_dataset):
        fleet = FleetCoordinator(tiny_config, seed=0)
        fleet.provision(2)
        with pytest.raises(ConfigurationError, match="deploy"):
            fleet.accuracy_report(har_dataset)

    def test_undeployed_device_cannot_learn_or_evaluate(self, run_scenario):
        device = FleetDevice(0, EdgeDevice(DEVICE_PROFILES["smartphone"]))
        with pytest.raises(NotFittedError, match="deploy a package"):
            device.learn_new_activity(run_scenario.new_train)
        with pytest.raises(NotFittedError, match="no learner"):
            device.accuracy(run_scenario.test)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"tick_seconds": -1.0}, "tick_seconds"),
            ({"n_ticks": 0}, "n_ticks"),
            ({"windows_per_request": 0}, "windows_per_request"),
        ],
        ids=["negative-tick", "zero-ticks", "zero-windows-per-request"],
    )
    def test_workload_spec_validation(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            WorkloadSpec(**overrides)

    def test_staggered_schedule_rejects_negative_ticks(self):
        with pytest.raises(ConfigurationError, match="non-negative"):
            staggered_schedule(3, start_tick=-1)


# ---------------------------------------------------------------------- #
class TestMetrics:
    def test_silhouette_needs_2d_embeddings(self):
        with pytest.raises(DataError, match="2-D"):
            silhouette_score(np.zeros((2, 3, 4)), np.array([0, 1]))

    def test_singleton_class_scores_zero(self):
        embeddings = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1])
        # The lone class-1 point scores 0; each class-0 point scores
        # (b - a) / b with a = 0.1 (its neighbour) and b = its distance to it.
        far = np.linalg.norm(embeddings[:2] - embeddings[2], axis=1)
        expected = ((far - 0.1) / far).sum() / 3
        assert silhouette_score(embeddings, labels) == pytest.approx(expected)

    def test_coincident_centroids_give_infinite_ratio(self):
        embeddings = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        labels = np.array([0, 0, 1, 1])
        assert intra_inter_distance_ratio(embeddings, labels) == float("inf")

    def test_misclassification_rate_of_an_absent_class(self):
        matrix = ConfusionMatrix.from_predictions([0, 0], [0, 1], classes=[0, 1, 2])
        assert matrix.misclassification_rate(2, 0) == 0.0
        assert matrix.misclassification_rate(0, 1) == 0.5


# ---------------------------------------------------------------------- #
class TestNN:
    def test_batch_norm_needs_features(self):
        with pytest.raises(ShapeError, match="num_features"):
            BatchNorm1d(0)

    def test_distillation_reduction_must_be_known(self):
        with pytest.raises(ValueError, match="reduction"):
            DistillationLoss(reduction="max")

    def test_update_of_an_unregistered_buffer(self):
        with pytest.raises(KeyError, match="not registered"):
            BatchNorm1d(2).update_buffer("running_median", np.zeros(2))

    def test_state_dict_with_an_unexpected_buffer(self):
        network = Sequential(Linear(3, 2, rng=0), BatchNorm1d(2))
        state = network.state_dict()
        state["buffer.ghost"] = np.zeros(2)
        with pytest.raises(SerializationError, match="unexpected buffer"):
            network.load_state_dict(state)

    def test_sequential_repr_names_its_layers(self):
        text = repr(Sequential(Linear(3, 2, rng=0), ReLU(), BatchNorm1d(2)))
        assert text == (
            "Sequential(Linear(3, 2), ReLU(), BatchNorm1d(2))"
        )


# ---------------------------------------------------------------------- #
class TestControl:
    def test_hedge_stats_exports_every_counter(self):
        stats = HedgeStats(fired=5, primary_wins=3, hedge_wins=1, pairs_failed=1,
                           losers_cancelled=2, losers_served=1, losers_failed=1)
        assert stats.to_dict() == {
            "fired": 5, "primary_wins": 3, "hedge_wins": 1, "pairs_failed": 1,
            "losers_cancelled": 2, "losers_served": 1, "losers_failed": 1,
        }

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_ticks": 0}, "must be positive"),
            ({"storm_devices": (4,)}, "storm_devices"),
        ],
        ids=["no-ticks", "device-out-of-range"],
    )
    def test_chaos_spec_validation(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            ChaosSpec(name="invalid", scenario="stragglers", **overrides)

    def test_unknown_chaos_scenario_in_suite(self):
        with pytest.raises(ConfigurationError, match="no-such-scenario"):
            run_suite(["no-such-scenario"])


# ---------------------------------------------------------------------- #
class TestWire:
    def test_oversized_header_cannot_be_encoded(self):
        with pytest.raises(WireProtocolError, match="header"):
            wire.encode_frame({"blob": "x" * (wire.MAX_HEADER_BYTES + 1)})

    def test_predict_header_without_user(self):
        header, payload = wire.predict_frame(1, 2, np.zeros((1, 4), dtype=np.float32))
        del header["user_id"]
        with pytest.raises(WireProtocolError, match="malformed predict header"):
            wire.decode_predict(header, payload)

    def test_response_header_without_window_count(self):
        header, payload = wire.response_frame(
            1, 2, np.array([0, 1]), device_id=0, latency_ms=1.0, e2e_ms=1.0,
            deadline_missed=False,
        )
        del header["n_windows"]
        with pytest.raises(WireProtocolError, match="malformed response header"):
            wire.decode_response(header, payload)

    def test_response_payload_must_match_window_count(self):
        header, payload = wire.response_frame(
            1, 2, np.array([0, 1]), device_id=0, latency_ms=1.0, e2e_ms=1.0,
            deadline_missed=False,
        )
        with pytest.raises(WireProtocolError, match="announces"):
            wire.decode_response(header, payload[:-1])


# ---------------------------------------------------------------------- #
class TestViz:
    def test_line_plot_with_a_single_x_value(self):
        text = ascii_line_plot([3.0], {"accuracy": [0.9]})
        assert "accuracy" in text

    def test_scatter_needs_points(self):
        with pytest.raises(DataError, match="at least one class"):
            ascii_scatter({})
