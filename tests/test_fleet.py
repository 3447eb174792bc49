"""Tests for the fleet subsystem: traffic, routing, coordination, checkpoints."""

import numpy as np
import pytest

from repro.core.config import PiloteConfig
from repro.data.activities import Activity
from repro.edge.device import DEVICE_PROFILES
from repro.edge.transfer import package_for_edge
from repro.exceptions import (
    ConfigurationError,
    DataError,
    SerializationError,
)
from repro.experiments.common import ExperimentSettings
from repro.fleet import (
    CheckpointStore,
    FleetCoordinator,
    TrafficGenerator,
    WorkloadSpec,
    staggered_schedule,
)
from repro.fleet import simulation as fleet_simulation
from repro.fleet.simulation import FLEET_SCENARIO, FleetScenarioSpec
from repro.serving import HashRouting, PredictRequest, serve
from repro.utils.rng import resolve_rng


@pytest.fixture(scope="module")
def package(pretrained_pilote):
    """The cloud broadcast shared by the fleet tests (read-only)."""
    return package_for_edge(pretrained_pilote)


@pytest.fixture()
def fleet(package, tiny_config):
    """A three-device fleet freshly deployed from the shared package."""
    coordinator = FleetCoordinator(tiny_config, seed=0)
    coordinator.provision(3)
    coordinator.deploy(package)
    return coordinator


@pytest.fixture(scope="module")
def pool(pretrained_pilote, run_scenario):
    """Feature rows used as request payloads."""
    return run_scenario.test.features


class TestTrafficGenerator:
    def test_same_seed_same_stream(self, pool):
        spec = WorkloadSpec(pattern="zipf", n_users=50, requests_per_tick=16, n_ticks=3)
        first = TrafficGenerator(pool, spec, seed=9).requests()
        second = TrafficGenerator(pool, spec, seed=9).requests()
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.user_id == b.user_id
            assert np.array_equal(a.features, b.features)

    def test_bursty_pattern_spikes(self, pool):
        spec = WorkloadSpec(
            pattern="bursty", requests_per_tick=10, n_ticks=8,
        )
        counts = [len(batch) for batch in TrafficGenerator(pool, spec, seed=1).ticks()]
        assert counts == [10, 10, 10, 40, 10, 10, 10, 40]

    def test_zipf_skews_toward_head_users(self, pool):
        spec = WorkloadSpec(
            pattern="zipf", n_users=100, requests_per_tick=500, n_ticks=2,
        )
        requests = TrafficGenerator(pool, spec, seed=3).requests()
        users = np.array([r.user_id for r in requests])
        head_share = float(np.mean(users == 0))
        assert head_share > 3.0 / spec.n_users  # far above the uniform share

    def test_arrival_seconds_follow_ticks(self, pool):
        spec = WorkloadSpec(requests_per_tick=4, n_ticks=3, tick_seconds=0.5)
        ticks = list(TrafficGenerator(pool, spec, seed=0).ticks())
        assert all(r.arrival_seconds == pytest.approx(1.0) for r in ticks[2])

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(pattern="nope")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_users=0)

    def test_negative_user_rejected(self, pool):
        with pytest.raises(DataError):
            PredictRequest(user_id=-1, features=pool[:1])

    def test_generated_requests_are_frozen_predict_requests(self):
        rows = np.random.default_rng(0).normal(size=(20, 8))
        spec = WorkloadSpec(requests_per_tick=4, n_ticks=1, windows_per_request=2)
        requests = TrafficGenerator(rows, spec, seed=0).requests()
        assert all(isinstance(r, PredictRequest) for r in requests)
        # Served batches coalesce payloads, so a generated one must reject
        # writes exactly like a hand-built request's.
        with pytest.raises(ValueError):
            requests[0].features[0, 0] = 99.0
        assert rows.flags.writeable  # each payload is a copy of pool rows

    def test_empty_pool_rejected(self):
        with pytest.raises(DataError):
            TrafficGenerator(np.empty((0, 8)), WorkloadSpec(), seed=0)

    def test_staggered_schedule(self):
        schedule = staggered_schedule(3, start_tick=2, spacing_ticks=3)
        assert schedule == {0: 2, 1: 5, 2: 8}
        with pytest.raises(ConfigurationError):
            staggered_schedule(0)


def hash_lanes(users, seed, n_lanes=3):
    """Lane of each user under ``serve(fleet, routing="hash", seed=seed)``."""
    policy = HashRouting()
    policy.bind(n_lanes, resolve_rng(seed))
    users = np.asarray(users, dtype=np.int64)
    return policy.assign_batch([None] * users.size, users, scheduler=None)


class TestHashSharding:
    def test_same_seed_same_assignment(self):
        users = np.arange(500)
        assert np.array_equal(hash_lanes(users, 11), hash_lanes(users, 11))

    def test_different_seed_rebalances(self):
        users = np.arange(500)
        assert not np.array_equal(hash_lanes(users, 11), hash_lanes(users, 12))

    def test_assignment_is_stable_per_user_and_in_range(self):
        assignment = hash_lanes([7, 7, 7, 123, 123], 5)
        assert len(set(assignment[:3].tolist())) == 1
        assert len(set(assignment[3:].tolist())) == 1
        assert assignment.min() >= 0 and assignment.max() < 3

    def test_roughly_balanced_over_many_users(self):
        counts = np.bincount(hash_lanes(np.arange(3000), 2), minlength=3)
        assert counts.min() > 700  # each lane gets a fair share of 1000±

    def test_client_places_users_on_their_hash_lane(self, fleet, pool):
        users = [7, 7, 123, 40, 5]
        client = serve(fleet, routing="hash", seed=5)
        futures = client.submit_many(
            [PredictRequest(user_id=u, features=pool[:1]) for u in users]
        )
        placed = [fleet.devices.index(fleet.device(f.result().device_id)) for f in futures]
        assert placed == hash_lanes(users, 5).tolist()


class TestFleetServing:
    def test_stats_accumulate(self, fleet, pool):
        spec = WorkloadSpec(n_users=40, requests_per_tick=12, n_ticks=4)
        traffic = TrafficGenerator(pool, spec, seed=1)
        client = serve(fleet, routing="hash", seed=1)
        for requests in traffic.ticks():
            client.submit_many(requests)
            client.drain()
        report = client.report()
        assert report.total_requests == 48
        assert report.total_windows == 48
        assert sum(s.requests for s in report.per_device.values()) == 48
        assert report.makespan_seconds > 0
        assert report.aggregate_throughput > 0
        served = [s for s in report.per_device.values() if s.requests]
        assert all(s.busy_seconds > 0 and s.max_queue_depth >= 1 for s in served)
        assert all(s.mean_latency_seconds >= 0 for s in served)

    def test_single_device_fleet_matches_direct_device_serving(
        self, package, tiny_config, pool
    ):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(1)
        coordinator.deploy(package)
        requests = [
            PredictRequest(user_id=i, features=pool[4 * i:4 * i + 4])
            for i in range(8)
        ]
        client = serve(coordinator, seed=3)
        futures = client.submit_many(requests)
        client.drain()
        served = np.concatenate([f.result().class_ids for f in futures])
        direct = coordinator.devices[0].serve(
            np.concatenate([r.features for r in requests], axis=0)
        )
        assert served.tobytes() == direct.tobytes()

    def test_empty_submit_is_noop(self, fleet):
        client = serve(fleet, routing="hash", seed=1)
        assert client.submit_many([]) == []
        assert client.drain() == 0
        assert client.report().total_requests == 0


class TestFleetCoordinator:
    def test_provision_cycles_profiles(self, tiny_config):
        profiles = [DEVICE_PROFILES["smartphone"], DEVICE_PROFILES["raspberry-pi"]]
        coordinator = FleetCoordinator(tiny_config, profiles=profiles, seed=0)
        devices = coordinator.provision(3)
        assert [d.profile.name for d in devices] == [
            "smartphone", "raspberry-pi", "smartphone",
        ]
        assert [d.device_id for d in devices] == [0, 1, 2]

    def test_package_carries_exemplar_policy(self, pretrained_pilote, package, fleet):
        assert package.exemplar_strategy == pretrained_pilote.exemplars.strategy
        assert package.exemplar_capacity == pretrained_pilote.exemplars.capacity
        device_store = fleet.devices[0].learner.exemplars
        assert device_store.strategy == pretrained_pilote.exemplars.strategy
        assert device_store.capacity == pretrained_pilote.exemplars.capacity

    def test_deploy_gives_independent_learners(self, fleet):
        first, second = fleet.devices[0].learner, fleet.devices[1].learner
        assert first is not second
        first.prototypes.set(99, np.zeros(first.config.embedding_dim))
        assert 99 not in second.prototypes.classes
        # Weights are copies, not views of the package arrays.
        name, parameter = next(iter(first.model.named_parameters()))
        parameter.data[...] = 0.0
        _, other = next(iter(second.model.named_parameters()))
        assert not np.allclose(other.data, 0.0)

    def test_devices_serve_after_deploy(self, fleet, pool):
        predictions = fleet.devices[2].infer(pool[:16])
        assert predictions.shape == (16,)
        assert fleet.devices[2].edge.storage_used > 0

    def test_deploy_requires_provision(self, package, tiny_config):
        with pytest.raises(ConfigurationError):
            FleetCoordinator(tiny_config).deploy(package)

    def test_unknown_device_rejected(self, fleet, run_scenario):
        with pytest.raises(ConfigurationError):
            fleet.schedule_increment(42, 1, run_scenario.new_train)
        with pytest.raises(ConfigurationError):
            fleet.device(42)

    def test_increments_wait_for_their_tick(self, fleet, run_scenario):
        fleet.schedule_increment(0, 5, run_scenario.new_train)
        assert fleet.run_due_increments(4) == {}
        assert [entry[:2] for entry in fleet._pending_increments] == [(5, 0)]

    def test_staggered_increment_diverges_fleet(self, package, tiny_config, run_scenario):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(2)
        coordinator.deploy(package)
        coordinator.schedule_increment(0, 1, run_scenario.new_train)
        histories = coordinator.run_due_increments(1)
        assert set(histories) == {0}
        assert int(Activity.RUN) in coordinator.device(0).learner.classes_
        assert int(Activity.RUN) not in coordinator.device(1).learner.classes_
        report = coordinator.accuracy_report(run_scenario.test)
        assert set(report.per_device) == {0, 1}
        assert report.per_device[0] > report.per_device[1]
        assert report.spread > 0
        summary = report.summary()
        assert summary["spread"] == pytest.approx(report.spread)


class TestCheckpointStore:
    def test_roundtrip_reproduces_predictions_exactly(self, fleet, pool, tmp_path):
        device = fleet.device(1)
        store = CheckpointStore(tmp_path)
        checkpoint = store.save(device)
        restored = store.restore(checkpoint)
        assert restored.device_id == device.device_id
        assert restored.profile == device.profile
        assert restored.edge.storage_used > 0
        assert np.array_equal(device.infer(pool[:200]), restored.infer(pool[:200]))

    def test_restore_warms_the_serving_cache(self, fleet, pool, tmp_path):
        """A restored device's engine is hot before its first request."""
        device = fleet.device(1)
        store = CheckpointStore(tmp_path)
        restored = store.restore(store.save(device))
        engine = restored.edge.engine
        info = engine.cache_info()
        # The warm-up rebuild already ran (and is accounted for) at restore
        # time, so the first request pays no cache refresh.
        assert info["cache_refreshes"] == 1
        assert info["cached_classes"] > 0
        before = engine.cache_info()["cache_refreshes"]
        outputs = restored.infer(pool[:64])
        assert engine.cache_info()["cache_refreshes"] == before
        # Warming must not perturb the bit-exact round-trip.
        assert np.array_equal(device.infer(pool[:64]), outputs)

    def test_every_save_keeps_its_own_archive(self, fleet, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoints = [store.save(fleet.device(i)) for i in (0, 1, 0)]
        assert [c.checkpoint_id for c in checkpoints] == [0, 1, 2]
        assert len({c.path for c in checkpoints}) == 3
        assert all(c.path.exists() for c in checkpoints)

    def test_checkpoint_records_device_and_size(self, fleet, tmp_path):
        device = fleet.device(2)
        checkpoint = CheckpointStore(tmp_path).save(device)
        assert checkpoint.device_id == device.device_id
        assert checkpoint.profile == device.profile
        assert checkpoint.nbytes == checkpoint.path.stat().st_size > 0

    def test_undeployed_device_rejected(self, tiny_config, tmp_path):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        device = coordinator.provision(1)[0]
        with pytest.raises(SerializationError):
            CheckpointStore(tmp_path).save(device)

    def test_restored_device_swaps_into_fleet(self, fleet, pool, tmp_path):
        store = CheckpointStore(tmp_path)
        checkpoint = store.save(fleet.device(2))
        replacement = store.restore(checkpoint)
        fleet.replace_device(2, replacement)
        assert fleet.device(2) is replacement
        assert fleet.device(2).infer(pool[:4]).shape == (4,)

    def test_restore_of_a_deleted_archive_is_typed_error(self, fleet, tmp_path):
        store = CheckpointStore(tmp_path)
        deleted = store.save(fleet.device(0))
        deleted.path.unlink()
        with pytest.raises(SerializationError, match="gone from disk"):
            store.restore(deleted)

    def test_live_client_follows_device_replacement(self, fleet, pool, tmp_path):
        client = serve(fleet, routing="hash", seed=1)
        crashed = fleet.devices[int(hash_lanes([7], 1)[0])]
        store = CheckpointStore(tmp_path)
        replacement = store.restore(store.save(crashed))
        fleet.replace_device(crashed.device_id, replacement)
        before = replacement.edge.inference_requests
        client.submit(PredictRequest(user_id=7, features=pool[:2]))
        client.drain()
        assert replacement.edge.inference_requests == before + 1
        assert crashed.edge.inference_requests == 0


class TestFleetSimulation:
    def test_fleet_scenario_shape(self):
        assert FLEET_SCENARIO.n_devices == 8
        assert FLEET_SCENARIO.traffic_pattern == "zipf"
        assert Activity.RUN in FLEET_SCENARIO.new_classes

    def test_tiny_end_to_end_run(self):
        settings = ExperimentSettings(
            samples_per_class=40,
            n_rounds=1,
            config=PiloteConfig(
                hidden_dims=(32, 16), embedding_dim=8, batch_size=16,
                max_epochs_pretrain=3, max_epochs_increment=2, cache_size=60,
                max_pairs_per_batch=64, seed=0,
            ),
            exemplars_per_class=8,
            seed=0,
        )
        scenario = FleetScenarioSpec(
            n_devices=2,
            new_classes=(Activity.RUN,),
            traffic_pattern="uniform",
            n_users=20,
            requests_per_tick=8,
            n_ticks=4,
        )
        with pytest.raises(ConfigurationError):
            fleet_simulation.run(settings, scenario=scenario, n_devices=0)
        result = fleet_simulation.run(settings, scenario=scenario)
        assert result.n_devices == 2
        assert result.routing.total_requests == 32
        assert set(result.accuracy.per_device) == {0, 1}
        assert result.checkpoint_roundtrip_exact
        assert result.increment_ticks == {0: 1, 1: 2}
        assert all(n >= 2 for n in result.increment_samples.values())
        text = result.to_text()
        assert "Fleet simulation" in text
        assert "divergence" in text
        assert "round-trip reproduces predictions: True" in text

    def test_adaptive_run_reports_the_control_plane(self):
        settings = ExperimentSettings(
            samples_per_class=40,
            n_rounds=1,
            config=PiloteConfig(
                hidden_dims=(32, 16), embedding_dim=8, batch_size=16,
                max_epochs_pretrain=2, max_epochs_increment=1, cache_size=60,
                max_pairs_per_batch=64, seed=0,
            ),
            exemplars_per_class=8,
            seed=0,
        )
        scenario = FleetScenarioSpec(
            n_devices=4,
            new_classes=(Activity.RUN,),
            traffic_pattern="zipf",
            n_users=40,
            requests_per_tick=48,
            n_ticks=4,
        )
        options = dict(
            scenario=scenario, routing="least-loaded", scheduling="edf",
            deadline_ms=1.0,
        )
        static = fleet_simulation.run(settings, **options)
        assert static.control_stats is None
        assert "control plane:" not in static.to_text()
        adaptive = fleet_simulation.run(settings, adaptive=True, **options)
        stats = adaptive.control_stats
        assert set(stats) == {"window", "ticks", "hedging"}
        assert stats["ticks"] == scenario.n_ticks
        hedging = stats["hedging"]
        assert hedging["fired"] > 0  # queues this deep put requests at risk
        # Every pair settled once, and every winner's twin was resolved.
        wins = hedging["primary_wins"] + hedging["hedge_wins"]
        assert hedging["fired"] == wins + hedging["pairs_failed"]
        assert wins == (
            hedging["losers_cancelled"] + hedging["losers_served"]
            + hedging["losers_failed"]
        )
        assert adaptive.routing.total_cancelled == hedging["losers_cancelled"]
        assert (
            f"control plane: hedges {hedging['fired']} "
            f"(cancelled {adaptive.routing.total_cancelled})"
        ) in adaptive.to_text()

    def test_deadline_run_is_seed_determined(self, simulated_fields):
        settings = ExperimentSettings(
            samples_per_class=40,
            n_rounds=1,
            config=PiloteConfig(
                hidden_dims=(32, 16), embedding_dim=8, batch_size=16,
                max_epochs_pretrain=2, max_epochs_increment=1, cache_size=60,
                max_pairs_per_batch=64, seed=0,
            ),
            exemplars_per_class=8,
            seed=0,
        )
        scenario = FleetScenarioSpec(
            n_devices=4,
            new_classes=(Activity.RUN,),
            traffic_pattern="zipf",
            n_users=40,
            requests_per_tick=24,
            n_ticks=4,
        )

        def routed():
            result = fleet_simulation.run(
                settings, scenario=scenario, routing="least-loaded",
                scheduling="edf", deadline_ms=0.3,
            )
            return result.routing.to_dict()

        first = routed()
        breakdown = first["deadline_breakdown"]
        assert breakdown["served"] > 0
        assert breakdown["missed"] + breakdown["expired"] > 0  # deadlines bite
        assert simulated_fields(routed()) == simulated_fields(first)
