"""Tests for the unified serving API: protocol, client, scheduler, routing."""

import numpy as np
import pytest

from repro.cli import build_parser
from repro.edge.device import EdgeDevice
from repro.edge.magneto import MagnetoPlatform
from repro.edge.transfer import package_for_edge
from repro.exceptions import (
    ConfigurationError,
    DataError,
    DeadlineExceededError,
    InvalidRequestError,
    NotFittedError,
    RoutingError,
    ServingError,
)
from repro.fleet import FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.serving import (
    EventLoopScheduler,
    HashRouting,
    PendingResult,
    PredictRequest,
    PredictResponse,
    make_routing_policy,
    serve,
)


@pytest.fixture(scope="module")
def package(pretrained_pilote):
    """The cloud broadcast shared by the serving tests (read-only)."""
    return package_for_edge(pretrained_pilote)


@pytest.fixture()
def fleet(package, tiny_config):
    """A three-device fleet freshly deployed from the shared package."""
    coordinator = FleetCoordinator(tiny_config, seed=0)
    coordinator.provision(3)
    coordinator.deploy(package)
    return coordinator


@pytest.fixture(scope="module")
def pool(run_scenario):
    """Feature rows used as request payloads."""
    return run_scenario.test.features


class TestProtocol:
    def test_request_validation(self, pool):
        with pytest.raises(InvalidRequestError):
            PredictRequest(user_id=-1, features=pool[:1])
        with pytest.raises(InvalidRequestError):
            PredictRequest(user_id=0, features=np.empty((0, 8)))
        with pytest.raises(InvalidRequestError):
            PredictRequest(user_id=0, features=pool[:1],
                           arrival_seconds=1.0, deadline_seconds=0.5)

    def test_invalid_request_error_is_typed(self):
        assert issubclass(InvalidRequestError, ServingError)
        assert issubclass(InvalidRequestError, DataError)

    def test_single_window_promoted_to_batch(self, pool):
        request = PredictRequest(user_id=0, features=pool[0])
        assert request.features.ndim == 2
        assert request.n_windows == 1

    def test_response_carries_request_facts(self, pool):
        request = PredictRequest(
            user_id=4, features=pool[:3], arrival_seconds=1.0,
            metadata={"k": "v"}, request_id=99,
        )
        response = PredictResponse(request, np.array([1, 2, 2]), 7, 1.5)
        assert response.user_id == 4
        assert response.request_id == 99
        assert response.metadata == {"k": "v"}
        assert response.latency_seconds == pytest.approx(0.5)
        assert not response.deadline_missed
        assert [p.class_id for p in response.predictions] == [1, 2, 2]
        assert [p.window for p in response.predictions] == [0, 1, 2]

    def test_pending_result_lifecycle(self, pretrained_pilote, pool):
        client = serve(pretrained_pilote)
        future = client.submit(PredictRequest(user_id=0, features=pool[:2]))
        assert isinstance(future, PendingResult)
        assert not future.done()
        seen = []
        future.add_done_callback(lambda f: seen.append(("queued", f)))
        client.drain()
        assert future.done() and seen == [("queued", future)]
        future.add_done_callback(lambda f: seen.append(("late", f)))
        assert seen[-1] == ("late", future)  # fired immediately once done
        assert future.exception() is None
        assert future.result().n_windows == 2

    def test_batch_double_completion_guarded(self):
        from repro.serving.scheduler import _Batch

        batch = _Batch(0.0, scheduler=None)
        batch.finish(np.array([1]), 0, 0.25)
        with pytest.raises(ServingError, match="twice"):
            batch.finish(np.array([1]), 0, 0.25)


class TestServeFacade:
    def test_learner_client_matches_direct_predict(self, pretrained_pilote, pool):
        client = serve(pretrained_pilote)
        predictions = client.predict(pool[:16])
        assert np.array_equal(predictions, pretrained_pilote.predict(pool[:16]))
        assert client.label == "learner" and client.n_devices == 1

    def test_platform_client(self, pretrained_pilote, tiny_config, pool):
        """The platform's lane is its edge device, whose learner is built
        from the package: not the cloud learner."""
        platform = MagnetoPlatform(tiny_config, seed=0)
        with pytest.raises(NotFittedError):
            platform.serving_client().predict(pool[:4])
        platform.cloud_learner = pretrained_pilote
        platform.deploy_to_edge()
        client = platform.serving_client()
        assert client is platform.serving_client()  # cached
        assert client.label == "platform"
        assert client.scheduler.devices == [platform.device]
        assert platform.device.learner is not pretrained_pilote
        assert platform.device.engine is platform.device.learner.inference_engine()
        predictions = client.predict(pool[:12])
        assert np.array_equal(predictions, platform.device.serve(pool[:12]))

    def test_platform_client_cached_before_deploy_follows_the_device(
        self, pretrained_pilote, tiny_config
    ):
        """The lane reads the deployed learner's engine when used, so a client
        cached before deployment is charged the deployed network's FLOPs."""
        from repro.serving.scheduler import BATCH_SECONDS, SECONDS_PER_FLOP, service_seconds

        platform = MagnetoPlatform(tiny_config, seed=0)
        client = platform.serving_client()  # cached before deploy_to_edge
        lane = client.scheduler.devices[0]
        undeployed = service_seconds(lane, 8)
        platform.cloud_learner = pretrained_pilote
        platform.deploy_to_edge()
        assert platform.serving_client() is client
        assert lane is platform.device
        assert lane.engine is platform.device.learner.inference_engine()
        flops = pretrained_pilote.model.flops_per_row
        assert service_seconds(lane, 8) == (
            (BATCH_SECONDS + 8 * flops * SECONDS_PER_FLOP) / lane.profile.relative_compute
        )
        assert service_seconds(lane, 8) != undeployed

    def test_empty_batch_on_device_and_platform(self, pretrained_pilote, tiny_config):
        """An engine and a platform serve an empty batch as no predictions;
        the client rejects an empty request with a typed error instead."""
        empty = np.empty((0, pretrained_pilote.model.input_dim))
        assert pretrained_pilote.inference_engine().predict(empty).shape == (0,)
        platform = MagnetoPlatform(tiny_config, seed=0)
        platform.cloud_learner = pretrained_pilote
        platform.deploy_to_edge()
        assert platform.device.serve(empty).shape == (0,)
        with pytest.raises(InvalidRequestError):
            platform.serving_client().predict(empty)

    def test_fleet_client_matches_direct_device_serving(self, fleet, pool):
        """Each device's share of a tick, concatenated in submission order
        and served by one ``device.serve`` call, gives the client's bytes."""
        requests = [
            PredictRequest(user_id=i, features=pool[2 * i:2 * i + 2])
            for i in range(12)
        ]
        client = serve(fleet, routing="hash", seed=9)
        futures = client.submit_many(requests)
        client.drain()
        responses = [future.result() for future in futures]
        by_device = {}
        for request, response in zip(requests, responses):
            by_device.setdefault(response.device_id, []).append((request, response))
        for device_id, pairs in by_device.items():
            expected = fleet.device(device_id).serve(
                np.concatenate([request.features for request, _ in pairs])
            )
            served = np.concatenate([response.class_ids for _, response in pairs])
            assert served.tobytes() == expected.tobytes()
        per_device = client.report().per_device
        assert {i: s.requests for i, s in per_device.items() if s.requests} == {
            device_id: len(pairs) for device_id, pairs in by_device.items()
        }

    def test_unknown_target_rejected(self):
        with pytest.raises(ServingError, match="don't know how to serve"):
            serve(object())

    @pytest.mark.parametrize("part", ["engine", "edge-device", "fleet-device"])
    def test_serving_parts_are_not_targets(self, part, pretrained_pilote, fleet):
        """Only a learner, a platform or a fleet is served; the engines and
        devices inside them are reached through their owner."""
        if part == "engine":
            target = pretrained_pilote.inference_engine()
        elif part == "edge-device":
            target = EdgeDevice()
        else:
            target = fleet.device(0)
        with pytest.raises(ServingError, match="expected a PILOTE"):
            serve(target)

    def test_empty_fleet_rejected(self, tiny_config):
        with pytest.raises(ServingError, match="provision"):
            serve(FleetCoordinator(tiny_config))

    def test_result_autodrains_scheduler(self, fleet, pool):
        client = serve(fleet, seed=1)
        future = client.submit(PredictRequest(user_id=3, features=pool[:2]))
        assert not future.done()
        assert future.result().n_windows == 2  # result() drains transparently


class TestRoutingPolicies:
    def test_unknown_policy_is_typed_error(self):
        with pytest.raises(RoutingError):
            make_routing_policy("round-robin")
        assert issubclass(RoutingError, ValueError)

    def test_hash_policy_sticky_and_seeded(self, fleet, pool):
        first = serve(fleet, routing="hash", seed=4)
        second = serve(fleet, routing="hash", seed=4)
        requests = [
            PredictRequest(user_id=u, features=pool[:1]) for u in (7, 7, 7, 123)
        ]
        devices_first = [
            f.result().device_id for f in first.submit_many(requests)
        ]
        devices_second = [
            f.result().device_id for f in second.submit_many(requests)
        ]
        assert devices_first == devices_second  # same seed, same placement
        assert len(set(devices_first[:3])) == 1  # sticky per user

    def test_least_loaded_balances_skewed_users(self, fleet, pool):
        spec = WorkloadSpec(pattern="zipf", n_users=40, requests_per_tick=60,
                            n_ticks=2)

        def max_share(routing):
            client = serve(fleet, routing=routing, seed=2)
            for requests in TrafficGenerator(pool, spec, seed=6).ticks():
                client.submit_many(requests)
                client.drain()
            report = client.report()
            return max(s.requests for s in report.per_device.values())

        assert max_share("least-loaded") < max_share("hash")

    def test_p2c_deterministic_and_in_range(self, fleet, pool):
        requests = [
            PredictRequest(user_id=u, features=pool[:1]) for u in range(30)
        ]

        def placements():
            client = serve(fleet, routing="p2c", seed=5)
            futures = client.submit_many(requests)
            client.drain()
            return [f.result().device_id for f in futures]

        first, second = placements(), placements()
        assert first == second
        assert set(first) <= {0, 1, 2}

    def test_scheduler_rejects_resized_fleet(self, fleet, pool):
        client = serve(fleet, seed=1)
        with pytest.raises(ConfigurationError):
            fleet.provision(1)  # serving froze the fleet's lane set
        lanes = client.scheduler.devices
        lanes.append(lanes[0])  # a lane list grown behind the scheduler's back
        with pytest.raises(RoutingError):
            client.submit(PredictRequest(user_id=0, features=pool[:1]))


class TestDeadlines:
    def test_queued_past_deadline_expires_typed(self, pretrained_pilote, pool):
        client = serve(pretrained_pilote)
        first = client.submit(PredictRequest(user_id=0, features=pool[:64]))
        late = client.submit(PredictRequest(
            user_id=1, features=pool[:1],
            arrival_seconds=1e-7, deadline_seconds=2e-7,
        ))
        client.drain()
        assert first.result().n_windows == 64
        assert isinstance(late.exception(), DeadlineExceededError)
        with pytest.raises(DeadlineExceededError):
            late.result()

    def test_missed_deadline_still_answered_with_flag(self, pretrained_pilote, pool):
        client = serve(pretrained_pilote)
        pending = client.submit(PredictRequest(
            user_id=0, features=pool[:32], deadline_seconds=1e-9,
        ))
        client.drain()
        response = pending.result()  # service started in time, finished late
        assert response.deadline_missed

    def test_expired_requests_excluded_from_served_totals(
        self, pretrained_pilote, pool
    ):
        client = serve(pretrained_pilote)
        served = client.submit(PredictRequest(user_id=0, features=pool[:64]))
        expired = client.submit(PredictRequest(
            user_id=1, features=pool[:1],
            arrival_seconds=1e-7, deadline_seconds=2e-7,
        ))
        client.drain()
        assert served.done() and isinstance(expired.exception(), DeadlineExceededError)
        report = client.report()
        assert report.total_requests == 1
        assert report.total_expired == 1
        assert sum(s.requests for s in report.per_device.values()) == 1

    def test_out_of_order_submission_served_in_arrival_order(
        self, pretrained_pilote, pool
    ):
        client = serve(pretrained_pilote)
        late = client.submit(PredictRequest(
            user_id=0, features=pool[:1], arrival_seconds=1.0,
        ))
        # Submitted second but arrives first — must not be head-of-line
        # blocked behind (and billed for) the arrival-1.0 request.
        early = client.submit(PredictRequest(
            user_id=1, features=pool[:1],
            arrival_seconds=0.0, deadline_seconds=0.9,
        ))
        client.drain()
        assert early.exception() is None  # not spuriously expired
        assert early.result().completed_seconds < 1.0
        assert late.result().completed_seconds >= 1.0

    def test_requests_compare_by_identity(self, pool):
        first = PredictRequest(user_id=1, features=pool[:2])
        twin = PredictRequest(user_id=1, features=pool[:2])
        assert first == first and first != twin  # ndarray-safe identity eq
        assert first in [twin, first]

    def test_errors_travel_through_futures(self, tiny_config, pool):
        platform = MagnetoPlatform(tiny_config)  # nothing deployed yet
        client = serve(platform)
        with pytest.raises(NotFittedError, match="deploy a package first"):
            client.predict(pool[:2])


class TestInFlightReplacement:
    def test_replace_device_no_drop_no_double(self, fleet, pool, tmp_path, monkeypatch):
        """FleetCoordinator.replace_device with requests in flight: every
        request is answered exactly once, queued work lands on the
        replacement."""
        from repro.fleet import CheckpointStore

        client = serve(fleet, routing="hash", seed=1)
        requests = [
            PredictRequest(user_id=u, features=pool[:1]) for u in range(30)
        ]
        futures = client.submit_many(requests)
        assert client.pending_requests == 30

        crashed = fleet.devices[0]
        store = CheckpointStore(tmp_path)
        replacement = store.restore(store.save(crashed))
        fleet.replace_device(crashed.device_id, replacement)
        assert fleet.devices[0] is replacement  # the scheduler's live list
        answered_by = []
        for device in (crashed, replacement):
            infer = device.infer
            monkeypatch.setattr(device, "infer", lambda windows, device=device, infer=infer: (
                answered_by.extend([device] * len(windows)) or infer(windows)
            ))

        completions = []
        for future in futures:
            future.add_done_callback(lambda f: completions.append(f))
        client.drain()
        assert len(completions) == 30  # nothing dropped, nothing doubled
        assert all(f.done() and f.exception() is None for f in futures)
        # The lane's queued work moved over: the replacement answered every
        # request of the crashed device's lane, the crashed device none.
        moved = [f for f in futures if f.result().device_id == crashed.device_id]
        assert moved and answered_by == [replacement] * len(moved)
        report = client.report()
        assert sum(s.requests for s in report.per_device.values()) == 30

    def test_replace_unknown_device_rejected(self, fleet):
        with pytest.raises(ConfigurationError):
            fleet.replace_device(99, fleet.devices[0])
        with pytest.raises(RoutingError):
            serve(fleet).replace_device(99, fleet.devices[0])


class TestReportModule:
    @pytest.mark.parametrize(
        "first", ["repro.serving.report", "repro.fleet", "repro.serving", "repro"]
    )
    def test_report_types_resolve_from_serving_in_fresh_interpreter(self, first):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        code = (
            f"import importlib, pkgutil; importlib.import_module({first!r})\n"
            "import repro.fleet, repro.serving as serving\n"
            "fleet_modules = {m.name for m in pkgutil.iter_modules(repro.fleet.__path__)}\n"
            "assert 'router' not in fleet_modules, fleet_modules\n"
            "assert serving.DeviceStats.__module__ == 'repro.serving.report'\n"
            "assert serving.RoutingReport.__module__ == 'repro.serving.report'\n"
            "assert serving.ROLLING_WINDOW == 256\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr


class TestWorkloadSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"requests_per_tick": 0},
            {"requests_per_tick": -3},
            {"n_ticks": 0},
            {"n_users": -1},
            {"windows_per_request": 0},
        ],
    )
    def test_non_positive_values_raise_valueerror(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadSpec(**kwargs)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)

    def test_error_message_names_the_field(self):
        with pytest.raises(ValueError, match="requests_per_tick"):
            WorkloadSpec(requests_per_tick=0)


def _partially_deployed(package, tiny_config, n_regions):
    """provision -> deploy -> provision: the second half holds no learner yet."""
    coordinator = FleetCoordinator(tiny_config, seed=0, n_regions=n_regions)
    coordinator.provision(4)
    coordinator.deploy(package)
    coordinator.provision(4)
    return coordinator


def _deployed_positions(client) -> set:
    return {
        position
        for position, lane in enumerate(client.scheduler.devices)
        if lane.is_deployed
    }


@pytest.mark.parametrize("n_regions", [None, 2], ids=["unpooled", "pooled"])
class TestPartialDeployment:
    @pytest.mark.parametrize("routing", ["hash", "least-loaded", "p2c"])
    def test_routes_only_to_deployed_lanes(
        self, package, tiny_config, pool, n_regions, routing
    ):
        coordinator = _partially_deployed(package, tiny_config, n_regions)
        client = serve(coordinator, routing=routing, seed=2)
        lanes = client.scheduler.devices
        deployed = _deployed_positions(client)
        assert 0 < len(deployed) < len(lanes)
        deployed_ids = {lanes[position].device_id for position in deployed}
        requests = [PredictRequest(user_id=u, features=pool[:1]) for u in range(40)]
        futures = client.submit_many(requests)
        client.drain()
        assert {f.result().device_id for f in futures} <= deployed_ids
        coordinator.deploy(package)
        futures = client.submit_many(requests)
        client.drain()
        assert all(f.exception() is None for f in futures)
        # The second deploy opens the rest of the fleet to routing.
        assert {f.result().device_id for f in futures} - deployed_ids

    def test_hash_placement_survives_the_second_deploy(
        self, package, tiny_config, pool, n_regions
    ):
        """Users whose full-fleet hash lane is deployed keep it; the rest
        move to it once the second deploy reaches their lane."""
        coordinator = _partially_deployed(package, tiny_config, n_regions)
        client = serve(coordinator, routing="hash", seed=6)
        lanes = client.scheduler.devices
        deployed = _deployed_positions(client)
        requests = [PredictRequest(user_id=u, features=pool[:1]) for u in range(40)]
        preferred = [
            lanes[int(position)].device_id
            for position in client.scheduler.policy.assign_batch(
                requests, np.arange(40), client.scheduler
            )
        ]
        deployed_ids = {lanes[position].device_id for position in deployed}
        assert deployed_ids < set(preferred)  # some users prefer an undeployed lane
        partial = [f.result().device_id for f in client.submit_many(requests)]
        assert set(partial) <= deployed_ids
        for user, device_id in enumerate(preferred):
            if device_id in deployed_ids:
                assert partial[user] == device_id
        coordinator.deploy(package)
        complete = [f.result().device_id for f in client.submit_many(requests)]
        assert complete == preferred

    def test_fleet_without_deployed_devices_queues_nothing(
        self, package, tiny_config, pool, n_regions
    ):
        coordinator = FleetCoordinator(tiny_config, seed=0, n_regions=n_regions)
        coordinator.provision(4)
        client = serve(coordinator, seed=0)
        requests = [PredictRequest(user_id=u, features=pool[:1]) for u in range(40)]
        with pytest.raises(RoutingError, match="no deployed devices"):
            client.submit_many(requests)
        assert client.pending_requests == 0  # nothing half-submitted
        coordinator.deploy(package)
        futures = client.submit_many(requests)
        client.drain()
        assert all(f.exception() is None for f in futures)


class TestCli:
    def test_serve_subcommand_and_routing_flag(self):
        arguments = build_parser().parse_args(
            ["serve", "--devices", "4", "--routing", "least-loaded"]
        )
        assert arguments.experiment == "serve"
        assert arguments.devices == 4
        assert arguments.routing == "least-loaded"
        assert build_parser().parse_args(["fleet-sim", "--routing", "p2c"]).routing == "p2c"

    def test_unknown_routing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet-sim", "--routing", "round-robin"])


class TestSchedulerDirect:
    def test_needs_devices(self):
        with pytest.raises(RoutingError):
            EventLoopScheduler([])

    def test_empty_submit_and_idle_drain(self, fleet):
        scheduler = EventLoopScheduler(fleet.devices, HashRouting(), seed=0)
        assert scheduler.submit_many([]) == []
        assert scheduler.drain() == 0
        assert scheduler.report().total_requests == 0

    def test_report_latencies_feed_percentiles(self, fleet, pool):
        client = serve(fleet, seed=2)
        client.submit_many(
            [PredictRequest(user_id=u, features=pool[:1]) for u in range(12)]
        )
        client.drain()
        report = client.report()
        assert report.p99_latency_seconds > 0
        assert report.latency_percentile(50.0) <= report.latency_percentile(99.0)
        assert report.mean_latency_seconds > 0
