"""Tests for the unified serving API: protocol, client, scheduler, rollout."""

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
from repro.fleet import FleetCoordinator, InferenceRequest, TrafficGenerator, WorkloadSpec
from repro.serving import (
    ABRollout,
    AllAtOnceRollout,
    EventLoopScheduler,
    HashRouting,
    PendingResult,
    PredictRequest,
    PredictResponse,
    StagedRollout,
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

    def test_engine_and_edge_device_clients(self, pretrained_pilote, pool):
        engine = pretrained_pilote.inference_engine()
        assert np.array_equal(
            serve(engine).predict(pool[:8]), engine.predict(pool[:8])
        )
        device = EdgeDevice()
        device.attach_inference(engine)
        client = serve(device)
        before = device.inference_requests
        assert client.predict(pool[:8]).shape == (8,)
        assert device.inference_requests == before + 1

    def test_platform_client(self, pretrained_pilote, tiny_config, pool):
        platform = MagnetoPlatform(tiny_config, seed=0)
        with pytest.raises(NotFittedError):
            platform.serving_client().predict(pool[:4])
        platform.cloud.learner = pretrained_pilote
        platform.cloud.history = object()
        platform.deploy_to_edge()
        client = platform.serving_client()
        assert client is platform.serving_client()  # cached
        predictions = client.predict(pool[:12])
        assert np.array_equal(predictions, pretrained_pilote.predict(pool[:12]))

    def test_empty_batch_on_device_and_platform(self, pretrained_pilote, tiny_config):
        """A device serves an empty batch as no predictions; the client
        rejects an empty request with a typed error instead."""
        empty = np.empty((0, pretrained_pilote.model.input_dim))
        device = EdgeDevice()
        device.attach_inference(pretrained_pilote.inference_engine())
        assert device.serve(empty).shape == (0,)
        platform = MagnetoPlatform(tiny_config, seed=0)
        platform.cloud.learner = pretrained_pilote
        platform.cloud.history = object()
        platform.deploy_to_edge()
        assert platform.device.serve(empty).shape == (0,)
        with pytest.raises(InvalidRequestError):
            platform.serving_client().predict(empty)

    def test_fleet_client_matches_direct_device_serving(self, fleet, pool):
        """Each device's share of a tick, concatenated in submission order
        and served by one ``device.serve`` call, gives the client's bytes."""
        requests = [
            InferenceRequest(user_id=i, features=pool[2 * i:2 * i + 2])
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
            InferenceRequest(user_id=u, features=pool[:1]) for u in (7, 7, 7, 123)
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
                            n_ticks=2, zipf_exponent=1.6)

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
            InferenceRequest(user_id=u, features=pool[:1]) for u in range(30)
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
        fleet.provision(1)
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

    def test_errors_travel_through_futures(self, pool):
        device = EdgeDevice()  # no engine attached
        client = serve(device)
        with pytest.raises(NotFittedError, match="attach_inference"):
            client.predict(pool[:2])


class TestInFlightReplacement:
    def test_replace_device_no_drop_no_double(self, fleet, pool, tmp_path):
        """FleetCoordinator.replace_device with requests in flight: every
        request is answered exactly once, queued work lands on the
        replacement."""
        from repro.fleet import CheckpointStore

        client = serve(fleet, routing="hash", seed=1)
        requests = [
            InferenceRequest(user_id=u, features=pool[:1]) for u in range(30)
        ]
        futures = client.submit_many(requests)
        assert client.pending_requests == 30

        crashed = fleet.devices[0]
        store = CheckpointStore(tmp_path)
        replacement = store.restore(store.save(crashed))
        fleet.replace_device(crashed.device_id, replacement)
        assert fleet.devices[0] is replacement  # the scheduler's live list

        completions = []
        for future in futures:
            future.add_done_callback(lambda f: completions.append(f))
        client.drain()
        assert len(completions) == 30  # nothing dropped, nothing doubled
        assert all(f.done() and f.exception() is None for f in futures)
        assert crashed.edge.inference_requests == 0
        assert replacement.edge.inference_requests > 0  # queued work moved over
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


class TestRolloutPolicies:
    def test_staged_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            StagedRollout(fractions=())
        with pytest.raises(ConfigurationError):
            StagedRollout(fractions=(0.5, 0.25))
        with pytest.raises(ConfigurationError):
            StagedRollout(fractions=(0.0, 1.0))

    def test_all_at_once_matches_legacy_deploy(self, package, tiny_config, pool):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(2)
        coordinator.deploy(package, rollout=AllAtOnceRollout())
        assert all(d.is_deployed for d in coordinator.devices)
        assert coordinator.active_rollout.complete
        assert coordinator.cohort_of(0) == "fleet"

    def test_staged_rollout_advances(self, package, tiny_config):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(4)
        coordinator.deploy(package, rollout=StagedRollout(fractions=(0.25, 0.5, 1.0)))
        assert sum(d.is_deployed for d in coordinator.devices) == 1
        assert coordinator.cohort_of(0) == "stage-0"
        assert coordinator.advance_rollout() == [1]
        assert coordinator.advance_rollout() == [2, 3]
        assert coordinator.active_rollout.complete
        assert coordinator.advance_rollout() == []

    def test_advance_without_rollout_rejected(self, fleet):
        with pytest.raises(ConfigurationError, match="no rollout"):
            fleet.advance_rollout()
        with pytest.raises(ConfigurationError, match="no rollout"):
            fleet.rollout_report()

    def test_ab_rollout_confines_users_to_cohorts(self, package, tiny_config, pool, run_scenario):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(4)
        coordinator.deploy(package)                       # baseline everywhere
        coordinator.deploy(package, rollout=ABRollout(treatment_fraction=0.5))
        rollout = coordinator.active_rollout
        arms = set(rollout.plan.cohorts.values())
        assert arms == {"treatment", "control"}
        policy = rollout.policy
        cohorts = {u: policy.user_cohort(u) for u in range(200)}
        assert set(cohorts.values()) == {"treatment", "control"}
        assert all(policy.user_cohort(u) == cohorts[u] for u in range(200))

        client = serve(coordinator, seed=3)
        requests = [
            InferenceRequest(user_id=u, features=pool[:1]) for u in range(60)
        ]
        futures = client.submit_many(requests)
        client.drain()
        for request, future in zip(requests, futures):
            device_id = future.result().device_id
            assert rollout.plan.cohorts[device_id] == cohorts[request.user_id]

        report = coordinator.rollout_report(run_scenario.test, serving=client.report())
        assert set(report.per_cohort) == {"treatment", "control"}
        assert sum(r.requests for r in report.per_cohort.values()) == 60
        for row in report.per_cohort.values():
            assert row.accuracy is not None and 0.0 <= row.accuracy <= 1.0
            assert row.n_deployed == len(row.device_ids)
        text = report.to_text()
        assert "treatment" in text and "control" in text

    def test_ab_needs_two_devices_and_valid_fraction(self, package, tiny_config):
        with pytest.raises(ConfigurationError):
            ABRollout(treatment_fraction=1.0)
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(1)
        with pytest.raises(ConfigurationError):
            coordinator.deploy(package, rollout=ABRollout())

    def test_serving_mid_staged_rollout_uses_deployed_devices_only(
        self, package, tiny_config, pool
    ):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(4)
        coordinator.deploy(package, rollout=StagedRollout(fractions=(0.25, 1.0)))
        deployed = {d.device_id for d in coordinator.devices if d.is_deployed}
        client = serve(coordinator, seed=2)
        futures = client.submit_many(
            [InferenceRequest(user_id=u, features=pool[:1]) for u in range(20)]
        )
        client.drain()
        assert {f.result().device_id for f in futures} <= deployed
        coordinator.advance_rollout()
        futures = client.submit_many(
            [InferenceRequest(user_id=u, features=pool[:1]) for u in range(20)]
        )
        client.drain()
        assert all(f.exception() is None for f in futures)

    def test_hash_placement_sticky_across_rollout_growth(
        self, package, tiny_config, pool
    ):
        """Users whose full-fleet hash lane is deployed keep it mid-rollout."""
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(4)
        coordinator.deploy(package, rollout=StagedRollout(fractions=(0.5, 1.0)))
        client = serve(coordinator, routing="hash", seed=6)
        requests = [
            InferenceRequest(user_id=u, features=pool[:1]) for u in range(40)
        ]
        preferred = client.scheduler.policy.assign_batch(
            requests, np.arange(40), client.scheduler
        )
        staged = [f.result().device_id for f in client.submit_many(requests)]
        deployed = {d.device_id for d in coordinator.devices if d.is_deployed}
        for user, full_fleet_lane in enumerate(preferred):
            if int(full_fleet_lane) in deployed:
                assert staged[user] == int(full_fleet_lane)
        coordinator.advance_rollout()
        complete = [f.result().device_id for f in client.submit_many(requests)]
        assert complete == [int(lane) for lane in preferred]

    def test_unservable_cohort_rejected_before_enqueue(self, package, tiny_config, pool):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(2)
        # AB rollout on an undeployed fleet: the control arm has no learner.
        coordinator.deploy(package, rollout=ABRollout(treatment_fraction=0.5))
        client = serve(coordinator, seed=0)
        requests = [
            InferenceRequest(user_id=u, features=pool[:1]) for u in range(40)
        ]
        with pytest.raises(RoutingError, match="no deployed devices"):
            client.submit_many(requests)
        assert client.pending_requests == 0  # nothing half-submitted

    def test_rollout_by_registry_name(self, package, tiny_config):
        coordinator = FleetCoordinator(tiny_config, seed=0)
        coordinator.provision(2)
        coordinator.deploy(package, rollout="all-at-once")
        assert coordinator.active_rollout.policy.name == "all-at-once"
        with pytest.raises(ConfigurationError):
            coordinator.deploy(package, rollout="percentage")


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
            [InferenceRequest(user_id=u, features=pool[:1]) for u in range(12)]
        )
        client.drain()
        report = client.report()
        assert report.p99_latency_seconds > 0
        assert report.latency_percentile(50.0) <= report.latency_percentile(99.0)
        assert report.mean_latency_seconds > 0
