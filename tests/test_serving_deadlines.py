"""Deadline-aware serving: EDF scheduling, SLO reporting, correctness sweep.

Covers the deadline seam end to end (scheduler queue orders, admission
control, traffic-generator deadline distributions, CLI flags) plus the
serving-path regression fixes: failed-batch accounting, re-entrant
``drain()``, request validation, per-segment load refresh and the
out-of-order ``_queue_batch`` walk-back.
"""

from collections import deque

import numpy as np
import pytest

from repro.cli import build_parser
from repro.edge.device import DeviceProfile
from repro.exceptions import (
    ConfigurationError,
    DataError,
    DeadlineExceededError,
    InvalidRequestError,
)
from repro.fleet import FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.serving import (
    EventLoopScheduler,
    LocalServingDevice,
    PredictRequest,
    SCHEDULING_ORDERS,
    serve,
)
from repro.serving.routing import LeastLoadedRouting, PowerOfTwoRouting
from repro.serving.scheduler import service_seconds


def _answer(windows):
    return np.zeros(windows.shape[0], dtype=np.int64)


def _scheduler(scheduling="fifo", infer=_answer, n_devices=1, seconds=0.002):
    """Lanes whose 1-row batch takes ``seconds`` on the simulated clock."""
    reference = service_seconds(LocalServingDevice(_answer), 1)
    profile = DeviceProfile(
        "slow", storage_bytes=2**20, relative_compute=reference / seconds,
    )
    devices = [
        LocalServingDevice(infer, profile=profile, device_id=i)
        for i in range(n_devices)
    ]
    return EventLoopScheduler(devices, scheduling=scheduling, seed=0)


def _request(user_id, arrival=0.0, deadline=None, n_windows=1, n_features=3):
    return PredictRequest(
        user_id=user_id,
        features=np.full((n_windows, n_features), float(user_id)),
        arrival_seconds=arrival,
        deadline_seconds=deadline,
    )


class TestEdfScheduling:
    def test_unknown_scheduling_rejected(self):
        assert SCHEDULING_ORDERS == ("fifo", "edf")
        with pytest.raises(ConfigurationError, match="scheduling"):
            _scheduler(scheduling="lifo")

    def test_edf_serves_earliest_deadline_first(self):
        scheduler = _scheduler("edf")
        relaxed = scheduler.submit(_request(0, deadline=100.0))
        urgent = scheduler.submit(_request(1, deadline=1.0))
        deadline_less = scheduler.submit(_request(2))
        scheduler.drain()
        completions = [
            f.result().completed_seconds for f in (urgent, relaxed, deadline_less)
        ]
        assert completions == sorted(completions)
        assert completions[0] < completions[1] < completions[2]

    def test_fifo_coalesces_mixed_deadlines_by_arrival(self):
        scheduler = _scheduler("fifo")
        futures = [
            scheduler.submit(_request(0, deadline=100.0)),
            scheduler.submit(_request(1, deadline=1.0)),
            scheduler.submit(_request(2)),
        ]
        scheduler.drain()
        report = scheduler.report()
        assert sum(s.batches for s in report.per_device.values()) == 1
        completions = {f.result().completed_seconds for f in futures}
        assert len(completions) == 1  # one engine call, shared completion

    def test_edf_deadline_less_requests_fall_back_to_arrival_order(self):
        scheduler = _scheduler("edf")
        second = scheduler.submit(_request(0, arrival=0.5))
        first = scheduler.submit(_request(1, arrival=0.0))
        scheduler.drain()
        assert (
            first.result().completed_seconds < second.result().completed_seconds
        )

    def test_edf_matches_fifo_on_deadline_less_traffic(self, pretrained_pilote, run_scenario):
        pool = run_scenario.test.features
        outputs = {}
        for scheduling in SCHEDULING_ORDERS:
            client = serve(pretrained_pilote, scheduling=scheduling)
            assert client.scheduling == scheduling
            futures = [
                client.submit(_request(u, n_features=pool.shape[1]))
                for u in range(4)
            ]
            client.drain()
            outputs[scheduling] = np.concatenate(
                [f.result().class_ids for f in futures]
            )
        assert np.array_equal(outputs["fifo"], outputs["edf"])

    def test_edf_coalesces_shared_deadline_class(self):
        scheduler = _scheduler("edf")
        scheduler.submit_many(
            [_request(u, deadline=5.0) for u in range(6)]
            + [_request(9, deadline=50.0)]
        )
        scheduler.drain()
        report = scheduler.report()
        # One batch per (arrival, deadline) class, not one per request.
        assert sum(s.batches for s in report.per_device.values()) == 2
        assert report.total_requests == 7

    def test_client_reports_its_scheduling(self, pretrained_pilote):
        client = serve(pretrained_pilote, scheduling="edf")
        assert client.scheduling == "edf"

    def test_edf_under_backlog_reduces_expiries_vs_fifo(self):
        """The tentpole story in miniature: urgent requests survive EDF."""

        def run(scheduling):
            scheduler = _scheduler(scheduling, seconds=0.004)
            futures = []
            # Ticks arrive faster than service.
            for tick in range(6):
                arrival = tick * 1e-4
                futures.append(
                    scheduler.submit(_request(tick, arrival=arrival, deadline=arrival + 0.015))
                )
                futures.append(
                    scheduler.submit(_request(100 + tick, arrival=arrival, deadline=arrival + 100.0))
                )
            scheduler.drain()
            report = scheduler.report()
            in_deadline = report.total_deadline_requests - report.total_deadline_misses
            return in_deadline, report.total_expired

        fifo_in, fifo_expired = run("fifo")
        edf_in, edf_expired = run("edf")
        assert edf_in >= fifo_in
        assert edf_expired <= fifo_expired


class TestAdmissionControl:
    def test_unmeetable_deadline_rejected_at_submit(self):
        scheduler = _scheduler("fifo")
        scheduler.submit(_request(0, n_windows=8))
        scheduler.drain()  # advances the lane's simulated backlog
        late = scheduler.submit(_request(1, arrival=1e-9, deadline=2e-9))
        assert late.done()  # failed immediately, never queued
        assert scheduler.pending_requests == 0
        assert isinstance(late.exception(), DeadlineExceededError)
        with pytest.raises(DeadlineExceededError, match="admission"):
            late.result()

    def test_rejected_callback_fires_immediately(self):
        scheduler = _scheduler("fifo")
        scheduler.submit(_request(0))
        scheduler.drain()
        late = scheduler.submit(_request(1, arrival=1e-9, deadline=2e-9))
        seen = []
        late.add_done_callback(seen.append)
        assert seen == [late]

    def test_rejections_counted_as_expired_with_subset(self):
        scheduler = _scheduler("fifo")
        scheduler.submit(_request(0, n_windows=8))
        scheduler.drain()
        scheduler.submit(_request(1, arrival=1e-9, deadline=2e-9))
        report = scheduler.report()
        assert report.total_rejected == 1
        assert report.total_expired == 1  # rejections are a subset of expired
        assert report.total_requests == 1  # only the served request

    def test_meetable_deadline_not_rejected(self):
        scheduler = _scheduler("fifo")
        pending = scheduler.submit(_request(0, deadline=1e6))
        assert not pending.done()
        scheduler.drain()
        assert pending.exception() is None


class TestSloReporting:
    def test_per_device_deadline_misses_and_breakdown(self):
        scheduler = _scheduler("fifo")
        # Service starts at 0 (in time) but completes after this deadline.
        missed = scheduler.submit(_request(0, deadline=1e-9))
        scheduler.drain()
        assert missed.result().deadline_missed
        report = scheduler.report()
        stats = next(iter(report.per_device.values()))
        assert stats.deadline_requests == 1 and stats.deadline_misses == 1
        assert report.total_deadline_misses == 1
        breakdown = report.deadline_breakdown()
        assert breakdown == {"served": 0, "missed": 1, "expired": 0, "failed": 0}

    def test_deadline_attainment_counts_expiries(self):
        scheduler = _scheduler("fifo")
        served = scheduler.submit(_request(0, n_windows=16, deadline=1e6))
        expired = scheduler.submit(_request(1, arrival=1e-7, deadline=2e-7))
        scheduler.drain()
        assert served.exception() is None
        assert isinstance(expired.exception(), DeadlineExceededError)
        report = scheduler.report()
        assert report.deadline_attainment == pytest.approx(0.5)
        assert report.deadline_breakdown()["expired"] == 1

    def test_deadline_attainment_trivially_one_without_deadlines(self):
        scheduler = _scheduler("fifo")
        scheduler.submit(_request(0))
        scheduler.drain()
        assert scheduler.report().deadline_attainment == 1.0

    def test_slo_attainment_latency_target(self):
        scheduler = _scheduler("fifo")
        scheduler.submit_many([_request(u) for u in range(4)])
        scheduler.drain()
        report = scheduler.report()
        assert report.slo_attainment(1e6) == 1.0
        assert report.slo_attainment(0.0) == 0.0
        loose = report.slo_attainment(report.p99_latency_seconds)
        tight = report.slo_attainment(report.latency_percentile(50.0) / 2)
        assert 0.0 <= tight <= loose <= 1.0

    def test_slo_attainment_counts_expired_and_failed(self):
        scheduler = _scheduler("fifo")
        scheduler.submit(_request(0, n_windows=16))
        scheduler.submit(_request(1, arrival=1e-7, deadline=2e-7))
        scheduler.drain()
        # 1 served (within a huge target) + 1 expired -> 50% attainment.
        assert scheduler.report().slo_attainment(1e6) == pytest.approx(0.5)

    def test_empty_report_slo_is_one(self):
        scheduler = _scheduler("fifo")
        assert scheduler.report().slo_attainment(1.0) == 1.0


class TestFailedBatchAccounting:
    def test_failed_batch_keeps_report_invariant(self):
        def raising(windows):
            raise RuntimeError("device on fire")

        scheduler = _scheduler(infer=raising)
        futures = scheduler.submit_many([_request(u) for u in range(3)])
        scheduler.drain()
        for future in futures:
            assert isinstance(future.exception(), RuntimeError)
            with pytest.raises(RuntimeError, match="on fire"):
                future.result()
        report = scheduler.report()
        assert report.total_failed == 3
        assert report.total_requests == 0
        assert report.total_requests == sum(
            s.requests for s in report.per_device.values()
        )

    def test_mixed_failure_and_success_accounting(self):
        calls = {"n": 0}

        def flaky(windows):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first batch dies")
            return np.zeros(windows.shape[0], dtype=np.int64)

        scheduler = _scheduler(infer=flaky)
        failed = scheduler.submit_many([_request(u, arrival=0.0) for u in range(2)])
        served = scheduler.submit_many([_request(u, arrival=1.0) for u in range(3)])
        scheduler.drain()
        assert all(isinstance(f.exception(), RuntimeError) for f in failed)
        assert all(f.exception() is None for f in served)
        report = scheduler.report()
        assert report.total_failed == 2
        assert report.total_requests == 3
        assert report.total_requests == sum(
            s.requests for s in report.per_device.values()
        )


class TestReentrantDrain:
    def test_callback_chained_request_resolves_in_one_drain(self, pretrained_pilote, run_scenario):
        pool = run_scenario.test.features
        client = serve(pretrained_pilote)
        chained = []

        def chain(_future):
            chained.append(client.submit(
                PredictRequest(user_id=7, features=pool[:2])
            ))

        first = client.submit(PredictRequest(user_id=0, features=pool[:2]))
        first.add_done_callback(chain)
        client.drain()
        assert first.done()
        assert len(chained) == 1 and chained[0].done()
        assert client.pending_requests == 0
        assert chained[0].result().n_windows == 2

    def test_callback_chain_across_fleet_lanes(self, tiny_config, pretrained_pilote, run_scenario):
        from repro.edge.transfer import package_for_edge

        pool = run_scenario.test.features
        fleet = FleetCoordinator(tiny_config, seed=0)
        fleet.provision(3)
        fleet.deploy(package_for_edge(pretrained_pilote))
        client = serve(fleet, seed=1)
        followups = []

        def chain(_future):
            # Fan a follow-up onto every lane, including ones the event
            # loop already popped and dropped from its heap.
            followups.extend(
                client.submit_many([
                    PredictRequest(user_id=u, features=pool[:1])
                    for u in range(12)
                ])
            )

        first = client.submit(PredictRequest(user_id=0, features=pool[:1]))
        first.add_done_callback(chain)
        client.drain()
        assert len(followups) == 12
        assert all(f.done() for f in followups)
        assert client.pending_requests == 0

    def test_nested_drain_from_callback_is_safe(self, pretrained_pilote, run_scenario):
        pool = run_scenario.test.features
        client = serve(pretrained_pilote)
        first = client.submit(PredictRequest(
            user_id=0, features=pool[:1], arrival_seconds=0.0
        ))
        second = client.submit(PredictRequest(
            user_id=1, features=pool[:1], arrival_seconds=1.0
        ))
        resolved = []

        def nested(_future):
            # result() on a still-pending future re-enters drain().
            resolved.append(second.result())

        first.add_done_callback(nested)
        client.drain()
        assert first.done() and second.done()
        assert resolved[0].n_windows == 1
        assert client.pending_requests == 0


class TestRequestValidation:
    def test_zero_feature_batch_rejected_typed(self):
        with pytest.raises(InvalidRequestError, match="zero-feature"):
            PredictRequest(user_id=0, features=np.empty((3, 0)))

    def test_features_frozen_against_post_submit_mutation(self):
        windows = np.ones((2, 4))
        request = PredictRequest(user_id=0, features=windows)
        assert not request.features.flags.writeable
        with pytest.raises(ValueError):
            request.features[0, 0] = 99.0

    def test_promoted_window_also_frozen(self):
        request = PredictRequest(user_id=0, features=np.ones(4))
        assert request.features.shape == (1, 4)
        with pytest.raises(ValueError):
            request.features[:] = 0.0

    def test_request_deadline_validation(self):
        with pytest.raises(DataError, match="deadline"):
            PredictRequest(
                user_id=0, features=np.ones((1, 3)),
                arrival_seconds=2.0, deadline_seconds=1.0,
            )
        request = PredictRequest(
            user_id=0, features=np.ones((1, 3)),
            arrival_seconds=1.0, deadline_seconds=2.0,
        )
        assert request.deadline_seconds == 2.0


class _StubLoads:
    """Stand-in scheduler whose load estimate is a pure function of time."""

    def __init__(self, loads_by_now):
        self._loads_by_now = loads_by_now

    def lane_loads(self, now):
        return np.asarray(self._loads_by_now(now), dtype=np.float64).copy()


class _Arrival:
    def __init__(self, user_id, arrival):
        self.user_id = user_id
        self.arrival_seconds = arrival


class TestSegmentedLoadRefresh:
    def test_least_loaded_refreshes_estimate_per_arrival_segment(self):
        policy = LeastLoadedRouting()
        policy.bind(2, np.random.default_rng(0))
        stub = _StubLoads(lambda now: [100.0, 0.0] if now < 50.0 else [0.0, 0.0])
        requests = [_Arrival(u, 0.0) for u in range(4)] + [
            _Arrival(u, 100.0) for u in range(4, 8)
        ]
        user_ids = np.arange(8)
        assignment = policy.assign_batch(requests, user_ids, stub)
        # Early segment avoids the backlogged lane 0; by the late segment the
        # backlog has drained, and only this call's own four assignments on
        # lane 1 remain - so the late segment lands on lane 0.
        assert assignment.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]

    def test_least_loaded_stale_snapshot_would_dogpile(self):
        """Same stream, frozen clock: the old single-snapshot behaviour."""
        policy = LeastLoadedRouting()
        policy.bind(2, np.random.default_rng(0))
        stub = _StubLoads(lambda now: [100.0, 0.0])  # backlog never decays
        requests = [_Arrival(u, 0.0) for u in range(4)] + [
            _Arrival(u, 100.0) for u in range(4, 8)
        ]
        assignment = policy.assign_batch(requests, np.arange(8), stub)
        assert assignment.tolist() == [1] * 8

    def test_p2c_late_segment_sees_refreshed_loads(self):
        # Seed 4 gives every early user lane 1 (their less-loaded candidate
        # under the huge stale backlog); the numpy Generator stream is stable,
        # so the expectation is deterministic.
        policy = PowerOfTwoRouting()
        policy.bind(2, np.random.default_rng(4))
        stub = _StubLoads(lambda now: [1000.0, 0.0] if now < 50.0 else [0.0, 0.0])
        requests = [_Arrival(u, 0.0) for u in range(6)] + [
            _Arrival(u, 100.0) for u in range(6, 12)
        ]
        assignment = policy.assign_batch(requests, np.arange(12), stub)
        early, late = assignment[:6].tolist(), assignment[6:].tolist()
        # Early picks dodge the backlogged lane 0; once the backlog decays,
        # lane 0 must win picks again instead of staying dog-piled on lane 1.
        assert set(early) == {1}
        assert late.count(0) >= 2

    def test_least_loaded_respects_lane_subset_per_segment(self):
        policy = LeastLoadedRouting()
        policy.bind(3, np.random.default_rng(0))
        stub = _StubLoads(lambda now: [50.0, 0.0, 0.0] if now < 5.0 else [0.0, 0.0, 0.0])
        requests = [_Arrival(u, 0.0) for u in range(2)] + [_Arrival(u, 10.0) for u in range(2, 4)]
        assignment = policy.assign_batch(
            requests, np.arange(4), stub, lanes=np.array([0, 2])
        )
        assert set(assignment.tolist()) <= {0, 2}
        assert assignment[:2].tolist() == [2, 2]
        assert 0 in assignment[2:].tolist()


class TestQueueWalkBack:
    def test_walk_back_inserts_and_coalesces_mid_queue(self):
        from repro.serving.scheduler import _queue_batch

        queue = deque()
        first = _queue_batch(queue, 0.0, None)
        tail = _queue_batch(queue, 3.0, None)
        middle = _queue_batch(queue, 1.0, None)  # walks back past the tail
        assert [batch.arrival for batch in queue] == [0.0, 1.0, 3.0]
        assert _queue_batch(queue, 1.0, None) is middle  # coalesce mid-queue
        assert _queue_batch(queue, 3.0, None) is tail  # coalesce at tail
        head = _queue_batch(queue, -1.0, None)  # walks back to the head
        assert queue[0] is head
        assert _queue_batch(queue, 0.0, None) is first
        assert [batch.arrival for batch in queue] == [-1.0, 0.0, 1.0, 3.0]

    def test_out_of_order_submissions_not_blocked_or_misbatched(
        self, pretrained_pilote, run_scenario
    ):
        pool = run_scenario.test.features
        client = serve(pretrained_pilote)
        late = client.submit(PredictRequest(
            user_id=0, features=pool[:3], arrival_seconds=2.0
        ))
        early = client.submit(PredictRequest(
            user_id=1, features=pool[3:4], arrival_seconds=0.0, deadline_seconds=1.9
        ))
        middle = client.submit(PredictRequest(
            user_id=2, features=pool[4:6], arrival_seconds=1.0
        ))
        sibling = client.submit(PredictRequest(  # coalesces with `middle`
            user_id=3, features=pool[6:8], arrival_seconds=1.0
        ))
        client.drain()
        assert early.exception() is None  # not spuriously deadline-expired
        # Served in arrival order despite submission order.
        assert (
            early.result().completed_seconds
            <= middle.result().completed_seconds
            <= late.result().completed_seconds
        )
        # Coalesced siblings share one engine call and keep their own slices.
        assert middle.result().completed_seconds == sibling.result().completed_seconds
        assert middle.result().n_windows == 2 and sibling.result().n_windows == 2
        assert late.result().n_windows == 3 and early.result().n_windows == 1
        expected = pretrained_pilote.predict(pool[4:6])
        assert np.array_equal(middle.result().class_ids, expected)


class TestTrafficDeadlines:
    @pytest.fixture()
    def pool(self, run_scenario):
        return run_scenario.test.features

    def test_deadline_stream_is_seeded_and_absolute(self, pool):
        spec = WorkloadSpec(
            n_users=8, requests_per_tick=16, n_ticks=3, tick_seconds=0.5,
            deadline_seconds=0.2, deadline_multipliers=(1.0, 40.0),
        )
        first = TrafficGenerator(pool, spec, seed=11).requests()
        second = TrafficGenerator(pool, spec, seed=11).requests()
        assert [r.deadline_seconds for r in first] == [
            r.deadline_seconds for r in second
        ]
        for request in first:
            relative = request.deadline_seconds - request.arrival_seconds
            assert relative in (pytest.approx(0.2), pytest.approx(8.0))
        classes = {
            round(r.deadline_seconds - r.arrival_seconds, 6) for r in first
        }
        assert classes == {0.2, 8.0}

    def test_disabled_deadlines_leave_stream_unchanged(self, pool):
        base = WorkloadSpec(n_users=8, requests_per_tick=8, n_ticks=2)
        plain = TrafficGenerator(pool, base, seed=5).requests()
        assert all(r.deadline_seconds is None for r in plain)

    def test_every_request_carries_a_deadline(self, pool):
        spec = WorkloadSpec(
            n_users=8, requests_per_tick=64, n_ticks=2, deadline_seconds=1.0,
        )
        requests = TrafficGenerator(pool, spec, seed=3).requests()
        assert all(
            r.deadline_seconds == pytest.approx(r.arrival_seconds + 1.0)
            for r in requests
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0.0},
            {"deadline_seconds": -1.0},
            {"deadline_seconds": 1.0, "deadline_multipliers": ()},
            {"deadline_seconds": 1.0, "deadline_multipliers": (1.0, -2.0)},
            {"deadline_seconds": 1.0, "deadline_multipliers": (0.0,)},
        ],
    )
    def test_invalid_deadline_specs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(**kwargs)

    def test_deadline_traffic_through_edf_client(self, pretrained_pilote, pool):
        spec = WorkloadSpec(
            n_users=16, requests_per_tick=32, n_ticks=3,
            deadline_seconds=10.0, deadline_multipliers=(1.0, 4.0),
        )
        client = serve(pretrained_pilote, scheduling="edf")
        futures = []
        for requests in TrafficGenerator(pool, spec, seed=2).ticks():
            futures.extend(client.submit_many(requests))
        client.drain()
        assert all(f.exception() is None for f in futures)
        report = client.report()
        assert report.total_deadline_requests == 96
        assert report.total_requests == 96


class TestCliFlags:
    def test_scheduling_and_deadline_flags_parse(self):
        arguments = build_parser().parse_args(
            ["fleet-sim", "--scheduling", "edf", "--deadline-ms", "5.0"]
        )
        assert arguments.scheduling == "edf"
        assert arguments.deadline_ms == 5.0
        assert build_parser().parse_args(["serve", "--scheduling", "fifo"]).scheduling == "fifo"

    def test_unknown_scheduling_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet-sim", "--scheduling", "lifo"])

    def test_deadline_ms_rejected_for_serve_subcommand(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["serve", "--deadline-ms", "5"])
        assert "--deadline-ms only applies to fleet-sim" in capsys.readouterr().err
