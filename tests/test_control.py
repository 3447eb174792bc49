"""Control plane: failure window, hedging, worker death, chaos.

Covers the ``ControlPlane`` a client attaches: its recent-failure window,
hedged-request exactly-once accounting, the fixed pool
size of an adaptive client, typed worker death on the process pool, the
rolling-window stats exports and the chaos suite's invariants.
"""

import dataclasses

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.control import (
    CHAOS_SCENARIOS,
    ChaosSpec,
    ControlPlane,
    FlakyDevice,
    HedgedResult,
    HedgeStats,
    StragglerDevice,
    run_chaos,
)
from repro.control.chaos import SLOW_FACTOR
from repro.control.hedging import WINDOW
from repro.core.config import PiloteConfig
from repro.edge.device import DeviceProfile
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    RequestCancelledError,
    ServingError,
    WorkerDiedError,
)
from repro.serving import ROLLING_WINDOW, DeviceStats, RoutingReport
from repro.serving import (
    LocalServingDevice,
    PredictRequest,
    ServingClient,
    serve,
)
from repro.server.simulation import make_serving_learner
from repro.serving.scheduler import service_seconds


def _answer(windows):
    return np.zeros(windows.shape[0], dtype=np.int64)


def _profile(seconds):
    """A profile whose 1-row batch takes ``seconds`` on the simulated clock."""
    reference = service_seconds(LocalServingDevice(_answer), 1)
    return DeviceProfile(
        "slow", storage_bytes=2**20, relative_compute=reference / seconds,
    )


def _devices(n, seconds=0.001):
    profile = _profile(seconds)
    return [
        LocalServingDevice(_answer, profile=profile, device_id=i) for i in range(n)
    ]


#: Config of the training-free serving learner: 3 classes of 30 rows, 20
#: features (``make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30,
#: n_features=20)``).
CHEAP_CONFIG = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, cache_size=100, seed=0)


def _request(user_id, arrival=0.0, deadline=None, n_features=3):
    return PredictRequest(
        user_id=user_id,
        features=np.full((1, n_features), float(user_id)),
        arrival_seconds=arrival,
        deadline_seconds=deadline,
    )


def _client(n_devices=2, *, routing="p2c", scheduling="edf", seconds=0.001,
            executor=None, workers=None):
    return ServingClient(
        _devices(n_devices, seconds), routing=routing, seed=0,
        scheduling=scheduling, executor=executor, workers=workers,
    )


def _flaky_lane(client, lane=0):
    """Wrap one lane's device so it can be switched to failing."""
    flaky = FlakyDevice(client.scheduler.devices[lane])
    client.scheduler.devices[lane] = flaky
    return flaky


def _hash_lane(client, user_id):
    """The lane the client's hash routing sends ``user_id`` to."""
    scheduler = client.scheduler
    return int(scheduler.policy.assign_batch(
        [_request(user_id)], np.asarray([user_id]), scheduler
    )[0])


def _backlogged(client, lanes, n_queued=40):
    """A hash/FIFO client with service history and ``n_queued`` one-row
    batches queued on each of ``lanes``, submitted past any control plane.

    Returns the arrival time just after the backlog.
    """
    scheduler = client.scheduler
    warm = [_request(u) for u in range(2 * client.n_devices)]
    scheduler.submit_assigned(
        warm, np.repeat(np.arange(client.n_devices), 2)
    )
    client.drain()
    now = client.clock_now()
    for lane in lanes:
        for index in range(n_queued):
            scheduler.submit_assigned(
                [_request(index, arrival=now + index * 1e-6)],
                np.asarray([lane], dtype=np.int64),
            )
    return now + n_queued * 1e-6


# ---------------------------------------------------------------------- #
class TestSignals:
    def test_window_reads_scheduler_exports(self):
        client = _client(2)
        plane = ControlPlane(client)
        client.submit_many([_request(u) for u in range(8)])
        assert plane.ticks == 1
        failures = plane.lane_failures()
        assert failures.shape == (2,) and np.all(failures == 0)
        client.drain()
        assert np.all(plane.lane_failures() == 0)

    def test_failure_diffing_is_windowed(self):
        client = _client(2)
        flaky = FlakyDevice(client.scheduler.devices[0])
        client.scheduler.devices[0] = flaky
        plane = ControlPlane(client)
        flaky.failing = True
        client.submit_many([_request(u) for u in range(4)])
        client.drain()
        assert plane.lane_failures().sum() > 0
        flaky.failing = False
        # A window of clean submissions pushes the failure marks out.
        for _ in range(WINDOW):
            plane.after_submit([], [])
        assert plane.lane_failures().sum() == 0

    def test_failures_inside_the_window_still_count(self):
        client = _client(2)
        flaky = _flaky_lane(client)
        plane = ControlPlane(client)
        flaky.failing = True
        client.submit_many([_request(u) for u in range(4)])
        client.drain()
        failed = plane.lane_failures().sum()
        assert failed > 0
        # The oldest mark still predates the failures one tick short of a
        # full window of clean submissions.
        for _ in range(WINDOW - 1):
            plane.after_submit([], [])
        assert plane.lane_failures().sum() == failed
        plane.after_submit([], [])
        assert plane.lane_failures().sum() == 0

    def test_failures_before_the_plane_are_not_recent(self):
        client = _client(2)
        flaky = _flaky_lane(client)
        flaky.failing = True
        client.submit_many([_request(u) for u in range(4)])
        client.drain()
        assert client.scheduler.lane_failures.sum() > 0
        plane = ControlPlane(client)
        assert np.all(plane.lane_failures() == 0)
        plane.after_submit([], [])
        assert np.all(plane.lane_failures() == 0)

    def test_failures_are_kept_per_lane(self):
        client = _client(2)
        flaky = _flaky_lane(client, lane=1)
        plane = ControlPlane(client)
        flaky.failing = True
        futures = client.submit_many([_request(u) for u in range(16)])
        client.drain()
        failed_on_1 = sum(
            1 for f in futures if isinstance(f.exception(), WorkerDiedError)
        )
        assert failed_on_1 > 0
        assert plane.lane_failures().tolist() == [0, failed_on_1]


class TestControlPlane:
    def test_requires_a_serving_client(self):
        with pytest.raises(ConfigurationError, match="ServingClient"):
            ControlPlane(object())

    def test_attaches_and_routes_hooks(self):
        client = _client(2)
        plane = ControlPlane(client)
        assert client.control is plane
        client.submit_many([_request(u) for u in range(3)])
        client.drain()
        assert plane.ticks == 1
        assert client.control_stats() == {
            "window": WINDOW, "ticks": 1, "hedging": HedgeStats().to_dict(),
        }

    def test_ticks_count_waves_not_requests(self):
        client = _client(2)
        plane = ControlPlane(client)
        for _ in range(3):
            client.submit_many([_request(u) for u in range(5)])
        client.submit(_request(0))
        client.submit(_request(1))
        client.submit_many([])  # an empty wave is not a submission
        client.drain()
        assert plane.ticks == 5
        assert client.control_stats()["ticks"] == 5

    def test_detached_plane_stops_observing(self):
        client = _client(2)
        plane = ControlPlane(client)
        client.submit_many([_request(u) for u in range(3)])
        client.control = None
        futures = client.submit_many([_request(u, deadline=50.0) for u in range(3)])
        client.drain()
        assert plane.ticks == 1
        assert client.control_stats() is None
        assert not any(isinstance(f, HedgedResult) for f in futures)

    def test_serve_adaptive_flag(self, pretrained_pilote):
        client = serve(pretrained_pilote, adaptive=True)
        assert client.control is not None
        assert set(client.control_stats()) == {"window", "ticks", "hedging"}
        plain = serve(pretrained_pilote)
        assert plain.control is None and plain.control_stats() is None

    def test_adaptive_pool_keeps_requested_size(self):
        # A deep queue (256 requests on one worker) leaves the pool at the
        # size the caller asked for, and the answers match serial serving.
        from repro.server.simulation import _feature_pool, build_serving_fleet

        pool = _feature_pool(0, n_rows=256)
        waves = [
            [PredictRequest(user_id=u, features=pool[u]) for u in range(256)]
            for _ in range(3)
        ]

        def answers(client, on_wave=None):
            futures = []
            with client:
                for wave in waves:
                    futures.extend(client.submit_many(wave))
                    if on_wave is not None:
                        on_wave(client)
                    client.drain()
                    if on_wave is not None:
                        on_wave(client)
                return [f.result().class_ids.tolist() for f in futures]

        serial = answers(serve(build_serving_fleet(4, seed=0), seed=0))
        sizes = []
        adaptive = answers(
            serve(build_serving_fleet(4, seed=0), seed=0, executor="thread",
                  workers=1, adaptive=True),
            on_wave=lambda client: sizes.append(client.scheduler.executor.n_workers),
        )
        assert sizes == [1] * 6
        assert adaptive == serial


# ---------------------------------------------------------------------- #
class TestCancellation:
    def test_cancel_before_service(self):
        client = _client(1, routing="hash")
        future = client.submit(_request(0))
        assert future.cancel() and future.cancelled()
        client.drain()
        assert isinstance(future.exception(), RequestCancelledError)
        report = client.report()
        assert report.total_cancelled == 1
        # Cancelled ≠ expired/failed: the SLO breakdown keys are unchanged.
        assert set(report.deadline_breakdown()) == {
            "served", "missed", "expired", "failed",
        }

    def test_cancel_after_done_returns_false(self):
        client = _client(1, routing="hash")
        future = client.submit(_request(0))
        client.drain()
        assert future.done() and not future.cancel() and not future.cancelled()
        assert future.exception() is None

    def test_cancel_is_exactly_once_per_future(self):
        client = _client(1, routing="hash")
        futures = client.submit_many([_request(u) for u in range(3)])
        assert futures[1].cancel() and futures[1].cancel()  # idempotent flag
        client.drain()
        report = client.report()
        assert report.total_cancelled == 1
        assert report.total_requests == 2  # the other two served


# ---------------------------------------------------------------------- #
class _FakeAttempt:
    """Stand-in future with the PendingResult completion surface."""

    def __init__(self, advisory_cancel=False):
        self.request = None
        self._done = False
        self._error = None
        self._callbacks = []
        self.cancel_calls = 0
        self._advisory = advisory_cancel

    def done(self):
        return self._done

    def exception(self):
        return self._error

    def result(self):
        if self._error is not None:
            raise self._error
        return f"answer-{id(self)}"

    def add_done_callback(self, callback):
        if self._done:
            callback(self)
        else:
            self._callbacks.append(callback)

    def cancel(self):
        self.cancel_calls += 1
        if self._done:
            return False
        if not self._advisory:
            self.resolve(error=RequestCancelledError("cancelled"))
        return True

    def resolve(self, error=None):
        self._done = True
        self._error = error
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)


class TestHedgedResult:
    def test_primary_wins_loser_cancelled(self):
        stats = HedgeStats(fired=1)
        primary, hedge = _FakeAttempt(), _FakeAttempt()
        paired = HedgedResult(None, primary, hedge, stats)
        fired = []
        paired.add_done_callback(fired.append)
        primary.resolve()
        assert paired.done() and paired.exception() is None
        assert stats.primary_wins == 1 and stats.losers_cancelled == 1
        assert hedge.cancel_calls == 1
        assert fired == [paired]
        assert stats.consistent()

    def test_hedge_wins_then_loser_resolves_late(self):
        # Advisory cancel: the loser's batch reaches service anyway and the
        # late resolution must count as wasted work, not a second answer.
        stats = HedgeStats(fired=1)
        primary, hedge = _FakeAttempt(advisory_cancel=True), _FakeAttempt()
        paired = HedgedResult(None, primary, hedge, stats)
        fired = []
        paired.add_done_callback(fired.append)
        hedge.resolve()
        assert stats.hedge_wins == 1 and primary.cancel_calls == 1
        assert paired.result() == f"answer-{id(hedge)}"
        primary.resolve()  # served after the pair settled
        assert stats.losers_served == 1 and stats.losers_cancelled == 0
        assert fired == [paired]  # callbacks fired exactly once
        assert stats.consistent()

    def test_both_fail_settles_on_primary_error(self):
        stats = HedgeStats(fired=1)
        primary, hedge = _FakeAttempt(), _FakeAttempt()
        paired = HedgedResult(None, primary, hedge, stats)
        hedge.resolve(error=WorkerDiedError("hedge lane died"))
        assert not paired.done()  # one failure does not settle the pair
        primary.resolve(error=DeadlineExceededError("expired in queue"))
        assert paired.done() and stats.pairs_failed == 1
        assert isinstance(paired.exception(), DeadlineExceededError)
        with pytest.raises(DeadlineExceededError):
            paired.result()
        assert stats.consistent()

    def test_loser_failing_before_winner_still_partitions(self):
        # The hedge fails first (e.g. rejected at admission), then the
        # primary wins: the early failure must land in the loser ledger.
        stats = HedgeStats(fired=1)
        primary, hedge = _FakeAttempt(), _FakeAttempt()
        hedge.resolve(error=DeadlineExceededError("rejected at admission"))
        paired = HedgedResult(None, primary, hedge, stats)
        primary.resolve()
        assert stats.primary_wins == 1 and stats.losers_failed == 1
        assert stats.consistent()

    def test_unsettled_pair_raises_typed(self):
        stats = HedgeStats(fired=1)
        paired = HedgedResult(None, _FakeAttempt(), _FakeAttempt(), stats)
        with pytest.raises(ServingError, match="pending"):
            paired.result()


class TestHedgedRequests:
    def test_hedges_away_from_dying_lane(self):
        # Lane failures make the chosen lane "unhealthy" in the signal
        # window; subsequent waves hedge onto the sibling and win there.
        client = _client(2, routing="p2c", scheduling="edf")
        flaky = FlakyDevice(client.scheduler.devices[0])
        client.scheduler.devices[0] = flaky
        plane = ControlPlane(client)
        flaky.failing = True
        warm = client.submit_many([_request(u, deadline=50.0) for u in range(8)])
        client.drain()  # lane 0's failures are now in the window
        futures = client.submit_many(
            [_request(u, deadline=50.0) for u in range(8)]
        )
        client.drain()
        hedged = [f for f in futures if isinstance(f, HedgedResult)]
        assert hedged, "no hedge fired against a lane failing in-window"
        # Every hedged request was answered despite its primary lane dying.
        assert all(f.exception() is None for f in hedged)
        stats = plane.hedges
        assert stats.fired == len(hedged)
        assert stats.hedge_wins >= 1
        assert stats.consistent()
        report = client.report()
        # Cancelled losers are accounted, and sit outside the SLO keys.
        assert report.total_cancelled == stats.losers_cancelled

    def test_both_attempts_complete_in_same_drain(self):
        # Thread executor runs both lanes in one round, so the loser's
        # batch reaches service before its cancel flag is seen: the pair
        # must count it as wasted (losers_served), never double-answer.
        client = _client(2, routing="p2c", scheduling="edf",
                         executor="thread", workers=2)
        try:
            flaky = FlakyDevice(client.scheduler.devices[0])
            client.scheduler.devices[0] = flaky
            plane = ControlPlane(client)
            flaky.failing = True
            client.submit_many([_request(u, deadline=50.0) for u in range(8)])
            client.drain()
            flaky.failing = False  # lane recovers: both attempts now succeed
            futures = client.submit_many(
                [_request(u, deadline=50.0) for u in range(8)]
            )
            client.drain()
            hedged = [f for f in futures if isinstance(f, HedgedResult)]
            assert hedged
            assert all(f.exception() is None for f in hedged)
            stats = plane.hedges
            assert stats.settled == stats.fired
            assert stats.losers_resolved == stats.fired
            assert stats.consistent()
        finally:
            client.close()

    def test_single_lane_never_hedges(self):
        client = _client(1, routing="hash")
        plane = ControlPlane(client)
        futures = client.submit_many([_request(u, deadline=50.0) for u in range(4)])
        client.drain()
        assert plane.hedges.fired == 0
        assert not any(isinstance(f, HedgedResult) for f in futures)

    def test_projected_miss_hedges_onto_a_lane_that_makes_it(self):
        # 40 one-millisecond batches queued ahead on lane 0 push its
        # projected begin past a 5 ms deadline; lane 1 is idle.
        def submit_late_request(client):
            now = _backlogged(client, lanes=[0])
            user = next(u for u in range(64) if _hash_lane(client, u) == 0)
            future = client.submit(_request(user, arrival=now, deadline=now + 0.005))
            return user, future

        plain = _client(2, routing="hash", scheduling="fifo")
        _, unhedged = submit_late_request(plain)
        plain.drain()
        assert isinstance(unhedged.exception(), DeadlineExceededError)

        client = _client(2, routing="hash", scheduling="fifo")
        plane = ControlPlane(client)
        user, future = submit_late_request(client)
        assert isinstance(future, HedgedResult)
        client.drain()
        response = future.result()
        assert response.user_id == user and response.device_id == 1
        assert plane.hedges.to_dict() == {
            **HedgeStats().to_dict(), "fired": 1, "hedge_wins": 1,
            "losers_cancelled": 1,
        }
        assert client.report().deadline_breakdown()["served"] == 1

    def test_equally_doomed_alternate_is_not_hedged(self):
        client = _client(2, routing="hash", scheduling="fifo")
        plane = ControlPlane(client)
        now = _backlogged(client, lanes=[0, 1])
        future = client.submit(_request(0, arrival=now, deadline=now + 0.005))
        client.drain()
        assert not isinstance(future, HedgedResult)
        assert plane.hedges.fired == 0
        assert isinstance(future.exception(), DeadlineExceededError)

    def test_requests_without_deadlines_are_never_hedged(self):
        client = _client(2)
        flaky = _flaky_lane(client)
        plane = ControlPlane(client)
        flaky.failing = True
        client.submit_many([_request(u) for u in range(8)])
        client.drain()
        assert client.scheduler.lane_failures[0] > 0
        futures = client.submit_many([_request(u) for u in range(8)])
        client.drain()
        assert plane.hedges.fired == 0
        assert not any(isinstance(f, HedgedResult) for f in futures)

    def test_requests_rejected_at_admission_are_not_hedged(self):
        # A deadline before the lane can start work fails at submit time
        # (the admission floor); there is nothing queued to hedge.
        client = _client(2, routing="hash")
        plane = ControlPlane(client)
        client.submit_many([_request(u) for u in range(8)])
        client.drain()
        now = client.clock_now()
        futures = client.submit_many(
            [_request(u, arrival=0.0, deadline=now / 2) for u in range(4)]
        )
        assert all(f.done() for f in futures)
        assert all(
            "rejected at admission" in str(f.exception()) for f in futures
        )
        assert not any(isinstance(f, HedgedResult) for f in futures)
        assert plane.hedges.fired == 0
        assert client.report().total_rejected == 4

    def test_healthy_lanes_with_slack_never_hedge(self):
        client = _client(4)
        plane = ControlPlane(client)
        for wave in range(3):
            futures = client.submit_many(
                [_request(u, arrival=0.01 * wave, deadline=50.0) for u in range(16)]
            )
            client.drain()
            assert all(f.exception() is None for f in futures)
        assert plane.hedges.fired == 0

    def test_hedge_goes_to_the_p2c_sibling(self):
        client = _client(4, routing="p2c")
        flaky = _flaky_lane(client)
        plane = ControlPlane(client)
        flaky.failing = True
        client.submit_many([_request(u, deadline=50.0) for u in range(16)])
        client.drain()
        users = list(range(32))
        futures = client.submit_many([_request(u, deadline=50.0) for u in users])
        client.drain()
        first, second = client.scheduler.policy.candidates(users)
        hedged = 0
        for user, future in zip(users, futures):
            if not isinstance(future, HedgedResult):
                continue
            hedged += 1
            pair = {int(first[user]), int(second[user])}
            # The primary was the failing lane 0; the other candidate won.
            assert 0 in pair
            if len(pair) == 2:
                assert future.result().device_id == (pair - {0}).pop()
            else:
                assert future.result().device_id != 0
        assert hedged == plane.hedges.fired > 0


# ---------------------------------------------------------------------- #
class TestProcessWorkerDeath:
    def test_kill_worker_conserves_futures(self):
        engine = make_serving_learner(CHEAP_CONFIG, n_classes=3, per_class=30, n_features=20).inference_engine()
        devices = [
            LocalServingDevice(engine.predict, device_id=i, engine=engine)
            for i in range(2)
        ]
        client = ServingClient(
            devices, routing="hash", seed=0, executor="process", workers=2
        )
        try:
            pool = np.random.default_rng(1).normal(size=(16, 20))
            futures = client.submit_many(
                [PredictRequest(user_id=u, features=pool[u]) for u in range(16)]
            )
            client.scheduler.executor.kill_worker(0)
            client.drain()
            served = sum(1 for f in futures if f.exception() is None)
            died = sum(
                1 for f in futures if isinstance(f.exception(), WorkerDiedError)
            )
            assert served + died == 16  # every future resolved, exactly once
        finally:
            client.close()


# ---------------------------------------------------------------------- #
class TestRollingStats:
    def test_device_stats_rolling_window(self):
        stats = DeviceStats(device_id=0, profile="test")
        assert stats.rolling_deadline_attainment == 1.0
        for index in range(3 * ROLLING_WINDOW):
            stats.note_deadline(index % 2 == 0)
        assert len(stats.recent_deadlines) <= 2 * ROLLING_WINDOW
        assert stats.rolling_deadline_attainment == pytest.approx(0.5)
        data = stats.to_dict()
        assert data["rolling_window"] == ROLLING_WINDOW
        assert data["rolling_deadline_attainment"] == pytest.approx(0.5)
        assert "queue_depth" in data and "failures" in data

    def test_report_exports_rolling_and_control_counters(self):
        client = _client(1, routing="hash")
        client.submit_many([_request(u, deadline=100.0) for u in range(4)])
        client.drain()
        report = client.report()
        data = report.to_dict()
        for key in (
            "total_cancelled", "total_queue_depth", "rolling_deadline_attainment",
        ):
            assert key in data
        assert data["rolling_deadline_attainment"] == 1.0
        assert data["total_cancelled"] == report.total_cancelled

    def test_report_exports_rolling_attainment(self):
        missing = DeviceStats(device_id=0, profile="test")
        for index in range(ROLLING_WINDOW + 44):
            missing.note_deadline(index % 4 == 0)  # attainment 0.25
        partial = DeviceStats(device_id=1, profile="test")
        for index in range(3):
            partial.note_deadline(index == 0)  # attainment 1/3
        report = RoutingReport(per_device={0: missing, 1: partial})
        data = report.to_dict()
        assert data["per_device"]["0"]["rolling_deadline_attainment"] == 0.25
        assert data["per_device"]["0"]["rolling_window"] == ROLLING_WINDOW
        assert data["per_device"]["1"]["rolling_window"] == 3
        assert data["per_device"]["1"]["rolling_deadline_attainment"] == pytest.approx(1 / 3)
        assert data["rolling_deadline_attainment"] < 1.0

    def test_queue_depth_gauge_tracks_pending(self):
        client = _client(2)
        client.submit_many([_request(u) for u in range(6)])
        report = client.report()
        assert report.total_queue_depth == 6
        client.drain()
        assert client.report().total_queue_depth == 0


# ---------------------------------------------------------------------- #
class TestChaos:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError, match="scenario"):
            ChaosSpec(name="x", scenario="meteor")
        with pytest.raises(ConfigurationError, match="storm_ticks"):
            ChaosSpec(name="x", scenario="worker-storm", storm_ticks=(99,))
        with pytest.raises(ConfigurationError, match="restart_tick"):
            ChaosSpec(name="x", scenario="restart", restart_tick=99)

    def test_registry_covers_the_required_scenarios(self):
        assert {"worker-storm", "worker-storm-process", "stragglers", "restart"} \
            <= set(CHAOS_SCENARIOS)

    def test_worker_storm_exactly_once_both_modes(self):
        spec = ChaosSpec(
            name="storm-small", scenario="worker-storm", seed=3,
            n_devices=2, n_ticks=5, requests_per_tick=12,
            storm_ticks=(1, 2), storm_devices=(0,),
        )
        for adaptive in (True, False):
            report = run_chaos(spec, adaptive=adaptive)
            assert report.sent == 60
            assert report.exactly_once, report.to_dict()
            assert report.answered + report.failed == report.sent
        static = run_chaos(spec, adaptive=False)
        assert static.failed_by_type.get("WorkerDiedError", 0) > 0

    def test_restart_fails_pending_typed_not_dropped(self):
        spec = ChaosSpec(
            name="restart-small", scenario="restart", seed=5,
            n_devices=2, n_ticks=6, requests_per_tick=8, restart_tick=2,
            storm_ticks=(),
        )
        report = run_chaos(spec, adaptive=True)
        assert report.exactly_once, report.to_dict()
        assert report.failed_by_type.get("ClientClosedError", 0) == 8
        assert report.answered == report.sent - 8

    @pytest.mark.parametrize("adaptive", [True, False])
    @pytest.mark.parametrize("name", ["worker-storm", "stragglers", "restart"])
    def test_simulated_clock_scenarios_are_seed_determined(self, name, adaptive):
        spec = CHAOS_SCENARIOS[name]
        assert spec.executor == "serial"
        first = run_chaos(spec, adaptive=adaptive).to_dict()
        assert run_chaos(spec, adaptive=adaptive).to_dict() == first

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_stragglers_answer_every_request_without_a_hedge(self, adaptive):
        # A lane slowed SLOW_FACTOR-fold still drains each tick long before
        # the next, so no projected begin passes a deadline.
        report = run_chaos(CHAOS_SCENARIOS["stragglers"], adaptive=adaptive)
        assert report.sent == report.answered == 576
        assert report.hedges_fired == 0 and report.cancelled == 0
        assert report.deadline_attainment == 1.0
        assert report.exactly_once

    @pytest.mark.parametrize("seed", [0, 11])
    def test_hedging_answers_more_of_a_worker_storm(self, seed):
        spec = dataclasses.replace(CHAOS_SCENARIOS["worker-storm"], seed=seed)
        adaptive = run_chaos(spec, adaptive=True)
        static = run_chaos(spec, adaptive=False)
        assert static.hedges_fired == 0
        assert adaptive.hedges_fired > 0
        assert adaptive.answered > static.answered
        assert adaptive.exactly_once and static.exactly_once

    def test_straggler_device_slows_only_while_flagged(self):
        inner = LocalServingDevice(_answer, device_id=0)
        straggler = StragglerDevice(inner)
        baseline = straggler.profile.relative_compute
        straggler.slow = True
        assert straggler.profile.relative_compute == pytest.approx(baseline / SLOW_FACTOR)
        straggler.slow = False
        assert straggler.profile.relative_compute == pytest.approx(baseline)


# ---------------------------------------------------------------------- #
class TestCli:
    def test_chaos_experiment_parses(self):
        arguments = build_parser().parse_args(["chaos"])
        assert arguments.experiment == "chaos"
        assert arguments.chaos_scenario is None
        arguments = build_parser().parse_args(
            ["chaos", "--chaos-scenario", "worker-storm"]
        )
        assert arguments.chaos_scenario == "worker-storm"

    def test_chaos_scenario_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--chaos-scenario", "meteor"])

    def test_chaos_scenario_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["table2", "--chaos-scenario", "worker-storm"])

    def test_adaptive_flag_parses_for_fleet_sim(self):
        arguments = build_parser().parse_args(["fleet-sim", "--adaptive"])
        assert arguments.adaptive is True

    def test_adaptive_rejected_elsewhere(self):
        with pytest.raises(SystemExit):
            main(["serve", "--adaptive"])
        with pytest.raises(SystemExit):
            main(["chaos", "--adaptive"])
