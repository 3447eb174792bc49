"""Control plane: signals, shedding, hedging, autoscaling, resize, chaos.

Covers the PR's tentpole seams end to end — the ``SignalBus``/``Controller``
protocol, load-shedding admission, hedged-request exactly-once accounting,
pool autoscaling with hysteresis/cooldown, the ``ProcessExecutor`` resize
regression (drain-then-retire, no lost in-flight batches) — plus the
rolling-window stats exports and the chaos suite's invariants.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.control import (
    CHAOS_SCENARIOS,
    ChaosSpec,
    ControlPlane,
    ControlSignals,
    Controller,
    FlakyDevice,
    HedgedRequests,
    HedgedResult,
    HedgeStats,
    LoadShedder,
    PoolAutoscaler,
    SignalBus,
    StragglerDevice,
    default_controllers,
    run_chaos,
)
from repro.edge.device import DeviceProfile
from repro.exceptions import (
    ConfigurationError,
    DeadlineExceededError,
    ExecutorError,
    RequestCancelledError,
    RequestSheddedError,
    ServingError,
    WorkerDiedError,
)
from repro.serving import ROLLING_WINDOW, DeviceStats, RoutingReport
from repro.serving import (
    EventLoopScheduler,
    LocalServingDevice,
    PredictRequest,
    ProcessExecutor,
    ServingClient,
    ThreadExecutor,
    serve,
)
from repro.serving.scheduler import service_seconds


def _answer(windows):
    return np.zeros(windows.shape[0], dtype=np.int64)


def _profile(seconds):
    """A profile whose 1-row batch takes ``seconds`` on the simulated clock."""
    reference = service_seconds(LocalServingDevice(_answer), 1)
    return DeviceProfile(
        "slow", storage_bytes=2**20, memory_bytes=2**20,
        relative_compute=reference / seconds,
    )


def _devices(n, seconds=0.001):
    profile = _profile(seconds)
    return [
        LocalServingDevice(_answer, profile=profile, device_id=i) for i in range(n)
    ]


def _cheap_serving_learner(rng_seed):
    """A pre-trained-looking learner built without gradient training."""
    from repro.core.config import PiloteConfig
    from repro.core.embedding import EmbeddingNetwork
    from repro.core.pilote import PILOTE

    config = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, cache_size=100, seed=0)
    rng = np.random.default_rng(rng_seed)
    learner = PILOTE(config, seed=0)
    learner.model = EmbeddingNetwork(20, config=config, rng=rng_seed)
    learner._old_classes = list(range(3))
    for class_id in range(3):
        learner.exemplars.set_exemplars(class_id, rng.normal(size=(30, 20)))
    learner._refresh_prototypes()
    return learner


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


def _signals(tick=10, workers=2, depth=0, rate=0.0, attainment=1.0, n_lanes=8):
    return ControlSignals(
        tick=tick,
        now=0.0,
        n_lanes=n_lanes,
        workers=workers,
        queue_depths=np.full(n_lanes, depth // n_lanes, dtype=np.int64),
        queue_depth=depth,
        arrival_rate=rate,
        rolling_attainment=attainment,
        lane_failures=np.zeros(n_lanes, dtype=np.int64),
    )


# ---------------------------------------------------------------------- #
class TestSignals:
    def test_window_must_be_positive(self):
        scheduler = EventLoopScheduler(_devices(1), seed=0)
        with pytest.raises(ConfigurationError, match="window"):
            SignalBus(scheduler, window=0)

    def test_bus_reads_scheduler_exports(self):
        client = _client(2)
        bus = SignalBus(client.scheduler, window=4)
        bus.observe_submit(8)
        client.submit_many([_request(u) for u in range(8)])
        signals = bus.snapshot()
        assert signals.tick == 1
        assert signals.n_lanes == 2
        assert signals.queue_depth == 8
        assert signals.arrival_rate == 8.0
        assert signals.workers is None  # serial executor has no pool
        assert np.all(signals.lane_failures == 0)
        client.drain()
        assert bus.snapshot().queue_depth == 0

    def test_failure_diffing_is_windowed(self):
        client = _client(2)
        flaky = FlakyDevice(client.scheduler.devices[0])
        client.scheduler.devices[0] = flaky
        bus = SignalBus(client.scheduler, window=2)
        flaky.failing = True
        bus.observe_submit(4)
        client.submit_many([_request(u) for u in range(4)])
        client.drain()
        assert bus.snapshot().lane_failures.sum() > 0
        flaky.failing = False
        # Two clean windows push the failure marks out of the deque.
        for _ in range(2):
            bus.observe_submit(0)
        assert bus.snapshot().lane_failures.sum() == 0


class TestControlPlane:
    def test_requires_a_serving_client(self):
        with pytest.raises(ConfigurationError, match="ServingClient"):
            ControlPlane(object())

    def test_attaches_and_routes_hooks(self):
        client = _client(2)
        seen = []

        class Probe(Controller):
            name = "probe"

            def on_submit(self, requests, futures, signals):
                seen.append(("submit", len(requests), signals.tick))
                return futures

            def on_tick(self, signals):
                seen.append(("tick", signals.queue_depth, signals.tick))

        plane = ControlPlane(client, [Probe()])
        assert client.control is plane
        client.submit_many([_request(u) for u in range(3)])
        client.drain()
        assert seen == [("submit", 3, 1), ("tick", 0, 1)]
        assert plane.controller("probe") is plane.controllers[0]
        stats = client.control_stats()
        assert stats["controllers"] == ["probe"]
        assert "probe" in stats

    def test_default_stack_feature_detects(self):
        # Single lane, serial executor: only the shedder applies.
        single = default_controllers(EventLoopScheduler(_devices(1), seed=0))
        assert [c.name for c in single] == ["load-shedder"]
        # Two lanes + resizable executor: the full stack.
        scheduler = EventLoopScheduler(
            _devices(2), seed=0, executor="thread", workers=1
        )
        full = default_controllers(scheduler)
        assert [c.name for c in full] == ["load-shedder", "hedging", "autoscaler"]
        scheduler.close()

    def test_serve_adaptive_flag(self, pretrained_pilote):
        client = serve(pretrained_pilote, adaptive=True)
        assert client.control is not None
        assert client.control_stats()["controllers"] == ["load-shedder"]
        plain = serve(pretrained_pilote)
        assert plain.control is None and plain.control_stats() is None


# ---------------------------------------------------------------------- #
class TestLoadShedding:
    def test_watermark_validation(self):
        with pytest.raises(ConfigurationError, match="watermarks"):
            LoadShedder(high_queue_per_lane=4.0, low_queue_per_lane=8.0)
        with pytest.raises(ConfigurationError, match="margin"):
            LoadShedder(margin_seconds=-1.0)

    def test_inactive_shedder_admits_everything(self):
        client = _client(1, routing="hash")
        ControlPlane(client, [LoadShedder(high_queue_per_lane=1e9)])
        futures = client.submit_many(
            [_request(u, deadline=100.0) for u in range(32)]
        )
        client.drain()
        assert all(f.exception() is None for f in futures)
        assert client.report().total_shed == 0

    def test_sheds_doomed_work_under_overload(self):
        client = _client(1, routing="hash", scheduling="fifo", seconds=0.002)
        shedder = LoadShedder(high_queue_per_lane=8.0, low_queue_per_lane=1.0)
        ControlPlane(client, [shedder])
        assert client.scheduler.admission is shedder
        # Prime service-time history, then pile up a deep queue (activates
        # the shedder) and submit a tight-deadline wave behind it.
        client.submit(_request(0, deadline=1000.0))
        client.drain()
        client.submit_many([_request(u, deadline=1000.0) for u in range(48)])
        assert shedder.active
        now = client.clock_now()
        doomed = client.submit_many(
            [_request(u, arrival=now, deadline=now + 0.005) for u in range(4)]
        )
        errors = [f.exception() for f in doomed]
        assert all(isinstance(e, RequestSheddedError) for e in errors)
        assert all(isinstance(e, DeadlineExceededError) for e in errors)
        client.drain()
        report = client.report()
        assert report.total_shed == 4
        # shed ⊆ rejected ⊆ expired: the cheap-reject path reuses PR 4's
        # admission accounting rather than inventing a new outcome.
        assert report.total_shed <= report.total_rejected <= report.total_expired
        assert client.control_stats()["load-shedder"]["shed"] == 4

    def test_never_sheds_work_edf_could_save(self):
        client = _client(1, routing="hash", scheduling="edf", seconds=0.002)
        shedder = LoadShedder(high_queue_per_lane=8.0, low_queue_per_lane=1.0)
        ControlPlane(client, [shedder])
        client.submit(_request(0, deadline=1000.0))
        client.drain()
        # A deep queue of *relaxed* deadlines activates the shedder...
        client.submit_many([_request(u, deadline=1000.0) for u in range(48)])
        assert shedder.active
        # ...but an urgent request jumps it under EDF: only earlier-or-equal
        # deadlines count as work ahead, so its projection clears.
        now = client.clock_now()
        urgent = client.submit(_request(7, arrival=now, deadline=now + 0.05))
        assert not isinstance(urgent.exception() if urgent.done() else None,
                              RequestSheddedError)
        client.drain()
        assert urgent.exception() is None

    def test_hysteresis_deactivates_below_low_watermark(self):
        client = _client(1, routing="hash")
        shedder = LoadShedder(high_queue_per_lane=8.0, low_queue_per_lane=2.0)
        ControlPlane(client, [shedder])
        client.submit_many([_request(u, deadline=1000.0) for u in range(16)])
        assert shedder.active and shedder.activations == 1
        client.drain()
        client.submit_many([_request(0, deadline=1000.0)])
        assert not shedder.active
        client.drain()


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
        hedge.resolve(error=RequestSheddedError("shed on arrival"))
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
    def test_option_validation(self):
        with pytest.raises(ConfigurationError, match="slack"):
            HedgedRequests(slack_seconds=-0.1)
        with pytest.raises(ConfigurationError, match="unhealthy"):
            HedgedRequests(unhealthy_failures=0)

    def test_hedges_away_from_dying_lane(self):
        # Lane failures make the chosen lane "unhealthy" in the signal
        # window; subsequent waves hedge onto the sibling and win there.
        client = _client(2, routing="p2c", scheduling="edf")
        flaky = FlakyDevice(client.scheduler.devices[0])
        client.scheduler.devices[0] = flaky
        hedging = HedgedRequests()
        ControlPlane(client, [hedging], window=8)
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
        stats = hedging.hedges
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
            hedging = HedgedRequests()
            ControlPlane(client, [hedging])
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
            stats = hedging.hedges
            assert stats.settled == stats.fired
            assert stats.losers_resolved == stats.fired
            assert stats.consistent()
        finally:
            client.close()

    def test_single_lane_never_hedges(self):
        client = _client(1, routing="hash")
        hedging = HedgedRequests()
        ControlPlane(client, [hedging])
        futures = client.submit_many([_request(u, deadline=50.0) for u in range(4)])
        client.drain()
        assert hedging.hedges.fired == 0
        assert not any(isinstance(f, HedgedResult) for f in futures)


# ---------------------------------------------------------------------- #
class TestAutoscaler:
    def _bound(self, executor, **options):
        scaler = PoolAutoscaler(**options)
        scaler.bind(SimpleNamespace(executor=executor))
        return scaler

    def _executor(self, workers=2, cap=8):
        state = SimpleNamespace(n_workers=workers, calls=[])

        def resize(requested):
            state.n_workers = max(1, min(int(requested), cap))
            state.calls.append(requested)
            return state.n_workers

        state.resize = resize
        return state

    def test_option_validation(self):
        with pytest.raises(ConfigurationError, match="min_workers"):
            PoolAutoscaler(min_workers=0)
        with pytest.raises(ConfigurationError, match="max_workers"):
            PoolAutoscaler(min_workers=4, max_workers=2)
        with pytest.raises(ConfigurationError, match="watermarks"):
            PoolAutoscaler(high_queue_per_worker=1.0, low_queue_per_worker=2.0)
        with pytest.raises(ConfigurationError, match="attainment_floor"):
            PoolAutoscaler(attainment_floor=1.5)

    def test_grows_under_queue_pressure(self):
        executor = self._executor(workers=2)
        scaler = self._bound(
            executor, high_queue_per_worker=8.0, low_queue_per_worker=2.0,
            cooldown_ticks=0,
        )
        scaler.on_submit([], [], _signals(tick=1, workers=2, depth=64))
        assert executor.n_workers == 4  # doubled, not crept
        assert scaler.stats()["scale_ups"] == 1

    def test_grows_on_poor_attainment_with_moderate_queue(self):
        executor = self._executor(workers=2)
        scaler = self._bound(
            executor, high_queue_per_worker=100.0, low_queue_per_worker=4.0,
            attainment_floor=0.9, cooldown_ticks=0,
        )
        scaler.on_submit(
            [], [], _signals(tick=1, workers=2, depth=16, attainment=0.5)
        )
        assert executor.n_workers == 4

    def test_shrinks_only_when_quiet_and_attaining(self):
        executor = self._executor(workers=4)
        scaler = self._bound(executor, low_queue_per_worker=8.0, cooldown_ticks=0)
        # Attainment below the floor vetoes the shrink outright.
        scaler.on_tick(_signals(tick=1, workers=4, rate=1.0, attainment=0.5))
        assert executor.n_workers == 4
        # Hysteresis: the rate is tested against the *shrunken* pool.
        scaler.on_tick(_signals(tick=2, workers=4, rate=30.0))
        assert executor.n_workers == 4  # 30 >= 8 x 3: would regrow, vetoed
        scaler.on_tick(_signals(tick=3, workers=4, rate=2.0))
        assert executor.n_workers == 3
        assert scaler.stats()["scale_downs"] == 1

    def test_cooldown_prevents_flapping(self):
        executor = self._executor(workers=2)
        scaler = self._bound(
            executor, high_queue_per_worker=8.0, low_queue_per_worker=2.0,
            cooldown_ticks=3,
        )
        scaler.on_submit([], [], _signals(tick=1, workers=2, depth=64))
        assert executor.n_workers == 4
        # A quiet tick right after the grow may NOT shrink (cooldown)...
        scaler.on_tick(_signals(tick=2, workers=4, rate=0.0))
        assert executor.n_workers == 4
        # ...until cooldown_ticks submissions have passed.
        scaler.on_tick(_signals(tick=4, workers=4, rate=0.0))
        assert executor.n_workers == 3
        assert scaler.stats()["actions"] == 2

    def test_respects_min_and_cap(self):
        executor = self._executor(workers=1, cap=8)
        scaler = self._bound(
            executor, min_workers=1, max_workers=2,
            high_queue_per_worker=1.0, low_queue_per_worker=0.5,
            cooldown_ticks=0,
        )
        scaler.on_submit([], [], _signals(tick=1, workers=1, depth=100))
        assert executor.n_workers == 2  # capped at max_workers
        scaler.on_submit([], [], _signals(tick=2, workers=2, depth=100))
        assert executor.n_workers == 2
        scaler.on_tick(_signals(tick=3, workers=1, rate=0.0))
        assert executor.n_workers == 2  # already at min_workers=1 per signals

    def test_inline_executor_is_a_noop(self):
        scaler = PoolAutoscaler(cooldown_ticks=0)
        scaler.bind(SimpleNamespace(executor=SimpleNamespace()))  # no resize
        scaler.on_submit([], [], _signals(tick=1, workers=None, depth=1000))
        assert scaler.stats()["actions"] == 0

    def test_autoscaler_drives_thread_pool_through_plane(self):
        client = _client(4, routing="hash", executor="thread", workers=1)
        try:
            scaler = PoolAutoscaler(
                high_queue_per_worker=4.0, low_queue_per_worker=0.5,
                cooldown_ticks=0,
            )
            ControlPlane(client, [scaler])
            futures = client.submit_many([_request(u) for u in range(64)])
            assert client.scheduler.executor.n_workers > 1  # grew pre-drain
            client.drain()
            assert all(f.exception() is None for f in futures)
            assert scaler.stats()["scale_ups"] >= 1
        finally:
            client.close()


# ---------------------------------------------------------------------- #
class TestExecutorResize:
    def test_thread_resize_caps_and_validates(self):
        executor = ThreadExecutor(workers=1)
        executor.bind(_devices(2))
        assert executor.resize(8) == 2  # capped at lane count
        with pytest.raises(ConfigurationError):
            executor.resize(0)

    def test_process_resize_validates(self):
        executor = ProcessExecutor(workers=1)
        executor.bind(_devices(2))
        with pytest.raises(ConfigurationError):
            executor.resize(-1)
        executor.close()

    def test_process_resize_mid_round_raises_typed(self):
        executor = ProcessExecutor(workers=1)
        executor.bind(_devices(2))
        executor._running = True
        try:
            with pytest.raises(ExecutorError, match="mid-round"):
                executor.resize(2)
        finally:
            executor._running = False
            executor.close()

    def test_process_pool_resize_loses_no_batches(self):
        # Grow and shrink across rounds; every future must complete with
        # the same answers the serial path gives (drain-then-retire).
        engine = _cheap_serving_learner(0).inference_engine()
        devices = [
            LocalServingDevice(engine.predict, device_id=i, engine=engine)
            for i in range(2)
        ]
        client = ServingClient(
            devices, routing="hash", seed=0, executor="process", workers=1
        )
        try:
            pool = np.random.default_rng(0).normal(size=(48, 20))
            expected = engine.predict(pool)
            waves = []
            for wave_index, workers in enumerate((1, 2, 1)):
                assert client.scheduler.executor.resize(workers) == workers
                futures = client.submit_many(
                    [
                        PredictRequest(user_id=u, features=pool[16 * wave_index + u])
                        for u in range(16)
                    ]
                )
                client.drain()
                waves.append(futures)
            for wave_index, futures in enumerate(waves):
                for u, future in enumerate(futures):
                    assert future.exception() is None
                    assert (
                        future.result().class_ids[0]
                        == expected[16 * wave_index + u]
                    )
        finally:
            client.close()

    def test_kill_worker_conserves_futures(self):
        engine = _cheap_serving_learner(0).inference_engine()
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
            "total_shed", "total_cancelled", "total_queue_depth",
            "rolling_deadline_attainment",
        ):
            assert key in data
        assert data["rolling_deadline_attainment"] == 1.0
        restored = RoutingReport.from_dict(data)
        assert restored.total_shed == report.total_shed
        assert restored.total_cancelled == report.total_cancelled

    def test_report_round_trip_keeps_rolling_attainment(self):
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
        assert data["rolling_deadline_attainment"] < 1.0
        assert RoutingReport.from_dict(data).to_dict() == data

    def test_queue_depth_gauge_tracks_pending(self):
        client = _client(2)
        client.submit_many([_request(u) for u in range(6)])
        report = client.report()
        assert report.total_queue_depth == 6
        assert int(client.scheduler.queue_depths.sum()) == 6
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

    def test_straggler_device_slows_only_while_flagged(self):
        inner = LocalServingDevice(_answer, device_id=0)
        straggler = StragglerDevice(inner, slow_factor=4.0)
        baseline = straggler.profile.relative_compute
        straggler.slow = True
        assert straggler.profile.relative_compute == pytest.approx(baseline / 4.0)
        straggler.slow = False
        assert straggler.profile.relative_compute == pytest.approx(baseline)
        with pytest.raises(ConfigurationError, match="slow_factor"):
            StragglerDevice(inner, slow_factor=1.0)


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
