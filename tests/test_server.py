"""Tests for the network front door (:mod:`repro.server`).

The contract under test (ISSUE 7): the wire format round-trips and rejects
framing violations typed; ``PendingResult.add_done_callback`` fires exactly
once even when registered after completion (including the admission-rejected
``_RejectedResult`` path); a closed serving client rejects new submissions
and fails — never drops — still-pending futures; ``RoutingReport`` exports
to/from JSON-able dicts; the asyncio bridge resolves native futures without
polling; the socket server answers, reports stats, and on graceful shutdown
settles every received request exactly once (``received == answered +
failed``) across seeds.
"""

import asyncio
import json
import threading

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.config import PiloteConfig
from repro.exceptions import (
    ClientClosedError,
    DeadlineExceededError,
    InvalidRequestError,
    ServingError,
    WireProtocolError,
)
from repro.fleet import TrafficGenerator, WorkloadSpec
from repro.serving import DeviceStats, RoutingReport
from repro.server import (
    AsyncConnection,
    AsyncServingClient,
    RequestSpec,
    ServerStats,
    ServingServer,
    run_load,
    wire,
)
from repro.server.server import MAX_INFLIGHT_PER_CONNECTION
from repro.server.simulation import make_serving_learner
from repro.serving import PredictRequest, serve

N_FEATURES = 24

SERVER_CONFIG = PiloteConfig(
    hidden_dims=(32, 16), embedding_dim=8, cache_size=100, seed=0
)


def make_learner(seed=3):
    return make_serving_learner(
        SERVER_CONFIG, n_classes=3, per_class=40, n_features=N_FEATURES, seed=seed
    )


def make_client(**serve_options):
    return serve(make_learner(), **serve_options)


def features(n_windows=2, seed=0):
    return (
        np.random.default_rng(seed)
        .normal(size=(n_windows, N_FEATURES))
        .astype(np.float32)
    )


def read_one(*frames):
    """Read one frame from raw bytes as a peer would off the socket."""

    async def _read():
        reader = asyncio.StreamReader()
        for frame in frames:
            reader.feed_data(frame)
        reader.feed_eof()
        return await wire.read_frame(reader)

    return asyncio.run(_read())


# ---------------------------------------------------------------------- #
class TestWireFormat:
    def test_predict_round_trip(self):
        sent = features(3, seed=1)
        header, payload = wire.predict_frame(
            7, 11, sent, deadline_ms=50.0, metadata={"tag": "a"}
        )
        got = read_one(wire.encode_frame(header, payload))
        assert got is not None
        request_id, user_id, decoded, deadline_ms, metadata = wire.decode_predict(
            *got
        )
        assert (request_id, user_id) == (7, 11)
        assert deadline_ms == 50.0
        assert metadata == {"tag": "a"}
        np.testing.assert_array_equal(decoded, sent)
        assert decoded.dtype == np.dtype("<f4")

    def test_one_dimensional_features_promote_to_one_window(self):
        header, payload = wire.predict_frame(1, 2, features(1, seed=2)[0])
        assert header["shape"] == [1, N_FEATURES]
        *_, decoded, _, _ = wire.decode_predict(header, payload)
        assert decoded.shape == (1, N_FEATURES)

    def test_response_round_trip(self):
        class_ids = np.array([4, 1, 4], dtype=np.int64)
        header, payload = wire.response_frame(
            9, 3, class_ids, device_id=2, latency_ms=1.5, e2e_ms=2.5,
            deadline_missed=True,
        )
        decoded = wire.decode_response(*read_one(wire.encode_frame(header, payload)))
        assert decoded["request_id"] == 9
        assert decoded["device_id"] == 2
        assert decoded["deadline_missed"] is True
        np.testing.assert_array_equal(decoded["class_ids"], class_ids)

    def test_error_frames_travel_typed_by_name(self):
        header, _ = wire.error_frame(DeadlineExceededError("too late"), 5)
        rebuilt = wire.decode_error(header)
        assert isinstance(rebuilt, DeadlineExceededError)
        assert "too late" in str(rebuilt)
        assert header["request_id"] == 5

    def test_unregistered_errors_degrade_to_the_base_class(self):
        header, _ = wire.error_frame(ValueError("exotic"))
        rebuilt = wire.decode_error(header)
        assert type(rebuilt) is ServingError
        assert "exotic" in str(rebuilt)
        unknown = wire.decode_error({"kind": "error", "error": "NoSuchError"})
        assert type(unknown) is ServingError

    def test_a_retired_error_name_decodes_to_the_base_class(self):
        # Older servers could answer "RequestSheddedError"; the name is no
        # longer registered, so the frame still decodes, as the base class.
        assert "RequestSheddedError" not in wire.WIRE_ERRORS
        rebuilt = wire.decode_error(
            {"kind": "error", "error": "RequestSheddedError", "message": "shed"}
        )
        assert type(rebuilt) is ServingError
        assert str(rebuilt) == "shed"

    def test_clean_eof_reads_none(self):
        assert read_one() is None

    def test_mid_frame_eof_is_a_framing_error(self):
        frame = wire.encode_frame(*wire.bye_frame())
        with pytest.raises(WireProtocolError):
            read_one(frame[: len(frame) - 1])
        with pytest.raises(WireProtocolError):
            read_one(frame[:3])  # mid-prefix

    def test_oversized_lengths_are_framing_errors(self):
        import struct

        huge_header = struct.pack(
            ">BII", wire.CODEC_JSON, wire.MAX_HEADER_BYTES + 1, 0
        )
        with pytest.raises(WireProtocolError):
            read_one(huge_header)
        huge_payload = struct.pack(
            ">BII", wire.CODEC_JSON, 2, wire.MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(WireProtocolError):
            read_one(huge_payload + b"{}")

    def test_garbage_codec_and_non_mapping_headers_are_framing_errors(self):
        import struct

        body = b"[1,2]"
        frame = struct.pack(">BII", wire.CODEC_JSON, len(body), 0) + body
        with pytest.raises(WireProtocolError):
            read_one(frame)
        for codec in (1, 200):  # JSON (0) is the only header codec
            frame = struct.pack(">BII", codec, 2, 0) + b"{}"
            with pytest.raises(WireProtocolError, match="codec"):
                read_one(frame)

    def test_payload_shape_mismatch_is_a_framing_error(self):
        header, payload = wire.predict_frame(1, 1, features(2))
        header["shape"] = [3, N_FEATURES]
        with pytest.raises(WireProtocolError):
            wire.decode_predict(header, payload)

    def test_request_level_validation_is_invalid_request(self):
        header, payload = wire.predict_frame(1, 1, features(2), deadline_ms=5.0)
        header["deadline_ms"] = -1.0
        with pytest.raises(InvalidRequestError):
            wire.decode_predict(header, payload)
        header, payload = wire.predict_frame(1, 1, features(2))
        header["shape"] = [2]
        with pytest.raises(WireProtocolError, match="malformed|matrix"):
            try:
                wire.decode_predict(header, payload)
            except InvalidRequestError as exc:
                raise WireProtocolError(f"matrix: {exc}")


# ---------------------------------------------------------------------- #
class TestDoneCallbacks:
    """``add_done_callback`` after completion fires immediately, exactly once."""

    def test_callback_after_completion_fires_immediately_once(self):
        client = make_client(executor="serial")
        try:
            pending = client.submit(
                PredictRequest(user_id=1, features=features(), arrival_seconds=0.0)
            )
            client.drain()
            assert pending.done()
            calls = []
            pending.add_done_callback(calls.append)
            assert calls == [pending]
            pending.add_done_callback(calls.append)  # one fire per registration
            assert calls == [pending, pending]
        finally:
            client.close()

    def test_callback_before_completion_fires_once_at_finish(self):
        client = make_client(executor="serial")
        try:
            pending = client.submit(
                PredictRequest(user_id=1, features=features(), arrival_seconds=0.0)
            )
            calls = []
            pending.add_done_callback(calls.append)
            assert calls == []
            client.drain()
            assert calls == [pending]
            client.drain()  # further drains never re-fire
            assert calls == [pending]
        finally:
            client.close()

    def test_rejected_result_callback_fires_inline(self):
        client = make_client(executor="serial")
        try:
            client.submit(
                PredictRequest(user_id=1, features=features(), arrival_seconds=0.0)
            )
            client.drain()
            backlog = client.clock_now()
            assert backlog > 0.0
            rejected = client.submit(
                PredictRequest(
                    user_id=2,
                    features=features(),
                    arrival_seconds=0.0,
                    deadline_seconds=backlog / 2,
                )
            )
            assert rejected.done()
            assert isinstance(rejected.exception(), DeadlineExceededError)
            calls = []
            rejected.add_done_callback(calls.append)
            assert calls == [rejected]
            with pytest.raises(DeadlineExceededError):
                rejected.result()
            assert client.report().total_rejected == 1
        finally:
            client.close()


# ---------------------------------------------------------------------- #
class TestCloseSemantics:
    def test_submit_after_close_raises_typed(self):
        client = make_client(executor="serial")
        client.close()
        with pytest.raises(ClientClosedError):
            client.submit(
                PredictRequest(user_id=1, features=features(), arrival_seconds=0.0)
            )

    def test_close_is_idempotent(self):
        client = make_client(executor="serial")
        client.close()
        client.close()
        with pytest.raises(ClientClosedError):
            client.submit(
                PredictRequest(user_id=1, features=features(), arrival_seconds=0.0)
            )

    def test_close_fails_pending_futures_typed(self):
        client = make_client(executor="serial")
        pendings = client.submit_many(
            [
                PredictRequest(
                    user_id=i, features=features(seed=i), arrival_seconds=0.0
                )
                for i in range(3)
            ]
        )
        assert all(not pending.done() for pending in pendings)
        client.close()
        for pending in pendings:
            assert pending.done()
            assert isinstance(pending.exception(), ClientClosedError)
            with pytest.raises(ClientClosedError):
                pending.result()
        assert client.report().total_failed == 3


# ---------------------------------------------------------------------- #
class TestReportExport:
    def _served_report(self):
        client = make_client(executor="serial")
        try:
            client.submit_many(
                [
                    PredictRequest(
                        user_id=i, features=features(seed=i), arrival_seconds=0.0
                    )
                    for i in range(4)
                ]
            )
            client.drain()
            return client.report(), client.sync_stats()
        finally:
            client.close()

    def test_to_dict_is_json_serialisable(self):
        report, _ = self._served_report()
        data = report.to_dict(slo_target_seconds=1.0)
        assert json.loads(json.dumps(data)) == data
        assert data["total_requests"] == 4
        assert data["slo_target_seconds"] == 1.0
        assert 0.0 <= data["slo_attainment"] <= 1.0
        assert set(data["deadline_breakdown"]) == {
            "served", "missed", "expired", "failed"
        }

    def test_sync_stats_travel_when_provided(self):
        report, sync_stats = self._served_report()
        assert sync_stats is None  # serial executor ships nothing
        data = report.to_dict(sync_stats={"bytes_shipped": 10, "full_syncs": 1})
        assert data["sync_stats"] == {"bytes_shipped": 10, "full_syncs": 1}
        assert "sync_stats" not in report.to_dict()

    def test_round_trip_preserves_counters(self):
        report, _ = self._served_report()
        rebuilt = RoutingReport.from_dict(report.to_dict())
        assert rebuilt.total_requests == report.total_requests
        assert rebuilt.total_windows == report.total_windows
        assert rebuilt.clock == report.clock
        assert sorted(rebuilt.per_device) == sorted(report.per_device)
        for device_id, stats in report.per_device.items():
            assert rebuilt.per_device[device_id].requests == stats.requests
            assert rebuilt.per_device[device_id].windows == stats.windows

    def test_device_stats_dict_uses_native_scalars(self):
        report, _ = self._served_report()
        payload = json.dumps(
            {str(k): v.to_dict() for k, v in report.per_device.items()}
        )
        rebuilt = {
            int(k): DeviceStats.from_dict(v)
            for k, v in json.loads(payload).items()
        }
        assert rebuilt.keys() == report.per_device.keys()


# ---------------------------------------------------------------------- #
class TestAsyncBridge:
    def test_round_trip_and_drain(self):
        async def scenario():
            bridge = AsyncServingClient(make_client(executor="serial"))
            try:
                futures = [
                    bridge.submit_spec(
                        RequestSpec(i, features(seed=i), request_id=i)
                    )
                    for i in range(5)
                ]
                responses = await asyncio.gather(*futures)
                await bridge.drain()
                assert bridge.inflight == 0
                return responses
            finally:
                await bridge.aclose()

        responses = asyncio.run(scenario())
        assert len(responses) == 5
        for i, response in enumerate(responses):
            assert response.user_id == i
            assert response.class_ids.shape == (2,)

    def test_per_request_failure_does_not_poison_the_batch(self):
        async def scenario():
            bridge = AsyncServingClient(make_client(executor="serial"))
            try:
                good = bridge.submit_spec(RequestSpec(1, features(seed=1)))
                bad = bridge.submit_spec(
                    RequestSpec(2, np.empty((0, N_FEATURES), dtype=np.float32))
                )
                response = await good
                with pytest.raises(ServingError):
                    await bad
                return response
            finally:
                await bridge.aclose()

        assert asyncio.run(scenario()).user_id == 1

    def test_submit_after_aclose_raises_typed(self):
        async def scenario():
            bridge = AsyncServingClient(make_client(executor="serial"))
            await bridge.aclose()
            await bridge.aclose()  # idempotent
            with pytest.raises(ClientClosedError):
                bridge.submit_spec(RequestSpec(1, features()))

        asyncio.run(scenario())

    def test_report_dict_exports_through_the_bridge(self):
        async def scenario():
            bridge = AsyncServingClient(make_client(executor="serial"))
            try:
                await bridge.submit_spec(RequestSpec(1, features()))
                return await bridge.report_dict(slo_target_seconds=1.0)
            finally:
                await bridge.aclose()

        data = asyncio.run(scenario())
        assert data["total_requests"] == 1
        assert "slo_attainment" in data


# ---------------------------------------------------------------------- #
class TestServingServer:
    def _run(self, scenario, **serve_options):
        async def wrapped():
            server = ServingServer(
                make_client(**serve_options), slo_target_ms=1000.0
            )
            host, port = await server.start()
            try:
                return await scenario(server, host, port)
            finally:
                await server.stop(grace_seconds=0.5)

        return asyncio.run(wrapped())

    def test_predict_round_trip_over_the_socket(self):
        async def scenario(server, host, port):
            async with await AsyncConnection.open(host, port) as connection:
                response = await connection.predict(3, features(seed=3))
                assert response.user_id == 3
                assert response.class_ids.shape == (2,)
                assert response.e2e_server_ms >= 0.0
            return server.stats

        stats = self._run(scenario, executor="serial")
        assert stats.received == stats.answered + stats.failed == 1

    def test_pipelined_requests_resolve_out_of_order_safely(self):
        async def scenario(server, host, port):
            async with await AsyncConnection.open(host, port) as connection:
                responses = await asyncio.gather(
                    *(
                        connection.predict(i, features(seed=i))
                        for i in range(8)
                    )
                )
            return responses

        responses = self._run(scenario, executor="serial")
        assert [r.user_id for r in responses] == list(range(8))

    def test_one_connection_never_holds_more_than_the_window(self):
        """A connection pipelining past its in-flight window stops being
        read: the bridge never holds more than the window of its requests,
        and every request is still answered exactly once."""
        window = MAX_INFLIGHT_PER_CONNECTION
        n_requests = 3 * window
        gate = threading.Event()

        async def scenario(server, host, port):
            bridge = server.bridge
            # Park the pump inside its first drain so nothing settles until
            # the reader has hit the window.
            drain = bridge.client.drain

            def gated_drain():
                gate.wait(timeout=30.0)
                return drain()

            bridge.client.drain = gated_drain
            held, full = [], asyncio.Event()
            submit_spec = bridge.submit_spec

            def counting_submit(spec):
                future = submit_spec(spec)
                held.append(bridge.inflight)
                if bridge.inflight == window:
                    full.set()
                return future

            bridge.submit_spec = counting_submit
            async with await AsyncConnection.open(host, port) as connection:
                answers = asyncio.gather(
                    *(
                        connection.predict(i, features(seed=i))
                        for i in range(n_requests)
                    )
                )
                await asyncio.wait_for(full.wait(), timeout=30.0)
                # The reader is parked on the window: nothing past it was read.
                received_at_window = server.stats.received
                gate.set()
                responses = await answers
            return responses, held, received_at_window, server.stats

        responses, held, received_at_window, stats = self._run(
            scenario, executor="serial"
        )
        assert received_at_window == window
        assert max(held) == window and len(held) == n_requests
        assert sorted(r.request_id for r in responses) == list(range(1, n_requests + 1))
        assert [r.user_id for r in responses] == list(range(n_requests))
        assert stats.received == stats.answered == n_requests
        assert stats.failed == 0

    def test_invalid_request_comes_back_typed_without_killing_the_connection(self):
        async def scenario(server, host, port):
            async with await AsyncConnection.open(host, port) as connection:
                with pytest.raises(ServingError):
                    await connection.predict(
                        1, np.empty((0, N_FEATURES), dtype=np.float32)
                    )
                follow_up = await connection.predict(2, features(seed=2))
            return follow_up, server.stats

        follow_up, stats = self._run(scenario, executor="serial")
        assert follow_up.user_id == 2
        assert stats.received == stats.answered + stats.failed == 2
        assert stats.failed == 1

    def test_missed_deadline_answers_with_the_miss_flag(self):
        async def scenario(server, host, port):
            async with await AsyncConnection.open(host, port) as connection:
                return await connection.predict(
                    1, features(), deadline_ms=1e-3
                )

        response = self._run(scenario, executor="serial")
        assert response.deadline_missed is True

    def test_stats_endpoint_shares_the_report_export(self):
        async def scenario(server, host, port):
            async with await AsyncConnection.open(host, port) as connection:
                await connection.predict(1, features())
                return await connection.stats()

        stats = self._run(scenario, executor="serial")
        assert stats["report"]["total_requests"] == 1
        assert stats["server"]["received"] == 1
        assert stats["server"]["slo_target_ms"] == 1000.0
        assert 0.0 <= stats["server"]["slo_attainment"] <= 1.0

    @pytest.mark.parametrize("adaptive", [True, False])
    def test_stats_endpoint_carries_the_control_plane_when_attached(self, adaptive):
        async def scenario(server, host, port):
            async with await AsyncConnection.open(host, port) as connection:
                await connection.predict(1, features())
                return await connection.stats()

        stats = self._run(scenario, executor="serial", adaptive=adaptive)
        if not adaptive:
            assert "control" not in stats
            return
        assert set(stats["control"]) == {"window", "ticks", "hedging"}
        assert stats["control"]["ticks"] == 1
        assert stats["control"]["hedging"]["fired"] == 0

    def test_unknown_frame_kind_is_answered_typed(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            await wire.write_frame(writer, {"kind": "nope", "request_id": 5})
            frame = await wire.read_frame(reader)
            writer.close()
            await writer.wait_closed()
            return frame

        header, _ = self._run(scenario, executor="serial")
        assert header["kind"] == "error"
        assert isinstance(wire.decode_error(header), WireProtocolError)
        assert header["request_id"] == 5

    def test_framing_violation_closes_the_connection(self):
        async def scenario(server, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"\xff" * 64)
            await writer.drain()
            raw = await reader.read()  # error frame (best effort) then EOF
            writer.close()
            await writer.wait_closed()
            return raw

        raw = self._run(scenario, executor="serial")
        if raw:
            header, _ = read_one(raw)
            assert isinstance(wire.decode_error(header), WireProtocolError)

    def test_stopped_server_rejects_new_connections(self):
        async def scenario():
            server = ServingServer(make_client(executor="serial"))
            host, port = await server.start()
            await server.stop(grace_seconds=0.1)
            await server.stop(grace_seconds=0.1)  # idempotent
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_connection(host, port)

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
class TestGracefulShutdown:
    """Property: mid-stream shutdown settles every request exactly once."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_request_answered_or_failed_typed_exactly_once(self, seed):
        spec = WorkloadSpec(
            pattern="zipf", n_users=32, requests_per_tick=96, n_ticks=1,
            windows_per_request=2,
        )
        pool = (
            np.random.default_rng(seed)
            .normal(size=(256, N_FEATURES))
            .astype(np.float32)
        )
        requests = TrafficGenerator(pool, spec, seed=seed).requests()

        async def scenario():
            server = ServingServer(make_client(executor="thread", workers=2))
            host, port = await server.start()
            load_task = asyncio.get_running_loop().create_task(
                run_load(
                    host, port, requests,
                    connections=3, window=8, fetch_server_stats=False,
                )
            )
            while server.stats.received < 12:
                await asyncio.sleep(0.001)
            await server.stop(grace_seconds=0.05)
            return await load_task, server.stats

        report, stats = asyncio.run(scenario())
        # Client side: one outcome per sent request, all failures typed.
        assert report.sent == report.answered + report.failed
        assert set(report.failed_by_type) <= set(wire.WIRE_ERRORS)
        # Server side: everything received settled exactly once.
        assert stats.received == stats.answered + stats.failed
        assert stats.received >= 12
        assert set(stats.failed_by_type) <= set(wire.WIRE_ERRORS)


# ---------------------------------------------------------------------- #
class TestLoadReport:
    def test_exactly_once_accounting_and_json_export(self):
        async def scenario():
            server = ServingServer(
                make_client(executor="serial"), slo_target_ms=1000.0
            )
            host, port = await server.start()
            try:
                requests = [
                    PredictRequest(
                        user_id=i, features=features(seed=i), arrival_seconds=0.0
                    )
                    for i in range(10)
                ]
                return await run_load(
                    host, port, requests,
                    connections=2, window=4, slo_target_ms=1000.0,
                )
            finally:
                await server.stop(grace_seconds=0.5)

        report = asyncio.run(scenario())
        assert report.sent == 10
        assert report.answered + report.failed == 10
        assert report.windows_answered == 2 * report.answered
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["sent"] == 10
        assert 0.0 <= data["slo_attainment"] <= 1.0
        assert data["server_stats"]["server"]["received"] == 10
        assert "e2e p50 / p99" in report.to_text()

    def test_invalid_shape_rejected_typed(self):
        async def scenario():
            with pytest.raises(ServingError):
                await run_load("127.0.0.1", 1, [], connections=0, window=4)

        asyncio.run(scenario())


# ---------------------------------------------------------------------- #
class TestServerStatsUnit:
    def test_slo_attainment_weights_failures(self):
        stats = ServerStats()

        class _Response:
            class request:
                deadline_seconds = None

            deadline_missed = False

        stats.received = 4
        for e2e in (0.01, 0.02, 0.5):
            stats.record_answer(_Response(), e2e)
        stats.record_failure(DeadlineExceededError("late"))
        assert stats.failed == 1
        assert stats.slo_attainment(0.1) == pytest.approx(2 / 4)
        assert stats.to_dict()["failed_by_type"] == {"DeadlineExceededError": 1}

    def test_empty_stats_attain_trivially(self):
        stats = ServerStats()
        assert stats.slo_attainment(0.1) == 1.0
        assert stats.e2e_percentile(99.0) == 0.0


# ---------------------------------------------------------------------- #
class TestCli:
    def test_parser_accepts_the_network_subcommands(self):
        parser = build_parser()
        arguments = parser.parse_args(
            ["serve-net", "--port", "0", "--duration", "0.5"]
        )
        assert arguments.experiment == "serve-net"
        arguments = parser.parse_args(
            ["bench-client", "--requests", "16", "--pattern", "uniform"]
        )
        assert arguments.connections is None
        assert arguments.pattern == "uniform"

    def test_serve_net_rejects_client_shaping_flags(self):
        with pytest.raises(SystemExit):
            main(["serve-net", "--window", "4"])
        with pytest.raises(SystemExit):
            main(["serve-net", "--requests", "16"])

    def test_bench_client_rejects_duration_and_external_fleet_flags(self):
        with pytest.raises(SystemExit):
            main(["bench-client", "--duration", "1"])
        with pytest.raises(SystemExit):
            main(["bench-client", "--port", "9", "--devices", "3"])

    def test_workers_needs_a_concurrent_executor(self):
        with pytest.raises(SystemExit):
            main(["serve-net", "--executor", "serial", "--workers", "2"])
