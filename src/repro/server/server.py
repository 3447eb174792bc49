"""Asyncio socket server fronting a :class:`~repro.serving.ServingClient`.

The network half of the front door: an ``asyncio.start_server`` listener
speaking the length-prefixed frame protocol of :mod:`repro.server.wire`,
bridged to the serving stack through
:class:`~repro.server.bridge.AsyncServingClient`.  Design points:

* **streaming ingestion** — each connection's reader task decodes frames
  as they arrive and spawns one answer task per predict, so a client can
  pipeline an arbitrary number of requests over one socket;
* **per-client backpressure** — a bounded in-flight window (semaphore) per
  connection stops the reader when the client has too many unanswered
  requests, pushing back through TCP on *that* socket only; responses go
  through a bounded per-connection outbox drained by a dedicated writer
  task, so one slow reader never stalls other connections (its answer
  tasks block on its own outbox while everyone else's flow);
* **typed errors** — every failure a request can hit (malformed frame
  fields, admission rejection, queue expiry, worker death, shutdown) is
  mapped to a :class:`~repro.exceptions.ServingError` subclass and sent
  back as an error frame carrying the class name; framing violations
  close the connection after a best-effort error frame (the byte stream
  is no longer frame-aligned);
* **graceful shutdown** — :meth:`ServingServer.stop` stops accepting,
  cancels the readers, gives in-flight futures a grace period to complete,
  fails stragglers with :class:`~repro.exceptions.DeadlineExceededError`,
  flushes every connection's outbox, and closes the bridge; each received
  request is answered or failed typed **exactly once**
  (``ServerStats.received == answered + failed``).
"""

from __future__ import annotations

import asyncio
from collections import Counter
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.exceptions import (
    ClientClosedError,
    DeadlineExceededError,
    ServingError,
    WireProtocolError,
)
from repro.serving.client import ServingClient
from repro.server.bridge import AsyncServingClient, RequestSpec
from repro.server import wire
from repro.utils.logging import get_logger

__all__ = ["ServingServer", "ServerStats"]

logger = get_logger("server")

#: Server-side end-to-end latency samples kept for percentile views.
_E2E_HISTORY_CAP = 100_000


class ServerStats:
    """End-to-end accounting of every predict frame the server received.

    The wire-level complement to the scheduler's
    :class:`~repro.serving.report.RoutingReport`: latencies here are measured
    from frame receipt to answer enqueue on the event loop's wall clock, so
    they include bridging, queueing and execution.  The exactly-once
    invariant the shutdown tests gate is ``received == answered + failed``.
    """

    __slots__ = (
        "received", "answered", "failed_by_type", "deadline_carried",
        "deadline_missed", "e2e_seconds", "connections_total",
    )

    def __init__(self) -> None:
        self.received = 0
        self.answered = 0
        self.failed_by_type: Counter = Counter()
        self.deadline_carried = 0
        self.deadline_missed = 0
        self.e2e_seconds: List[float] = []
        self.connections_total = 0

    @property
    def failed(self) -> int:
        return sum(self.failed_by_type.values())

    def record_answer(self, response, e2e_seconds: float) -> None:
        self.answered += 1
        self.e2e_seconds.append(e2e_seconds)
        if len(self.e2e_seconds) > 2 * _E2E_HISTORY_CAP:
            del self.e2e_seconds[: len(self.e2e_seconds) - _E2E_HISTORY_CAP]
        deadline = getattr(response.request, "deadline_seconds", None)
        if deadline is not None:
            self.deadline_carried += 1
            if response.deadline_missed:
                self.deadline_missed += 1

    def record_failure(self, error: BaseException) -> None:
        self.failed_by_type[type(error).__name__] += 1

    def e2e_percentile(self, quantile: float) -> float:
        if not self.e2e_seconds:
            return 0.0
        import numpy as np

        return float(np.percentile(np.asarray(self.e2e_seconds), quantile))

    def slo_attainment(self, target_seconds: float) -> float:
        """Fraction of received requests answered within ``target_seconds``.

        Failed requests count against it; ``1.0`` when nothing arrived.
        The sample window is bounded like the scheduler's, weighted by the
        all-time counters the same way ``RoutingReport.slo_attainment`` is.
        """
        resolved = self.answered + self.failed
        if resolved == 0:
            return 1.0
        if not self.e2e_seconds:
            return 0.0
        within = sum(1 for sample in self.e2e_seconds if sample <= target_seconds)
        answered_within = within / len(self.e2e_seconds) * self.answered
        return answered_within / resolved

    def to_dict(self) -> Dict[str, Any]:
        return {
            "received": self.received,
            "answered": self.answered,
            "failed": self.failed,
            "failed_by_type": dict(self.failed_by_type),
            "deadline_carried": self.deadline_carried,
            "deadline_missed": self.deadline_missed,
            "e2e_p50_ms": self.e2e_percentile(50.0) * 1e3,
            "e2e_p99_ms": self.e2e_percentile(99.0) * 1e3,
            "connections_total": self.connections_total,
        }


class _Connection:
    """One client socket: reader, bounded in-flight window, writer task."""

    def __init__(
        self,
        server: "ServingServer",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        max_inflight: int,
        outbox_frames: int = 128,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.window = asyncio.Semaphore(max_inflight)
        self.outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(
            maxsize=outbox_frames
        )
        self.answer_tasks: Set[asyncio.Task] = set()
        self.inflight_futures: Set[asyncio.Future] = set()
        self.reader_task: Optional[asyncio.Task] = None
        self.broken = False
        self.writer_task = asyncio.get_running_loop().create_task(
            self._write_loop()
        )

    # -- outbound ------------------------------------------------------- #
    async def send(self, header: Dict[str, Any], payload: bytes = b"") -> None:
        """Queue one frame on this connection's outbox (bounded)."""
        if self.broken:
            return
        await self.outbox.put(wire.encode_frame(header, payload))

    async def _write_loop(self) -> None:
        """Drain the outbox to the socket; a dead peer flips ``broken``.

        Keeps consuming after a write failure so queued ``send`` calls
        never deadlock on a full outbox to a gone peer.
        """
        while True:
            frame = await self.outbox.get()
            if frame is None:
                return
            if self.broken:
                continue
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, OSError, RuntimeError):
                self.broken = True

    # -- inbound -------------------------------------------------------- #
    async def run(self) -> None:
        """Read frames until EOF/``bye``/framing failure."""
        loop = asyncio.get_running_loop()
        while True:
            try:
                frame = await wire.read_frame(self.reader)
            except WireProtocolError as exc:
                await self.send(*wire.error_frame(exc))
                return
            if frame is None:
                return
            header, payload = frame
            kind = header.get("kind")
            if kind == "predict":
                await self.window.acquire()
                self.server.stats.received += 1
                task = loop.create_task(self._answer(header, payload))
                self.answer_tasks.add(task)
                task.add_done_callback(self.answer_tasks.discard)
            elif kind == "stats":
                task = loop.create_task(self._answer_stats(header))
                self.answer_tasks.add(task)
                task.add_done_callback(self.answer_tasks.discard)
            elif kind == "bye":
                return
            else:
                await self.send(
                    *wire.error_frame(
                        WireProtocolError(f"unknown frame kind {kind!r}"),
                        header.get("request_id"),
                    )
                )

    async def _answer(self, header: Dict[str, Any], payload: bytes) -> None:
        """Resolve one predict frame: exactly one response or error frame."""
        loop = asyncio.get_running_loop()
        start = loop.time()
        request_id = header.get("request_id")
        stats = self.server.stats
        future: Optional[asyncio.Future] = None
        try:
            request_id, user_id, features, deadline_ms, metadata = (
                wire.decode_predict(header, payload)
            )
            if self.server.closing:
                raise ClientClosedError("server is shutting down")
            spec = RequestSpec(
                user_id,
                features,
                relative_deadline_seconds=(
                    deadline_ms / 1e3 if deadline_ms is not None else None
                ),
                metadata=metadata,
                request_id=request_id,
            )
            future = self.server.bridge.submit_spec(spec)
            self.inflight_futures.add(future)
            response = await future
        except asyncio.CancelledError:
            # Shutdown cancelled this answer task outright; still settle
            # the frame exactly once before propagating.
            stats.record_failure(DeadlineExceededError("server shutting down"))
            await asyncio.shield(
                self.send(
                    *wire.error_frame(
                        DeadlineExceededError(
                            "server shut down before the request completed"
                        ),
                        request_id,
                    )
                )
            )
            raise
        except ServingError as exc:
            stats.record_failure(exc)
            await self.send(*wire.error_frame(exc, request_id))
        except Exception as exc:  # defensive: nothing may escape unanswered
            logger.exception("unexpected failure answering request %s", request_id)
            stats.record_failure(exc)
            await self.send(*wire.error_frame(ServingError(str(exc)), request_id))
        else:
            e2e = loop.time() - start
            stats.record_answer(response, e2e)
            await self.send(
                *wire.response_frame(
                    request_id if request_id is not None else -1,
                    response.user_id,
                    response.class_ids,
                    device_id=response.device_id,
                    latency_ms=response.latency_seconds * 1e3,
                    e2e_ms=e2e * 1e3,
                    deadline_missed=response.deadline_missed,
                )
            )
        finally:
            if future is not None:
                self.inflight_futures.discard(future)
            self.window.release()

    async def _answer_stats(self, header: Dict[str, Any]) -> None:
        request_id = int(header.get("request_id", -1))
        stats = await self.server.stats_dict()
        await self.send(*wire.stats_reply_frame(request_id, stats))

    # -- teardown ------------------------------------------------------- #
    async def finish(self) -> None:
        """Flush and close: answers complete, outbox drains, socket closes.

        Cancellation-safe: ``stop()`` cancels reader tasks, and when the
        reader already left ``run()`` on its own (the peer closed first)
        the cancel lands *here*, mid-flush.  At that point the flush is as
        complete as the grace period allows — swallow the cancel, stop the
        writer, and still close the socket.
        """
        try:
            if self.answer_tasks:
                await asyncio.gather(
                    *list(self.answer_tasks), return_exceptions=True
                )
            await self.outbox.put(None)
            await self.writer_task
        except asyncio.CancelledError:
            self.broken = True
            self.writer_task.cancel()
        try:
            self.writer.close()
            await self.writer.wait_closed()
        except (ConnectionError, OSError, RuntimeError, asyncio.CancelledError):
            pass


class ServingServer:
    """The asyncio network front door over a serving client.

    Parameters
    ----------
    client:
        The :class:`~repro.serving.ServingClient` answering the traffic —
        anything :func:`repro.serving.serve` can build, from a bare learner
        to a pooled million-device :class:`~repro.fleet.FleetCoordinator`.  The
        server owns it from :meth:`start` on and closes it in :meth:`stop`.
    host / port:
        Listen address; port ``0`` picks a free port (see :attr:`address`
        after :meth:`start`).
    max_inflight_per_connection:
        Per-client backpressure window: a connection with this many
        unanswered predicts stops being read until answers flow.
    slo_target_ms:
        Optional end-to-end latency target reported by the stats endpoint.
    """

    def __init__(
        self,
        client: ServingClient,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight_per_connection: int = 64,
        slo_target_ms: Optional[float] = None,
    ) -> None:
        if max_inflight_per_connection <= 0:
            raise ServingError(
                "max_inflight_per_connection must be positive, got "
                f"{max_inflight_per_connection}"
            )
        self._client = client
        self._host = host
        self._port = port
        self._max_inflight = max_inflight_per_connection
        self.slo_target_ms = slo_target_ms
        self.stats = ServerStats()
        self.closing = False
        self.bridge: Optional[AsyncServingClient] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self.address: Optional[Tuple[str, int]] = None

    # ------------------------------------------------------------------ #
    async def start(self) -> Tuple[str, int]:
        """Bind the listener and the bridge; returns ``(host, port)``."""
        if self._server is not None:
            raise ServingError("the server is already started")
        self.bridge = AsyncServingClient(self._client)
        self._server = await asyncio.start_server(
            self._on_connection, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        logger.info("serving on %s:%d", *self.address)
        return self.address

    async def __aenter__(self) -> "ServingServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    async def stats_dict(self) -> Dict[str, Any]:
        """The shared JSON export: scheduler report + wire-level counters."""
        assert self.bridge is not None
        report = await self.bridge.report_dict(
            slo_target_seconds=(
                self.slo_target_ms / 1e3 if self.slo_target_ms is not None else None
            )
        )
        data = {"report": report, "server": self.stats.to_dict()}
        control = await self.bridge.control_stats()
        if control is not None:
            data["control"] = control
        if self.slo_target_ms is not None:
            data["server"]["slo_target_ms"] = self.slo_target_ms
            data["server"]["slo_attainment"] = self.stats.slo_attainment(
                self.slo_target_ms / 1e3
            )
        return data

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self.closing:
            writer.close()
            return
        from repro.server.client import _disable_nagle

        _disable_nagle(writer)
        connection = _Connection(
            self, reader, writer, max_inflight=self._max_inflight
        )
        connection.reader_task = asyncio.current_task()
        self._connections.add(connection)
        self.stats.connections_total += 1
        try:
            await connection.run()
        except asyncio.CancelledError:
            pass  # graceful stop cancels readers; teardown still flushes
        except (ConnectionError, OSError):
            connection.broken = True
        finally:
            await connection.finish()
            self._connections.discard(connection)

    # ------------------------------------------------------------------ #
    async def stop(self, grace_seconds: float = 1.0) -> None:
        """Graceful shutdown: drain in-flight, fail stragglers typed.

        Ordering: stop accepting → stop reading (no new requests) → give
        requests already handed to the scheduler ``grace_seconds`` to
        complete → fail still-pending futures with
        :class:`~repro.exceptions.DeadlineExceededError` (their answer
        tasks flush the typed error frames) → flush and close every
        connection → close the bridge and the serving client.  Every
        received request settles exactly once.
        """
        if self._server is None or self.closing:
            return
        self.closing = True
        self._server.close()
        await self._server.wait_closed()
        connections = list(self._connections)
        for connection in connections:
            if connection.reader_task is not None:
                connection.reader_task.cancel()
        pending = [
            future
            for connection in connections
            for future in list(connection.inflight_futures)
            if not future.done()
        ]
        if pending:
            await asyncio.wait(pending, timeout=grace_seconds)
            for future in pending:
                if not future.done():
                    future.set_exception(
                        DeadlineExceededError(
                            "server shut down before the request completed "
                            f"(grace period {grace_seconds:g}s elapsed)"
                        )
                    )
        # Readers were cancelled; their finally blocks flush answers and
        # close sockets.  Bound the wait so a wedged peer cannot hold
        # shutdown hostage, then force-close whatever remains.
        reader_tasks = [
            connection.reader_task
            for connection in connections
            if connection.reader_task is not None
        ]
        if reader_tasks:
            _, stuck = await asyncio.wait(
                reader_tasks, timeout=max(grace_seconds, 0.1) + 5.0
            )
            for task in stuck:  # pragma: no cover - wedged-peer fallback
                task.cancel()
        if self.bridge is not None:
            await self.bridge.aclose()
        logger.info(
            "server stopped: %d received = %d answered + %d failed",
            self.stats.received, self.stats.answered, self.stats.failed,
        )
