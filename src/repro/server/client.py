"""Network client + closed-loop load generator for the serving front door.

:class:`AsyncConnection` is the protocol client: it multiplexes any number
of in-flight requests over one socket by ``request_id``, a background read
task completing per-request ``asyncio.Future``\\ s as response/error frames
arrive (a dropped connection fails every outstanding future with
:class:`~repro.exceptions.WireProtocolError` — never silently).

:func:`run_load` is the measurement harness: a seeded *closed-loop* load
generator — ``connections`` sockets each keeping up to ``window`` requests
in flight, drawing from one shared request stream (reuse
:class:`~repro.fleet.traffic.TrafficGenerator` to shape it) — that records
one outcome per request and reports client-measured end-to-end p50/p99,
throughput and SLO attainment as a :class:`LoadReport`, sharing the
server's JSON export for the scheduler-side view.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import ServingError, WireProtocolError
from repro.utils.clock import perf_seconds
from repro.server import wire

__all__ = ["AsyncConnection", "RemoteResponse", "LoadReport", "run_load"]


def _disable_nagle(writer: asyncio.StreamWriter) -> None:
    """Frames are written whole and latency-sensitive; never batch them.

    Without this, pipelined multi-KB frames trip the classic Nagle /
    delayed-ACK interaction and each window of requests stalls for an ACK
    timeout — payload-size-dependent collapse, not steady throughput.
    """
    import socket

    sock = writer.get_extra_info("socket")
    if sock is not None:
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except (OSError, ValueError):  # e.g. unix sockets in tests
            pass


@dataclass(frozen=True)
class RemoteResponse:
    """One answered request as seen by the network client."""

    request_id: int
    user_id: int
    class_ids: np.ndarray
    device_id: int
    latency_ms: float        # scheduler-clock latency reported by the server
    e2e_server_ms: float     # server-measured receipt→answer wall time
    deadline_missed: bool


class AsyncConnection:
    """One client socket multiplexing pipelined requests by ``request_id``."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._next_id = 0
        self._waiters: Dict[int, asyncio.Future] = {}
        self._closed = False
        self._read_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def open(cls, host: str, port: int) -> "AsyncConnection":
        reader, writer = await asyncio.open_connection(host, port)
        _disable_nagle(writer)
        return cls(reader, writer)

    # ------------------------------------------------------------------ #
    def _register(self) -> "tuple[int, asyncio.Future]":
        if self._closed:
            raise WireProtocolError("connection is closed")
        self._next_id += 1
        future = asyncio.get_running_loop().create_future()
        self._waiters[self._next_id] = future
        return self._next_id, future

    async def predict(
        self,
        user_id: int,
        features: np.ndarray,
        *,
        deadline_ms: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
    ) -> RemoteResponse:
        """Send one predict frame and await its typed answer.

        Raises the server-reported :class:`~repro.exceptions.ServingError`
        subclass on failure; callers pipelining concurrent ``predict``
        calls get per-request resolution in whatever order the server
        answers.
        """
        request_id, future = self._register()
        header, payload = wire.predict_frame(
            request_id, user_id, features,
            deadline_ms=deadline_ms, metadata=metadata,
        )
        await wire.write_frame(self._writer, header, payload)
        return await future

    async def stats(self) -> Dict[str, Any]:
        """The server's stats export (scheduler report + wire counters)."""
        request_id, future = self._register()
        header, payload = wire.stats_request_frame(request_id)
        await wire.write_frame(self._writer, header, payload)
        return await future

    async def close(self) -> None:
        """Polite close: ``bye`` frame, socket teardown, read task reaped."""
        if self._closed:
            return
        self._closed = True
        try:
            await wire.write_frame(self._writer, *wire.bye_frame())
        except (ConnectionError, OSError, WireProtocolError):
            pass
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        await asyncio.gather(self._read_task, return_exceptions=True)

    async def __aenter__(self) -> "AsyncConnection":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    # ------------------------------------------------------------------ #
    async def _read_loop(self) -> None:
        error: Optional[BaseException] = None
        try:
            while True:
                frame = await wire.read_frame(self._reader)
                if frame is None:
                    break
                header, payload = frame
                kind = header.get("kind")
                request_id = header.get("request_id")
                future = self._waiters.pop(
                    int(request_id) if request_id is not None else -1, None
                )
                if future is None or future.done():
                    continue
                if kind == "response":
                    decoded = wire.decode_response(header, payload)
                    future.set_result(
                        RemoteResponse(
                            request_id=decoded["request_id"],
                            user_id=decoded["user_id"],
                            class_ids=decoded["class_ids"],
                            device_id=decoded["device_id"],
                            latency_ms=decoded["latency_ms"],
                            e2e_server_ms=decoded["e2e_ms"],
                            deadline_missed=decoded["deadline_missed"],
                        )
                    )
                elif kind == "error":
                    future.set_exception(wire.decode_error(header))
                elif kind == "stats":
                    future.set_result(dict(header.get("stats", {})))
                else:
                    future.set_exception(
                        WireProtocolError(f"unexpected frame kind {kind!r}")
                    )
        except (ConnectionError, OSError, WireProtocolError) as exc:
            error = exc
        finally:
            # Whatever ended the stream, no waiter is left hanging.
            failure = error or WireProtocolError(
                "connection closed with the request still outstanding"
            )
            for future in self._waiters.values():
                if not future.done():
                    future.set_exception(
                        failure if isinstance(failure, ServingError)
                        else WireProtocolError(str(failure))
                    )
            self._waiters.clear()


# ---------------------------------------------------------------------- #
@dataclass
class LoadReport:
    """Client-side view of one closed-loop run against the server."""

    connections: int
    window: int
    sent: int = 0
    answered: int = 0
    failed_by_type: Dict[str, int] = field(default_factory=dict)
    wall_seconds: float = 0.0
    windows_answered: int = 0
    deadline_missed: int = 0
    e2e_ms: List[float] = field(default_factory=list, repr=False)
    slo_target_ms: Optional[float] = None
    server_stats: Optional[Dict[str, Any]] = None

    @property
    def failed(self) -> int:
        return sum(self.failed_by_type.values())

    @property
    def throughput_rps(self) -> float:
        return self.answered / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def throughput_wps(self) -> float:
        """Feature windows answered per wall second (the bench currency)."""
        return (
            self.windows_answered / self.wall_seconds
            if self.wall_seconds > 0 else 0.0
        )

    def e2e_percentile(self, quantile: float) -> float:
        if not self.e2e_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.e2e_ms), quantile))

    @property
    def slo_attainment(self) -> float:
        """Fraction of sent requests answered within the end-to-end target.

        Failures count against it.  Without a target, the fraction simply
        answered at all.
        """
        if self.sent == 0:
            return 1.0
        if self.slo_target_ms is None:
            return self.answered / self.sent
        within = sum(1 for sample in self.e2e_ms if sample <= self.slo_target_ms)
        return within / self.sent

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "connections": self.connections,
            "window": self.window,
            "sent": self.sent,
            "answered": self.answered,
            "failed": self.failed,
            "failed_by_type": dict(self.failed_by_type),
            "wall_seconds": self.wall_seconds,
            "throughput_rps": self.throughput_rps,
            "throughput_wps": self.throughput_wps,
            "windows_answered": self.windows_answered,
            "deadline_missed": self.deadline_missed,
            "e2e_p50_ms": self.e2e_percentile(50.0),
            "e2e_p99_ms": self.e2e_percentile(99.0),
            "slo_target_ms": self.slo_target_ms,
            "slo_attainment": self.slo_attainment,
        }
        if self.server_stats is not None:
            data["server_stats"] = self.server_stats
        return data

    def to_text(self) -> str:
        lines = [
            "closed-loop load against the serving front door",
            "",
            f"  connections x window:   {self.connections} x {self.window}",
            f"  sent:                   {self.sent}",
            f"  answered:               {self.answered}"
            f"  ({self.throughput_rps:.0f} req/s, {self.throughput_wps:.0f} windows/s)",
            f"  failed (typed):         {self.failed}"
            + (f"  {dict(self.failed_by_type)}" if self.failed else ""),
            f"  wall:                   {self.wall_seconds:.3f} s",
            f"  e2e p50 / p99:          {self.e2e_percentile(50.0):.2f} / "
            f"{self.e2e_percentile(99.0):.2f} ms",
            f"  deadline_missed:        {self.deadline_missed}",
        ]
        if self.slo_target_ms is not None:
            lines.append(
                f"  slo_attainment:         {self.slo_attainment:.4f}"
                f"  (target {self.slo_target_ms:g} ms end-to-end)"
            )
        else:
            lines.append(f"  answered fraction:      {self.slo_attainment:.4f}")
        return "\n".join(lines)


async def run_load(
    host: str,
    port: int,
    requests: Sequence,
    *,
    connections: int = 2,
    window: int = 32,
    slo_target_ms: Optional[float] = None,
    fetch_server_stats: bool = True,
) -> LoadReport:
    """Drive the server closed-loop and account every request exactly once.

    ``requests`` is any sequence of request-shaped objects (``user_id``,
    ``features``, optional ``deadline_seconds`` relative to
    ``arrival_seconds`` — :class:`~repro.fleet.traffic.TrafficGenerator`
    streams work as-is; their simulated arrival offsets are ignored, only
    the *relative* deadline travels).  Each of the ``connections`` sockets
    keeps at most ``window`` requests in flight and immediately replaces
    each answered one — classic closed-loop load.  Every request ends in
    exactly one bucket: ``answered`` or ``failed_by_type[error]``
    (connection loss counts as ``WireProtocolError``), so
    ``sent == answered + failed`` always holds.
    """
    if connections <= 0 or window <= 0:
        raise ServingError(
            f"connections and window must be positive, got "
            f"{connections} and {window}"
        )
    report = LoadReport(connections=connections, window=window)
    stream = iter(requests)

    async def one(connection: AsyncConnection, request) -> None:
        deadline = request.deadline_seconds
        deadline_ms = (
            (deadline - request.arrival_seconds) * 1e3
            if deadline is not None else None
        )
        loop = asyncio.get_running_loop()
        start = loop.time()
        try:
            response = await connection.predict(
                request.user_id, request.features, deadline_ms=deadline_ms
            )
        except ServingError as exc:
            name = type(exc).__name__
            report.failed_by_type[name] = report.failed_by_type.get(name, 0) + 1
        except (ConnectionError, OSError):
            # Raised from the socket write itself (the read loop maps its
            # own failures to typed errors already): same bucket.
            name = WireProtocolError.__name__
            report.failed_by_type[name] = report.failed_by_type.get(name, 0) + 1
        else:
            report.answered += 1
            report.windows_answered += int(response.class_ids.shape[0])
            report.e2e_ms.append((loop.time() - start) * 1e3)
            if response.deadline_missed:
                report.deadline_missed += 1

    async def worker(connection: AsyncConnection) -> None:
        # Closed loop: at most `window` outstanding on this socket; each
        # completion immediately admits the next request from the shared
        # stream (single-threaded loop, so plain next() is race-free).
        gate = asyncio.Semaphore(window)
        pending: set = set()

        async def guarded(request) -> None:
            try:
                await one(connection, request)
            finally:
                gate.release()

        loop = asyncio.get_running_loop()
        for request in stream:
            await gate.acquire()
            report.sent += 1
            task = loop.create_task(guarded(request))
            pending.add(task)
            task.add_done_callback(pending.discard)
        if pending:
            await asyncio.gather(*list(pending), return_exceptions=True)

    sockets = [await AsyncConnection.open(host, port) for _ in range(connections)]
    start = perf_seconds()
    try:
        await asyncio.gather(*(worker(connection) for connection in sockets))
        report.wall_seconds = perf_seconds() - start
        if fetch_server_stats:
            try:
                report.server_stats = await sockets[0].stats()
            except ServingError:
                report.server_stats = None  # server gone mid-shutdown
    finally:
        for connection in sockets:
            await connection.close()
    report.slo_target_ms = slo_target_ms
    return report
