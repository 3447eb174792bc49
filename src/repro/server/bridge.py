"""Asyncio bridge over the synchronous :class:`~repro.serving.ServingClient`.

The serving stack is completion-callback based all the way down —
:class:`~repro.serving.PendingResult` fires ``add_done_callback`` the moment
its batch finishes, including from the process executor's IPC result queue —
but its ``submit``/``drain`` surface is synchronous and the scheduler is not
thread-safe.  :class:`AsyncServingClient` turns that surface into native
``asyncio`` futures without polling and without a thread per request:

* every scheduler touch (materialising requests, ``submit_many``,
  ``drain``, ``report``, ``close``) runs on **one** dedicated pump thread,
  so the event loop never blocks on engine compute and the scheduler never
  sees two threads;
* ``submit()`` (loop side) buffers the request and returns an
  ``asyncio.Future`` immediately; the pump coroutine ships the buffer to
  the pump thread in batches, so co-arriving network requests coalesce
  into the same engine batches an in-process caller would get;
* completion crosses back via ``PendingResult.add_done_callback`` →
  ``loop.call_soon_threadsafe`` — results land on the loop as they finish,
  event-driven end to end;
* ``drain()`` is an awaitable that resolves when every in-flight request
  has settled (the pump keeps pumping; nothing busy-waits).

Wire requests arrive with *relative* deadlines and no meaningful arrival
time, so the bridge ships :class:`RequestSpec`\\ s and stamps both on the
pump thread from the scheduler's own clock
(:meth:`~repro.serving.EventLoopScheduler.clock_now`): all requests of one
pump batch share an arrival, keeping the scheduler's coalescing and
latency accounting exactly as an in-process stream would.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ClientClosedError
from repro.serving.client import ServingClient
from repro.serving.protocol import PredictRequest, PredictResponse

__all__ = ["AsyncServingClient", "RequestSpec"]


class RequestSpec:
    """A not-yet-stamped request: everything but the scheduler-clock times.

    Network callers know *relative* deadlines ("answer within 50 ms"), not
    the scheduler clock; the bridge materialises the absolute
    :class:`~repro.serving.PredictRequest` on the pump thread, stamping
    ``arrival_seconds`` from the scheduler's current clock and the deadline
    relative to it.
    """

    __slots__ = (
        "user_id", "features", "relative_deadline_seconds", "metadata",
        "request_id",
    )

    def __init__(
        self,
        user_id: int,
        features: np.ndarray,
        *,
        relative_deadline_seconds: Optional[float] = None,
        metadata: Optional[Dict[str, Any]] = None,
        request_id: Optional[int] = None,
    ) -> None:
        self.user_id = user_id
        self.features = features
        self.relative_deadline_seconds = relative_deadline_seconds
        self.metadata = metadata
        self.request_id = request_id

    def materialize(self, arrival_seconds: float) -> PredictRequest:
        """The absolute request, stamped at ``arrival_seconds``.

        Raises :class:`~repro.exceptions.InvalidRequestError` (from the
        request's own validation) on malformed payloads — the bridge fails
        just this spec's future, not the whole pump batch.
        """
        deadline = (
            arrival_seconds + self.relative_deadline_seconds
            if self.relative_deadline_seconds is not None
            else None
        )
        return PredictRequest(
            user_id=self.user_id,
            features=self.features,
            arrival_seconds=arrival_seconds,
            deadline_seconds=deadline,
            metadata=self.metadata,
            request_id=self.request_id,
        )


class _Entry:
    """One submitted item and its loop-side future, settled exactly once."""

    __slots__ = ("item", "future", "settled")

    def __init__(self, item, future: "asyncio.Future") -> None:
        self.item = item
        self.future = future
        self.settled = False


class AsyncServingClient:
    """Event-driven asyncio facade over a :class:`ServingClient`.

    Must be constructed on a running event loop.  ``submit`` /
    ``submit_spec`` return ``asyncio.Future``\\ s resolved with
    :class:`~repro.serving.PredictResponse` (or the request's typed
    :class:`~repro.exceptions.ServingError`); ``await drain()`` waits for
    quiescence; ``await aclose()`` stops the pump and closes the wrapped
    client, which fails any straggling futures with
    :class:`~repro.exceptions.ClientClosedError` rather than dropping them.
    """

    def __init__(
        self,
        client: ServingClient,
        *,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        self._client = client
        self._loop = loop or asyncio.get_running_loop()
        self._thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serving-pump"
        )
        self._buffer: List[_Entry] = []
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._inflight = 0
        self._closed = False
        self._pump_task: asyncio.Task = self._loop.create_task(self._pump())

    # -- loop side ------------------------------------------------------ #
    @property
    def client(self) -> ServingClient:
        """The wrapped synchronous client (do not touch it off-thread)."""
        return self._client

    @property
    def inflight(self) -> int:  # repro: noqa[repro-unused] examples/async_serving.py
        """Requests submitted here and not yet settled."""
        return self._inflight

    def submit(self, request: PredictRequest) -> "asyncio.Future":
        """Queue one already-stamped request; returns an asyncio future."""
        return self._enqueue(request)

    def submit_spec(self, spec: RequestSpec) -> "asyncio.Future":
        """Queue a :class:`RequestSpec`; arrival/deadline stamp at submit."""
        return self._enqueue(spec)

    def _enqueue(
        self, item: Union[PredictRequest, RequestSpec]
    ) -> "asyncio.Future":
        if self._closed:
            raise ClientClosedError(
                "cannot submit to a closed AsyncServingClient"
            )
        entry = _Entry(item, self._loop.create_future())
        self._buffer.append(entry)
        self._inflight += 1
        self._idle.clear()
        self._wakeup.set()
        return entry.future

    async def drain(self) -> None:
        """Resolve when every submitted request has settled."""
        await self._idle.wait()

    async def report_dict(
        self, *, slo_target_seconds: Optional[float] = None
    ) -> Dict[str, Any]:
        """The wrapped client's report as the shared JSON export.

        Runs on the pump thread (serialized behind any in-progress drain),
        so the snapshot is consistent: it never reads scheduler state
        mid-mutation.
        """

        def _build() -> Dict[str, Any]:
            return self._client.report().to_dict(
                sync_stats=self._client.sync_stats(),
                slo_target_seconds=slo_target_seconds,
            )

        return await self._loop.run_in_executor(self._thread, _build)

    async def control_stats(self) -> Optional[Dict[str, Any]]:
        """The wrapped client's control-plane telemetry (``None`` if none).

        Same pump-thread serialization as :meth:`report_dict`.
        """
        return await self._loop.run_in_executor(
            self._thread, self._client.control_stats
        )

    async def aclose(self) -> None:
        """Stop the pump and close the wrapped client (idempotent).

        In-flight work already handed to the scheduler finishes first (the
        pump's final drain); anything the wrapped client still holds at
        close is failed with :class:`~repro.exceptions.ClientClosedError`.
        """
        if self._closed:
            await asyncio.gather(self._pump_task, return_exceptions=True)
            return
        self._closed = True
        self._wakeup.set()
        await self._pump_task
        await self._loop.run_in_executor(self._thread, self._client.close)
        self._thread.shutdown(wait=True)

    # -- pump ----------------------------------------------------------- #
    async def _pump(self) -> None:
        """Forward buffered submissions to the pump thread until closed."""
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            batch, self._buffer = self._buffer, []
            if batch:
                try:
                    await self._loop.run_in_executor(
                        self._thread, self._pump_step, batch
                    )
                except Exception as exc:
                    # A drain()/scheduler failure outside the per-request
                    # error paths: settle whatever the step left unsettled
                    # so no caller awaits forever.  Entries whose
                    # PendingResult later completes are guarded by the
                    # settled flag.
                    for entry in batch:
                        self._resolve(entry, None, exc)
            if self._closed and not self._buffer:
                return

    def _pump_step(self, batch: List[_Entry]) -> None:
        """One scheduler interaction (pump thread): stamp, submit, drain."""
        client = self._client
        arrival = client.clock_now()
        to_submit: List[Tuple[PredictRequest, _Entry]] = []
        for entry in batch:
            item = entry.item
            try:
                request = (
                    item.materialize(arrival)
                    if isinstance(item, RequestSpec)
                    else item
                )
            except Exception as exc:
                self._loop.call_soon_threadsafe(self._resolve, entry, None, exc)
                continue
            to_submit.append((request, entry))
        if not to_submit:
            return
        try:
            pendings = client.submit_many([request for request, _ in to_submit])
        except Exception as exc:
            for _, entry in to_submit:
                self._loop.call_soon_threadsafe(self._resolve, entry, None, exc)
            return
        for (_, entry), pending in zip(to_submit, pendings):
            pending.add_done_callback(self._make_completion(entry))
        client.drain()

    def _make_completion(self, entry: _Entry):
        """The PendingResult→asyncio hop for one entry.

        Runs wherever the batch finishes (pump thread, or inline at
        registration for already-done futures — admission rejections fire
        immediately); the loop-side settle always crosses through
        ``call_soon_threadsafe``.
        """

        def _completed(pending) -> None:
            error = pending.exception()
            if error is not None:
                self._loop.call_soon_threadsafe(self._resolve, entry, None, error)
            else:
                self._loop.call_soon_threadsafe(
                    self._resolve, entry, pending.result(), None
                )

        return _completed

    def _resolve(
        self,
        entry: _Entry,
        response: Optional[PredictResponse],
        error: Optional[BaseException],
    ) -> None:
        """Settle one entry on the loop (exactly once per entry).

        The entry's own future may already be done — e.g. the server's
        graceful shutdown failed it with ``DeadlineExceededError`` before
        the scheduler answered — in which case the outcome is dropped but
        the in-flight accounting still settles.
        """
        if entry.settled:
            return
        entry.settled = True
        self._inflight -= 1
        future = entry.future
        if not future.done():
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(response)
        if self._inflight == 0:
            self._idle.set()
