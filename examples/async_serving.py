"""The network front door: asyncio bridge, socket server, closed-loop load.

Everything in ``examples/serving_api.py`` resolves through explicit
``drain()`` calls on an in-process client.  This example opens the system
to *outside* callers (:mod:`repro.server`), in three layers:

1. **Async bridge** — :class:`~repro.server.AsyncServingClient` wraps any
   synchronous serving client in native ``asyncio`` futures: no polling,
   no thread per request; completions cross from the scheduler's done
   callbacks onto the event loop as batches finish.
2. **Socket server** — :class:`~repro.server.ServingServer` answers a
   length-prefixed binary wire protocol on a real TCP socket: pipelined
   requests per connection, per-client backpressure, typed error frames,
   a stats endpoint, and graceful shutdown that drains in-flight work.
3. **Closed-loop client** — :func:`~repro.server.run_load` drives the
   server like a load generator and accounts every request exactly once,
   reporting end-to-end p50/p99 and ``slo_attainment``.

Run with::

    python examples/async_serving.py

The CLI wraps the same layers: ``pilote serve-net`` hosts a fleet behind
the socket server, ``pilote bench-client`` is this load generator.
"""

import asyncio

import numpy as np

from repro.exceptions import ServingError
from repro.fleet import TrafficGenerator, WorkloadSpec
from repro.server import AsyncConnection, AsyncServingClient, ServingServer, run_load
from repro.server.bridge import RequestSpec
from repro.server.simulation import make_serving_learner
from repro.serving import serve


async def bridge_demo(learner, pool) -> None:
    # Layer 1: the bridge alone.  submit_spec() returns an asyncio.Future
    # immediately; co-arriving requests coalesce into the same engine
    # batches an in-process caller would get, and `await` replaces the
    # explicit drain() loop.
    bridge = AsyncServingClient(serve(learner))
    futures = [
        bridge.submit_spec(RequestSpec(
            user_id=user, features=pool[user * 4:(user + 1) * 4],
            relative_deadline_seconds=5.0,
        ))
        for user in range(6)
    ]
    responses = await asyncio.gather(*futures)
    print(f"bridge: {len(responses)} awaited responses, "
          f"{sum(r.class_ids.shape[0] for r in responses)} windows, "
          f"inflight now {bridge.inflight}")
    await bridge.aclose()


async def server_demo(learner, pool) -> None:
    # Layer 2: the same bridge behind a real TCP socket (port 0 = ephemeral).
    server = ServingServer(serve(learner), slo_target_ms=1000.0)
    host, port = await server.start()
    print(f"server: listening on {host}:{port}")

    async with await AsyncConnection.open(host, port) as connection:
        # Pipelined requests multiplex on one socket by request_id.
        responses = await asyncio.gather(*[
            connection.predict(user, pool[user * 4:(user + 1) * 4],
                               deadline_ms=500.0, metadata={"demo": user})
            for user in range(4)
        ])
        print(f"wire: {len(responses)} pipelined answers, first served by "
              f"device {responses[0].device_id} in "
              f"{responses[0].e2e_server_ms:.2f} ms server-side "
              f"(deadline missed: {responses[0].deadline_missed})")

        # Errors come back as typed frames; the connection survives them.
        try:
            await connection.predict(0, np.zeros((0, 0), dtype=np.float32))
        except ServingError as exc:
            print(f"wire: malformed request answered with "
                  f"{type(exc).__name__}: {exc}")

        stats = await connection.stats()
        print(f"stats endpoint: {stats['server']['answered']} answered, "
              f"slo_attainment {stats['server']['slo_attainment']:.3f}")

    # Layer 3: closed-loop load from a seeded Zipf stream.  run_load keeps
    # `window` requests in flight per connection and buckets every request
    # exactly once (sent == answered + failed).
    spec = WorkloadSpec(pattern="zipf", n_users=50, requests_per_tick=128,
                        n_ticks=1, windows_per_request=4, deadline_seconds=2.0)
    requests = TrafficGenerator(pool, spec, seed=11).requests()
    load = await run_load(host, port, requests,
                          connections=3, window=16, slo_target_ms=1000.0)
    print()
    print(load.to_text())
    # LoadReport.to_dict() is the same export the stats endpoint
    # and `pilote bench-client` ship — ready for dashboards.
    print(f"\njson export keys: {sorted(load.to_dict())}")

    # Graceful shutdown: in-flight work drains within the grace window;
    # anything still pending fails typed, never silently dropped.
    await server.stop(grace_seconds=1.0)
    print(f"shutdown: received {server.stats.received} = "
          f"answered {server.stats.answered} + failed {server.stats.failed}")


def main() -> None:
    learner = make_serving_learner(n_classes=4, per_class=80, seed=3)
    pool = (np.random.default_rng(5)
            .normal(size=(1024, 80))
            .astype(np.float32))
    asyncio.run(bridge_demo(learner, pool))
    print()
    asyncio.run(server_demo(learner, pool))


if __name__ == "__main__":
    main()
