"""Tour of the control plane: hedged requests and the chaos suite.

One pre-built serving fleet is driven through the control plane
(:mod:`repro.control`) four ways:

1. the one-liner — ``serve(fleet, adaptive=True)`` attaches a
   :class:`~repro.control.ControlPlane`, which hedges requests on
   multi-device fleets;
2. a :class:`~repro.control.ControlPlane` attached by hand to a built
   client: its hedging ledger, and the recent-failure window it keeps
   itself (the last :data:`~repro.control.hedging.WINDOW` submissions);
3. an overloaded Zipf stream with a mid-run worker-death storm, run twice —
   static vs adaptive — showing the hedged-request escape from a dying lane
   and the exactly-once ledger behind it;
4. a chaos scenario (:func:`~repro.control.run_chaos`) proving the
   conservation law every run must satisfy: ``sent == answered + failed``
   with zero unresolved futures and zero double-fired callbacks.

The same machinery runs from the CLI: ``pilote chaos`` executes the whole
scenario suite in both modes, ``pilote fleet-sim --adaptive`` runs the
fleet simulation with a plane attached, and the network server
(``pilote serve-net``) exposes the plane's counters in its ``stats``
frame once the bridged client has a plane attached.

Run with::

    python examples/control_plane.py
"""

import numpy as np

from repro.control import (
    ChaosSpec,
    ControlPlane,
    FlakyDevice,
    run_chaos,
)
from repro.fleet import TrafficGenerator, WorkloadSpec
from repro.server.simulation import build_serving_fleet, make_serving_learner
from repro.serving import serve

N_FEATURES = 80


def main() -> None:
    pool = np.random.default_rng(3).normal(size=(2048, N_FEATURES)).astype(np.float32)

    # 1. The one-liner: serve() attaches the plane.
    client = serve(build_serving_fleet(4, seed=0), adaptive=True)
    stats = client.control_stats()
    print(f"control plane on a 4-device fleet: {sorted(stats)}")
    client.close()

    # 2. A plane attached by hand; the worker pool keeps its size.
    client = serve(
        build_serving_fleet(4, seed=0),
        routing="p2c", scheduling="edf", seed=0,
        executor="thread", workers=2,
    )
    plane = ControlPlane(client)
    print(
        f"hand-built plane: hedged pairs fired {plane.hedges.fired}, "
        f"failure window {client.control_stats()['window']} submissions, "
        f"{client.scheduler.executor.n_workers} workers"
    )
    client.close()

    # 3. Overload + worker-death storm, static vs adaptive.  The dying
    # lane fails fast, looks idle, and keeps attracting p2c traffic; the
    # plane's unhealthy-lane signal breaks that vortex by
    # racing a clone on the healthy sibling — first completion wins.
    workload = WorkloadSpec(
        pattern="zipf", n_users=300, requests_per_tick=96, n_ticks=10,
        tick_seconds=0.02, deadline_seconds=0.05,
    )

    def storm_run(adaptive: bool):
        fleet = build_serving_fleet(2, seed=0)
        flaky = fleet.replace_device(0, FlakyDevice(fleet.devices[0]))
        run_client = serve(
            fleet, routing="p2c", scheduling="edf", seed=7, adaptive=adaptive
        )
        for tick, requests in enumerate(
            TrafficGenerator(pool, workload, seed=7).ticks()
        ):
            flaky.failing = 3 <= tick <= 6  # the storm window
            run_client.submit_many(requests)
            run_client.drain()
        report = run_client.report()
        answered = report.total_requests
        control = run_client.control_stats()
        run_client.close()
        return answered, report.total_failed, control

    static_ok, static_failed, _ = storm_run(adaptive=False)
    adaptive_ok, adaptive_failed, control = storm_run(adaptive=True)
    hedging = control["hedging"]
    print("\nworker-death storm (2 devices, lane 0 dying for 4 of 10 ticks):")
    print(f"  static   p2c+edf: {static_ok} answered, {static_failed} failed")
    print(f"  adaptive p2c+edf: {adaptive_ok} answered, {adaptive_failed} failed")
    print(
        f"  hedges: {hedging['fired']} fired, {hedging['hedge_wins']} won on "
        f"the sibling, {hedging['losers_cancelled']} losers cancelled, "
        f"{hedging['losers_served']} wasted (served after the twin won)"
    )

    # 4. A chaos run and its conservation law.
    report = run_chaos(
        ChaosSpec(
            name="demo-storm", scenario="worker-storm", seed=5,
            n_devices=2, n_ticks=6, requests_per_tick=24,
            storm_ticks=(2, 3), storm_devices=(0,),
        ),
        adaptive=True,
    )
    print(f"\n{report.to_text()}")
    assert report.exactly_once, "chaos must never drop or double-answer"


if __name__ == "__main__":
    main()
