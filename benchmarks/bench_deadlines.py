"""Benchmarks of deadline-aware (EDF) serving (`repro.serving`).

Two gates, both on a serving-only learner (no gradient training, so the
measurements isolate the serving layer itself):

1. **EDF beats FIFO on deadline misses** — on an overloaded Zipf workload
   (arrivals ~4x the fleet's service rate) mixing urgent and relaxed
   deadline classes, earliest-deadline-first queue order must answer
   *strictly more* requests within their deadlines than FIFO arrival order,
   and lose strictly fewer to expiry+miss.  FIFO head-of-line-blocks late
   urgent requests behind earlier relaxed ones until their deadlines pass;
   EDF reorders each lane's queue so the urgent sub-stream (sized well
   within capacity) is served in time.  Deadlines are set from the
   simulated clock's service time of one lane's per-tick batch
   (:func:`~repro.serving.scheduler.service_seconds`), so the result is
   the same on every machine.
2. **EDF overhead within the serving gate** — with EDF scheduling enabled
   (on deadline-less traffic, where it degenerates to arrival order), the
   scheduler's per-request bookkeeping must stay at or below the per-request
   wall of a bare ``InferenceEngine.predict`` loop — the same bound
   ``bench_serving.py`` gates for FIFO.

Run via pytest (``python -m pytest benchmarks/bench_deadlines.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_deadlines.py``).
"""

from __future__ import annotations

import numpy as np

from bench_fleet import (
    CONFIG,
    N_FEATURES,
    bookkeeping_vs_bare,
    build_fleet,
    make_workload,
)
from repro.backend import precision
from repro.edge.transfer import package_for_edge
from repro.fleet import TrafficGenerator, WorkloadSpec
from repro.server.simulation import make_serving_learner
from repro.serving import serve
from repro.serving.scheduler import service_seconds

#: Overload factor of the deadline workload: per-tick arrivals carry ~4x the
#: service capacity of one tick interval, so queues grow without bound.
OVERLOAD = 4.0

#: Deadline classes: 1-in-8 requests are urgent (relative deadline 3x one
#: lane-batch service time), the rest relaxed (120x — never at risk inside
#: the stream).  The urgent sub-stream alone is ~overload/8 = 0.5x capacity,
#: so EDF can serve it in time while FIFO expires most of it.
URGENT_MULTIPLIER = 1.0
RELAXED_MULTIPLIER = 40.0
DEADLINE_MULTIPLIERS = (URGENT_MULTIPLIER,) + (RELAXED_MULTIPLIER,) * 7

N_DEVICES = 4
REQUESTS_PER_TICK = 1024
N_TICKS = 16


def test_edf_reduces_deadline_misses_vs_fifo(report):
    """EDF answers strictly more requests in deadline than FIFO (overload)."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG))
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, N_DEVICES)
        batch_service = service_seconds(fleet.devices[0], REQUESTS_PER_TICK // N_DEVICES)
        workload = WorkloadSpec(
            pattern="zipf",
            n_users=1000,
            requests_per_tick=REQUESTS_PER_TICK,
            n_ticks=N_TICKS,
            windows_per_request=1,
            tick_seconds=batch_service / OVERLOAD,
            deadline_seconds=3.0 * batch_service,
            deadline_multipliers=DEADLINE_MULTIPLIERS,
        )

        def run(scheduling):
            client = serve(fleet, routing="hash", scheduling=scheduling, seed=7)
            traffic = TrafficGenerator(pool, workload, seed=7)
            # Open loop: the whole overloaded stream is submitted before the
            # drain, so queues actually build up and the queue *order* is
            # what decides which deadlines survive.
            for requests in traffic.ticks():
                client.submit_many(requests)
            client.drain()
            rep = client.report()
            in_deadline = rep.total_deadline_requests - rep.total_deadline_misses
            return in_deadline, rep

        fifo_in, fifo_report = run("fifo")
        edf_in, edf_report = run("edf")

    n_requests = REQUESTS_PER_TICK * N_TICKS
    fifo_lost = fifo_report.total_expired + fifo_report.total_deadline_misses
    edf_lost = edf_report.total_expired + edf_report.total_deadline_misses
    report(
        "bench_deadlines_edf",
        f"deadline attainment under ~{OVERLOAD:.0f}x overload "
        f"({n_requests} Zipf requests, {N_DEVICES} devices, 1-in-8 urgent)\n"
        f"  fifo: {fifo_in:6d} in deadline   "
        f"{fifo_report.total_expired:6d} expired   "
        f"{fifo_report.total_deadline_misses:6d} missed   "
        f"attainment {fifo_report.deadline_attainment:.4f}\n"
        f"  edf:  {edf_in:6d} in deadline   "
        f"{edf_report.total_expired:6d} expired   "
        f"{edf_report.total_deadline_misses:6d} missed   "
        f"attainment {edf_report.deadline_attainment:.4f}\n"
        f"  saved by EDF: {edf_in - fifo_in} requests "
        f"({(edf_in - fifo_in) / n_requests:.1%} of the stream)",
    )
    assert edf_in > fifo_in, "EDF must answer strictly more requests in deadline"
    assert edf_lost < fifo_lost


def test_edf_overhead_within_serving_gate(report):
    """EDF bookkeeping per request ≤ the bare engine's (bench_serving gate).

    The bound moves with engine speed; see :func:`bench_fleet.bookkeeping_vs_bare`.
    """
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG))
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, 1)
        fleet.devices[0].infer(pool[:8])  # warm the prototype cache
        ticks = list(TrafficGenerator(pool, make_workload("uniform"), seed=7).ticks())
        cost = bookkeeping_vs_bare(fleet, ticks, routing="hash", scheduling="edf", seed=7)

    report(
        "bench_deadlines_overhead",
        f"EDF scheduler bookkeeping per request ({cost.n_requests} requests, "
        "1 device, best of 3)\n"
        f"  bare InferenceEngine loop:     {cost.bare_us:8.2f} us/request\n"
        f"  event-loop scheduler (edf):    {cost.scheduler_us:8.2f} us/request",
    )
    assert cost.scheduler_us <= cost.bare_us


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_edf_reduces_deadline_misses_vs_fifo(_report)
    test_edf_overhead_within_serving_gate(_report)
    print("\nall deadline benchmarks passed")
