"""Benchmarks of the fleet serving subsystem.

Three gates, all on a serving-only learner (no gradient training, so the
benchmark isolates the fleet layer itself):

1. **Throughput scaling** — the same workload served through an 8-device
   fleet and a 1-device fleet by ``serve(fleet, routing="hash")``, drained
   tick by tick; aggregate simulated throughput (devices drain their queues
   in parallel) must be ≥ 4× the single device.
2. **Scheduler overhead** — everything the event-loop scheduler adds on top
   of engine compute (routing, queueing, futures, stats) must stay bounded
   per request, measured against a bare
   :class:`~repro.edge.inference.InferenceEngine` loop over the same
   per-tick batches (:func:`bookkeeping_vs_bare`, shared with
   ``bench_serving.py`` and ``bench_deadlines.py``).
3. **Checkpoint round-trip** — a device checkpointed, evicted to disk and
   restored on fresh hardware must reproduce the original device's
   predictions *exactly*.

Run via pytest (``python -m pytest benchmarks/bench_fleet.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_fleet.py``).
"""

from __future__ import annotations

import tempfile
import time
from typing import NamedTuple

import numpy as np

from repro.backend import precision
from repro.core.config import PiloteConfig
from repro.edge.device import DeviceProfile
from repro.edge.transfer import package_for_edge
from repro.fleet import CheckpointStore, FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.server.simulation import make_serving_learner
from repro.serving import serve

#: Homogeneous simulation node: generous budgets, reference-speed compute.
SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, memory_bytes=2**30, relative_compute=1.0
)

CONFIG = PiloteConfig(hidden_dims=(128, 64), embedding_dim=32, cache_size=1200, seed=0)
N_FEATURES = 80


def build_fleet(package, n_devices: int) -> FleetCoordinator:
    fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
    fleet.provision(n_devices)
    fleet.deploy(package)
    return fleet


def make_workload(pattern: str = "uniform") -> WorkloadSpec:
    return WorkloadSpec(
        pattern=pattern,
        n_users=1000,
        requests_per_tick=4096,
        n_ticks=8,
        windows_per_request=1,
    )


class Overhead(NamedTuple):
    """Per-request costs (µs), each the best of 3 runs."""

    scheduler_us: float  # scheduler wall outside engine compute
    served_us: float  # whole scheduler wall
    bare_us: float  # bare InferenceEngine.predict loop
    n_requests: int


def bookkeeping_vs_bare(fleet, ticks, **serve_kwargs) -> Overhead:
    """Scheduler bookkeeping against a bare engine loop on a 1-device fleet.

    The scheduler side drains ``serve(fleet, **serve_kwargs)`` tick by tick,
    so each tick is one engine call (the workload's arrivals are all 0.0, so
    a single final drain would coalesce everything into one batch and
    flatter the scheduler).  The bare side calls the device's
    ``InferenceEngine.predict`` once per tick on the same concatenated batch.

    The ``scheduler_us <= bare_us`` gates built on this scale with engine
    speed: a faster ``InferenceEngine`` lowers ``bare_us`` while the Python
    bookkeeping stays put, so an engine speed-up that trips them must
    re-derive the bound from a fresh measurement, not loosen it.
    """
    (device,) = fleet.devices
    engine = device.engine
    batches = [np.concatenate([r.features for r in requests]) for requests in ticks]
    n_requests = sum(len(requests) for requests in ticks)
    bookkeeping = served = bare = float("inf")
    for _ in range(3):
        client = serve(fleet, **serve_kwargs)
        start = time.perf_counter()
        for requests in ticks:
            client.submit_many(requests)
            client.drain()
        wall = time.perf_counter() - start
        served = min(served, wall)
        bookkeeping = min(
            bookkeeping, max(wall - client.report().engine_wall_seconds, 0.0)
        )
        start = time.perf_counter()
        for batch in batches:
            engine.predict(batch)
        bare = min(bare, time.perf_counter() - start)
    per_request_us = 1e6 / n_requests
    return Overhead(
        bookkeeping * per_request_us, served * per_request_us,
        bare * per_request_us, n_requests,
    )


def test_fleet_throughput_scales(report):
    """Aggregate 8-device throughput ≥ 4× a single device on the same stream.

    The gate runs on the uniform workload (capacity scaling with balanced
    shards).  The Zipf workload is reported alongside: rank-1 users
    concentrate enough traffic on one device that its queue dominates the
    makespan — the measured gap is the motivation for the future
    weighted/overflow balancing noted in ROADMAP.md.
    """
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG))
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))

        def routed_throughput(n_devices: int, pattern: str) -> float:
            fleet = build_fleet(package, n_devices)
            traffic = TrafficGenerator(pool, make_workload(pattern), seed=7)
            client = serve(fleet, routing="hash", seed=7)
            for requests in traffic.ticks():
                client.submit_many(requests)
                client.drain()
            return client.report().aggregate_throughput

        single = routed_throughput(1, "uniform")
        fleet8 = routed_throughput(8, "uniform")
        single_zipf = routed_throughput(1, "zipf")
        fleet8_zipf = routed_throughput(8, "zipf")
    scaling = fleet8 / single
    zipf_scaling = fleet8_zipf / single_zipf
    report(
        "bench_fleet_throughput",
        "fleet aggregate throughput (4096 req/tick x 8 ticks, 1000 users)\n"
        f"  uniform, 1 device:             {single:12.0f} windows/s\n"
        f"  uniform, 8 devices (parallel): {fleet8:12.0f} windows/s\n"
        f"  uniform scaling:               {scaling:12.2f}x\n"
        f"  zipf scaling (skew-limited):   {zipf_scaling:12.2f}x",
    )
    assert scaling >= 4.0


def test_scheduler_overhead_bounded(report):
    """Scheduler bookkeeping per request stays small vs a bare engine loop."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG))
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, 1)
        fleet.devices[0].infer(pool[:8])  # warm the prototype cache
        ticks = list(TrafficGenerator(pool, make_workload(), seed=7).ticks())
        cost = bookkeeping_vs_bare(fleet, ticks, routing="hash", seed=7)

    ratio = cost.served_us / cost.bare_us
    report(
        "bench_fleet_scheduler_overhead",
        f"scheduler overhead over {cost.n_requests} requests "
        "(single device, best of 3)\n"
        f"  served wall:                 {cost.served_us:10.2f} us/request\n"
        f"  bare InferenceEngine loop:   {cost.bare_us:10.2f} us/request\n"
        f"  served / bare ratio:         {ratio:10.2f}x\n"
        f"  bookkeeping per request:     {cost.scheduler_us:10.2f} us",
    )
    assert cost.scheduler_us < 1000.0  # < 1 ms of bookkeeping per request
    assert ratio < 3.0


def test_checkpoint_roundtrip_exact(report):
    """Checkpoint → restore on fresh hardware reproduces predictions exactly."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG))
        fleet = build_fleet(package, 1)
        device = fleet.devices[0]
        probe = np.random.default_rng(4).normal(size=(2048, N_FEATURES))
        live = device.infer(probe)

        with tempfile.TemporaryDirectory() as scratch:
            store = CheckpointStore(scratch)
            start = time.perf_counter()
            checkpoint = store.save(device)
            save_seconds = time.perf_counter() - start
            start = time.perf_counter()
            restored = store.restore(checkpoint)
            restore_seconds = time.perf_counter() - start
            replayed = restored.infer(probe)

    identical = bool(np.array_equal(live, replayed))
    report(
        "bench_fleet_checkpoint",
        "device checkpoint round-trip (5 classes, 750 exemplars, d=80)\n"
        f"  checkpoint size:  {checkpoint.nbytes / 1024:10.1f} KB\n"
        f"  save:             {save_seconds * 1e3:10.2f} ms\n"
        f"  restore:          {restore_seconds * 1e3:10.2f} ms\n"
        f"  2048 predictions identical: {identical}",
    )
    assert identical


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_fleet_throughput_scales(_report)
    test_scheduler_overhead_bounded(_report)
    test_checkpoint_roundtrip_exact(_report)
    print("\nall fleet benchmarks passed")
