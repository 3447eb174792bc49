"""Benchmarks of the executor seam (`repro.serving.executor`).

Two gates, both on a serving-only learner (no gradient training, so the
measurements isolate batch execution itself):

1. **Serial bit-exactness** — the scheduler's default ``SerialExecutor``
   must answer exactly as the devices themselves do: each tick's requests,
   grouped by the device that answered them and concatenated in submission
   order, served by one ``device.serve`` call per device on an identically
   deployed fleet, give the same class-id bytes and the same per-device
   served counts.  The executor seam must be a pure mechanism change.
   (The serial path's per-request overhead is gated in
   ``benchmarks/bench_serving.py``.)
2. **Real wall-clock speedup** — a compute-bound fleet workload drained
   through the ``ProcessExecutor`` must beat the ``SerialExecutor`` on
   *measured* wall-clock throughput, with identical predictions.  The
   serial baseline is the scheduler's fused drain: its lanes share one
   package's weights, so each tick embeds all lanes in one stacked call.  The
   required speedup scales with the hardware actually available:
   ≥ 1.8× with 4+ usable cores (the acceptance target, 4 workers),
   ≥ 1.2× with 2-3 cores, and on a single core — where no parallel
   speedup is physically possible — the gate degrades to an IPC-overhead
   sanity bound and the report says so.  Worker count comes from the
   ``BENCH_WORKERS`` environment variable (default 4; CI pins 2 for the
   hosted runners).

Run via pytest (``python -m pytest benchmarks/bench_workers.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_workers.py``).
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per process *before* numpy initialises: otherwise
# the "serial" baseline silently parallelises its GEMMs across all cores
# while the worker processes fight each other's BLAS pools, and the speedup
# gate measures thread-pool contention instead of the executor.  Effective
# for direct runs (`python benchmarks/bench_workers.py`); pytest imports
# numpy before this file, so the CI step exports the same variables itself.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import time

import numpy as np

from repro.backend import precision
from repro.core.config import PiloteConfig
from repro.edge.device import DeviceProfile
from repro.edge.transfer import package_for_edge
from repro.fleet import FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.server.simulation import make_serving_learner

#: Worker-pool size under test (the acceptance target is 4; CI pins 2).
N_WORKERS = int(os.environ.get("BENCH_WORKERS", "4"))

#: Homogeneous simulation node: generous budgets, reference-speed compute.
SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, relative_compute=1.0
)

#: The serving learner of the serial bit-exactness gate.
HEAVY_CONFIG = PiloteConfig(
    hidden_dims=(512, 256), embedding_dim=32, cache_size=1200, seed=0
)
#: Wide enough layers that the per-batch GEMMs dominate the IPC cost of
#: shipping the window payloads — the "compute-bound" in the speedup gate
#: (about 65 µs of embedding compute per 320-byte window, ~1.6 s per stream
#: on one Xeon core).  At ``HEAVY_CONFIG``'s width the engine is fast enough
#: that the stream serves in ~0.15 s and IPC dominates (0.7-1.0x on 2 vCPUs).
SPEEDUP_CONFIG = PiloteConfig(
    hidden_dims=(2048, 1024), embedding_dim=32, cache_size=1200, seed=0
)
N_FEATURES = 80


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def build_fleet(package, n_devices: int, config=HEAVY_CONFIG) -> FleetCoordinator:
    fleet = FleetCoordinator(config, profiles=(SIM_NODE,), seed=0)
    fleet.provision(n_devices)
    fleet.deploy(package)
    for device in fleet.devices:
        device.engine.warm()
    return fleet


def _compute_bound_ticks(pool, n_ticks: int = 6, per_tick: int = 256, pattern="zipf"):
    spec = WorkloadSpec(
        pattern=pattern, n_users=500, requests_per_tick=per_tick,
        n_ticks=n_ticks, windows_per_request=16,
    )
    return list(TrafficGenerator(pool, spec, seed=7).ticks())


def _drain_stream(client, ticks):
    """Submit+drain a tick stream; returns (predictions, wall seconds)."""
    futures = []
    start = time.perf_counter()
    for requests in ticks:
        futures.extend(client.submit_many(requests))
        client.drain()
    wall = time.perf_counter() - start
    predictions = np.concatenate([f.result().class_ids for f in futures])
    return predictions, wall


def test_serial_executor_bit_exact_with_device_serving(report):
    """The default executor answers byte for byte as the devices do."""
    from repro.serving import serve

    with precision("edge"):
        package = package_for_edge(make_serving_learner(HEAVY_CONFIG))
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES)).astype(np.float32)
        ticks = _compute_bound_ticks(pool, n_ticks=3, per_tick=128)

        reference_fleet = build_fleet(package, N_WORKERS)
        scheduler_fleet = build_fleet(package, N_WORKERS)
        exact = True
        served_counts = {}
        with serve(scheduler_fleet, routing="hash", seed=7, executor="serial") as client:
            for requests in ticks:
                futures = client.submit_many(requests)
                client.drain()
                by_device = {}
                for request, future in zip(requests, futures):
                    response = future.result()
                    by_device.setdefault(response.device_id, []).append(
                        (request.features, response.class_ids)
                    )
                for device_id, pairs in by_device.items():
                    expected = reference_fleet.device(device_id).serve(
                        np.concatenate([features for features, _ in pairs])
                    )
                    served = np.concatenate([class_ids for _, class_ids in pairs])
                    exact = exact and served.tobytes() == expected.tobytes()
                    served_counts[device_id] = served_counts.get(device_id, 0) + len(pairs)
            client_report = client.report()

    same_counters = client_report.total_requests == sum(served_counts.values()) and {
        i: s.requests for i, s in client_report.per_device.items() if s.requests
    } == served_counts
    report(
        "bench_workers_serial_exact",
        "serial executor vs one device.serve call per device per tick "
        "(identical stream)\n"
        f"  requests:                 {client_report.total_requests}\n"
        f"  predictions bit-exact:    {exact}\n"
        f"  served counters identical: {same_counters}\n"
        f"  report clock:             {client_report.clock}",
    )
    assert exact and same_counters
    assert client_report.clock == "simulated"


def test_process_executor_wall_clock_speedup(report):
    """Real multi-core speedup of the process pool over inline execution."""
    from repro.serving import serve

    cores = usable_cores()
    effective = min(N_WORKERS, cores)
    with precision("edge"):
        package = package_for_edge(make_serving_learner(SPEEDUP_CONFIG))
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES)).astype(np.float32)
        # Uniform users keep the lanes balanced: under Zipf, hash routing
        # puts ~59% of the windows on one of two lanes, which caps any
        # two-worker speedup near 1.7x before IPC and host noise.
        ticks = _compute_bound_ticks(pool, pattern="uniform")
        n_windows = sum(r.n_windows for t in ticks for r in t)
        probe = ticks[0][:4]

        serial_fleet = build_fleet(package, N_WORKERS, SPEEDUP_CONFIG)
        with serve(serial_fleet, routing="hash", seed=7, executor="serial") as client:
            client.submit_many(probe)
            client.drain()  # warm caches outside the timed window
            serial_predictions, serial_wall = _drain_stream(client, ticks)

        process_fleet = build_fleet(package, N_WORKERS, SPEEDUP_CONFIG)
        with serve(
            process_fleet, routing="hash", seed=7,
            executor="process", workers=N_WORKERS,
        ) as client:
            client.submit_many(probe)
            client.drain()  # spin up workers + ship snapshots, untimed
            process_predictions, process_wall = _drain_stream(client, ticks)
            process_report = client.report()

    speedup = serial_wall / process_wall
    exact = bool(np.array_equal(serial_predictions, process_predictions))
    if effective >= 4:
        required = 1.8
    elif effective >= 2:
        required = 1.2
    else:
        # One usable core: parallel speedup is physically impossible, so the
        # gate degrades to bounding the IPC overhead of going off-process.
        required = 0.25
    report(
        "bench_workers_speedup",
        f"process-executor wall-clock speedup ({N_WORKERS} workers, "
        f"{cores} usable cores, {N_WORKERS}-device fleet)\n"
        f"  windows served:           {n_windows}\n"
        f"  serial executor:          {serial_wall:8.3f} s "
        f"({n_windows / serial_wall:9.0f} windows/s)\n"
        f"  process executor:         {process_wall:8.3f} s "
        f"({n_windows / process_wall:9.0f} windows/s)\n"
        f"  wall-clock speedup:       {speedup:8.2f}x  (gate: >= {required}x"
        f"{', acceptance target 1.8x needs >= 4 cores' if effective < 4 else ''})\n"
        f"  predictions bit-exact:    {exact}\n"
        f"  report clock:             {process_report.clock}",
    )
    assert exact
    assert process_report.clock == "wall"
    assert speedup >= required


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_serial_executor_bit_exact_with_device_serving(_report)
    test_process_executor_wall_clock_speedup(_report)
    print("\nall worker-executor benchmarks passed")
