"""Benchmarks of the unified serving API (`repro.serving`).

Three gates, all on a serving-only learner (no gradient training, so the
measurements isolate the serving layer itself):

1. **Scheduler overhead** — everything the event-loop scheduler adds on top
   of engine compute (routing, queueing, futures, stats) must stay at or
   below the per-request wall of a bare ``InferenceEngine.predict`` loop
   over the identical per-tick batches.  The API must not tax the hot path
   for its futures more than the engine call it wraps costs.
2. **Routing-policy p99** — under the Zipf-skewed workload on an 8-device
   fleet, ``least-loaded`` routing must beat ``hash`` routing on simulated
   p99 latency (the skewed head users overload one hash shard).
3. **Layer equivalence** — the same request stream served through a bare
   learner, a MAGNETO platform and a 1-device fleet must produce identical
   class decisions through the one client API.

Run via pytest (``python -m pytest benchmarks/bench_serving.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import time

import numpy as np

from bench_fleet import (
    N_FEATURES,
    bookkeeping_vs_bare,
    build_fleet,
    make_serving_learner,
    make_workload,
)
from repro.backend import precision
from repro.edge.magneto import MagnetoPlatform
from repro.edge.transfer import package_for_edge
from repro.fleet import TrafficGenerator
from repro.serving import serve


def _ticks(pool, pattern="uniform", seed=7):
    return list(TrafficGenerator(pool, make_workload(pattern), seed=seed).ticks())


def test_scheduler_overhead_at_most_bare_engine(report):
    """Event-loop bookkeeping per request ≤ the bare engine's per-request wall.

    The bound moves with engine speed; see :func:`bench_fleet.bookkeeping_vs_bare`.
    """
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, 1)
        fleet.devices[0].infer(pool[:8])  # warm the prototype cache
        ticks = _ticks(pool)
        cost = bookkeeping_vs_bare(fleet, ticks, routing="hash", seed=7)
        n_requests = cost.n_requests

        # Materialising every PredictResponse is deliberately lazy; measure
        # what it would add so the report shows the full-futures cost too.
        client = serve(fleet, routing="hash", seed=7)
        futures = []
        for requests in ticks:
            futures.extend(client.submit_many(requests))
            client.drain()
        start = time.perf_counter()
        responses = [future.result() for future in futures]
        result_us = (time.perf_counter() - start) / n_requests * 1e6
        assert len(responses) == n_requests

    report(
        "bench_serving_overhead",
        f"serving bookkeeping per request ({n_requests} requests, 1 device, best of 3)\n"
        f"  bare InferenceEngine loop:      {cost.bare_us:8.2f} us/request\n"
        f"  event-loop scheduler (futures): {cost.scheduler_us:8.2f} us/request\n"
        f"  + PredictResponse objects:      {result_us:8.2f} us/request (lazy, on result())",
    )
    assert cost.scheduler_us <= cost.bare_us


def test_least_loaded_beats_hash_p99_under_zipf(report):
    """least-loaded routing wins p99 latency on Zipf traffic, 8 devices."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner())
        pool = np.random.default_rng(3).normal(size=(4096, N_FEATURES))
        fleet = build_fleet(package, 8)

        def routed_p99(routing: str):
            client = serve(fleet, routing=routing, seed=7)
            for requests in _ticks(pool, "zipf"):
                client.submit_many(requests)
                client.drain()  # tick-by-tick, as an online server would
            rep = client.report()
            shares = [s.requests for s in rep.per_device.values()]
            return rep.latency_percentile(99.0), rep.mean_latency_seconds, max(shares)

        hash_p99, hash_mean, hash_max_share = routed_p99("hash")
        ll_p99, ll_mean, ll_max_share = routed_p99("least-loaded")

    report(
        "bench_serving_p99",
        "routing policy p99 under Zipf skew (4096 req/tick x 8 ticks, 8 devices)\n"
        f"  hash:         p99 {hash_p99 * 1e3:8.2f} ms   mean {hash_mean * 1e3:8.2f} ms"
        f"   hottest device {hash_max_share} requests\n"
        f"  least-loaded: p99 {ll_p99 * 1e3:8.2f} ms   mean {ll_mean * 1e3:8.2f} ms"
        f"   hottest device {ll_max_share} requests\n"
        f"  p99 win:      {hash_p99 / ll_p99:8.2f}x",
    )
    assert ll_p99 < hash_p99


def test_one_client_api_across_layers(report):
    """Learner, platform and 1-device fleet answer identically via serve()."""
    with precision("edge"):
        learner = make_serving_learner()
        package = package_for_edge(learner)
        pool = np.random.default_rng(4).normal(size=(512, N_FEATURES))

        platform = MagnetoPlatform(learner.config, seed=0)
        platform.cloud.learner = learner
        platform.cloud.history = object()
        platform.deploy_to_edge()
        fleet = build_fleet(package, 1)

        spec_ticks = _ticks(pool[:512])
        outputs = {}
        for label, target in (
            ("learner", learner),
            ("platform", platform),
            ("fleet", fleet),
        ):
            client = serve(target, routing="hash", seed=7)
            futures = []
            for requests in spec_ticks:
                futures.extend(client.submit_many(requests))
            client.drain()
            outputs[label] = np.concatenate(
                [future.result().class_ids for future in futures]
            )

    platform_equal = bool(np.array_equal(outputs["learner"], outputs["platform"]))
    fleet_equal = bool(np.array_equal(outputs["learner"], outputs["fleet"]))
    report(
        "bench_serving_layers",
        "one client API across layers (identical request stream)\n"
        f"  windows served per layer:  {outputs['learner'].shape[0]}\n"
        f"  platform == learner:       {platform_equal}\n"
        f"  1-device fleet == learner: {fleet_equal}",
    )
    assert platform_equal and fleet_equal


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_scheduler_overhead_at_most_bare_engine(_report)
    test_least_loaded_beats_hash_p99_under_zipf(_report)
    test_one_client_api_across_layers(_report)
    print("\nall serving benchmarks passed")
