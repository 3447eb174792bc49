"""Tour of the unified serving API: protocol, futures, routing, executors.

One pre-trained PILOTE learner is served five ways through the *same*
request/response protocol (:mod:`repro.serving`):

1. bare learner — ``serve(learner).predict(...)`` one-liner;
2. futures with deadlines and metadata on the simulated clock;
3. an 8-device fleet under Zipf-skewed traffic, comparing the ``hash``
   (sticky per user) and ``least-loaded`` routing policies on p99 latency;
4. deadline-aware scheduling — the same overloaded deadline workload under
   ``fifo`` vs ``edf`` queue order, with the served/missed/expired SLO
   breakdown from the routing report;
5. pluggable executors — one workload drained through the ``serial``
   (inline, simulated clock), ``thread`` and ``process`` (real worker
   processes) executors, with identical predictions and the measured vs
   modeled clock distinction in the reports.

Run with::

    python examples/serving_api.py
"""

import numpy as np

from repro import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data import Activity, build_incremental_scenario, make_feature_dataset
from repro.edge.transfer import package_for_edge
from repro.fleet import FleetCoordinator, TrafficGenerator, WorkloadSpec
from repro.serving import PredictRequest, serve


def build_learner(scenario, seed: int = 0) -> PILOTE:
    config = PiloteConfig(
        hidden_dims=(64, 32), embedding_dim=16, batch_size=32,
        max_epochs_pretrain=8, cache_size=200, seed=seed,
    )
    learner = PILOTE(config, seed=seed)
    learner.pretrain(scenario.old_train, scenario.old_validation,
                     exemplars_per_class=40)
    return learner


def main() -> None:
    dataset = make_feature_dataset(samples_per_class=150, seed=3)
    scenario = build_incremental_scenario(dataset, [Activity.RUN], rng=3)
    learner = build_learner(scenario)
    pool = scenario.test.features

    # 1. The one-liner: a bare learner behind the unified client.
    client = serve(learner)
    print(f"learner client: {client.predict(pool[:8]).shape[0]} windows answered")

    # 2. Futures on the simulated clock, with a deadline and metadata.
    pending = client.submit(PredictRequest(
        user_id=7, features=pool[:4], deadline_seconds=5.0,
        metadata={"session": "demo"},
    ))
    client.drain()
    response = pending.result()
    print(f"future: user {response.user_id} served on device "
          f"{response.device_id} in {response.latency_seconds * 1e3:.3f} ms "
          f"(deadline missed: {response.deadline_missed}, "
          f"metadata echoed: {response.metadata})")

    # 3. An 8-device fleet: hash vs least-loaded routing under Zipf skew.
    package = package_for_edge(learner)
    workload = WorkloadSpec(pattern="zipf", n_users=300,
                            requests_per_tick=256, n_ticks=6)
    for routing in ("hash", "least-loaded"):
        fleet = FleetCoordinator(learner.config, seed=0)
        fleet.provision(8)
        fleet.deploy(package)
        fleet_client = serve(fleet, routing=routing, seed=0)
        traffic = TrafficGenerator(pool, workload, seed=11)
        for requests in traffic.ticks():
            fleet_client.submit_many(requests)
        fleet_client.drain()
        report = fleet_client.report()
        print(f"fleet/{routing:<13} p99 latency "
              f"{report.p99_latency_seconds * 1e3:8.2f} ms  "
              f"(aggregate {report.aggregate_throughput:8.0f} windows/s)")

    # 4. Deadline-aware scheduling: FIFO vs EDF on an overloaded deadline
    #    workload (1-in-4 requests urgent, the rest relaxed).
    deadline_workload = WorkloadSpec(
        pattern="zipf", n_users=300, requests_per_tick=512, n_ticks=8,
        tick_seconds=1e-4, deadline_seconds=2e-3,
        deadline_multipliers=(1.0, 50.0, 50.0, 50.0),
    )
    print()
    for scheduling in ("fifo", "edf"):
        fleet = FleetCoordinator(learner.config, seed=0)
        fleet.provision(2)
        fleet.deploy(package)
        client = serve(fleet, routing="hash", scheduling=scheduling, seed=0)
        for requests in TrafficGenerator(pool, deadline_workload, seed=11).ticks():
            client.submit_many(requests)
        client.drain()
        breakdown = client.report().deadline_breakdown()
        print(f"scheduling={scheduling:<5} deadline SLO: "
              f"{breakdown['served']} served in deadline, "
              f"{breakdown['missed']} missed, {breakdown['expired']} expired "
              f"(attainment {client.report().deadline_attainment:.3f})")

    # 5. Executors: the same workload drained inline (serial, simulated
    #    clock), on a thread pool, and on real worker processes serving
    #    shipped learner state.  Predictions are identical; what changes
    #    is where batches run and whether the report's clock is modeled
    #    ("simulated") or measured ("wall").
    executor_workload = WorkloadSpec(pattern="zipf", n_users=300,
                                     requests_per_tick=128, n_ticks=4)
    print()
    baseline = None
    for executor in ("serial", "thread", "process"):
        fleet = FleetCoordinator(learner.config, seed=0)
        fleet.provision(4)
        fleet.deploy(package)
        with serve(fleet, routing="hash", seed=0, executor=executor,
                   workers=None if executor == "serial" else 2) as client:
            futures = []
            for requests in TrafficGenerator(pool, executor_workload, seed=11).ticks():
                futures.extend(client.submit_many(requests))
                client.drain()
            class_ids = np.concatenate([f.result().class_ids for f in futures])
            report = client.report()
        if baseline is None:
            baseline = class_ids
        print(f"executor={executor:<8} clock={report.clock:<10} "
              f"{report.aggregate_throughput:9.0f} windows/s  "
              f"predictions identical: {bool(np.array_equal(class_ids, baseline))}")


if __name__ == "__main__":
    main()
