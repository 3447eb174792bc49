"""Fleet simulation: one cloud broadcast serving many drifting edge devices.

Where ``quickstart.py`` walks the paper's single-device pipeline, this example
exercises the fleet subsystem (:mod:`repro.fleet`) end to end:

1. the cloud pre-trains once and exports one transfer package;
2. a :class:`~repro.fleet.FleetCoordinator` provisions several heterogeneous
   devices and deploys the package to each (independent learners);
3. a seeded Zipf traffic stream is sharded across the fleet by user id while
   each device integrates the held-out 'Run' activity at its own staggered
   tick, from its own share of the new data — so devices genuinely drift;
4. the run reports per-device serving stats, aggregate simulated throughput,
   the per-device accuracy divergence, and a checkpoint → crash → restore
   round-trip on one device;
5. the same broadcast then goes out to a 100,000-device fleet pooled into
   8 regions (``FleetCoordinator(..., n_regions=8)``): regions share one
   copy-on-write template each, only the device that drifts is materialised,
   and the transfer ledger shows one shipment per region rather than per
   device.  ``pilote fleet-sim --devices 1000000`` runs the same layout at
   full scale.

Run with::

    python examples/fleet_simulation.py
"""

import tempfile

import numpy as np

from repro.data import Activity, build_incremental_scenario, make_feature_dataset
from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.edge.device import DEVICE_PROFILES
from repro.edge.transfer import package_for_edge
from repro.fleet import (
    CheckpointStore,
    FleetCoordinator,
    TrafficGenerator,
    WorkloadSpec,
    staggered_schedule,
)
from repro.serving import PredictRequest, serve
from repro.utils.rng import spawn_rngs

SEED = 42
N_DEVICES = 4


def main() -> None:
    # 1. Cloud side: one pre-training run, one package for the whole fleet.
    dataset = make_feature_dataset(samples_per_class=200, seed=SEED)
    scenario = build_incremental_scenario(dataset, [Activity.RUN], rng=SEED)
    config = PiloteConfig.edge_lightweight(seed=SEED)
    learner = PILOTE(config, seed=SEED)
    learner.pretrain(scenario.old_train, scenario.old_validation, exemplars_per_class=50)
    package = package_for_edge(learner)
    print(f"cloud package: {package.total_bytes / 1024:.1f} KB")

    # 2. Provision a heterogeneous fleet and broadcast the package.
    profiles = [DEVICE_PROFILES["smartphone"], DEVICE_PROFILES["raspberry-pi"]]
    fleet = FleetCoordinator(config, profiles=profiles, seed=SEED)
    fleet.provision(N_DEVICES)
    fleet.deploy(package)
    for row in (device.describe() for device in fleet.devices):
        print(f"  device {row['device_id']} ({row['profile']}): "
              f"{row['storage_used'] / 1024:.1f} KB used")

    # 3. Staggered new-activity arrival: device i learns 'Run' at tick 1 + i,
    #    each from its own subsample, so per-device accuracy diverges.
    schedule = staggered_schedule(N_DEVICES, start_tick=1, spacing_ticks=2)
    shares = spawn_rngs(SEED, N_DEVICES)
    for device_id, tick in schedule.items():
        share = scenario.new_train.subsample(
            max(scenario.new_train.n_samples // (device_id + 1), 10), rng=shares[device_id]
        )
        fleet.schedule_increment(device_id, tick, share)

    # 4. Open-loop Zipf traffic sharded across the fleet by user id.
    workload = WorkloadSpec(pattern="zipf", n_users=300, requests_per_tick=64, n_ticks=10)
    traffic = TrafficGenerator(scenario.test, workload, seed=SEED)
    fleet_client = serve(fleet, routing="hash", seed=SEED)
    for tick, requests in enumerate(traffic.ticks()):
        done = fleet.run_due_increments(tick)
        for device_id in done:
            print(f"  tick {tick}: device {device_id} integrated 'Run'")
        fleet_client.submit_many(requests)
        fleet_client.drain()  # per-tick drain keeps increments ordered between ticks
    report = fleet_client.report()
    print(f"\nrouted {report.total_requests} requests "
          f"({report.total_windows} windows) across {len(report.per_device)} devices")
    print(f"aggregate simulated throughput: {report.aggregate_throughput:.0f} windows/s")
    for device_id, stats in sorted(report.per_device.items()):
        print(f"  device {device_id}: {stats.requests} requests, "
              f"{stats.throughput:.0f} win/s, "
              f"mean latency {stats.mean_latency_seconds * 1e3:.2f} ms, "
              f"max queue {stats.max_queue_depth}")

    # 5. Fleet divergence after the staggered increments.
    accuracy = fleet.accuracy_report(scenario.test)
    print("\nper-device accuracy on the five-activity test set:")
    for device_id, value in sorted(accuracy.per_device.items()):
        print(f"  device {device_id}: {value:.4f}")
    print(f"divergence: spread {accuracy.spread:.4f}, std {accuracy.std:.4f}")

    # 6. Crash one device, restore it from its checkpoint on fresh hardware.
    with tempfile.TemporaryDirectory() as scratch:
        store = CheckpointStore(scratch)
        checkpoint = store.save(fleet.device(0))
        restored = store.restore(checkpoint)
        probe = scenario.test.features[:128]
        identical = np.array_equal(fleet.device(0).infer(probe), restored.infer(probe))
        print(f"\ncheckpoint ({checkpoint.nbytes / 1024:.1f} KB) restored on a fresh "
              f"device; predictions identical: {identical}")
        fleet.replace_device(0, restored)

    # 7. Pooled regions: the same broadcast, 100,000 devices, 8 regions.
    #    Pooled devices serve from one copy-on-write template per region; a
    #    device only gets its own learner once it actually drifts.
    tree = FleetCoordinator(config, seed=SEED, n_regions=8)
    tree.provision(100_000)
    tree.deploy(package)
    drifter = tree.device(12_345)  # materialised out of its region's pool
    drifter.learn_new_activity(scenario.new_train.subsample(60, rng=SEED))
    client = serve(tree, seed=SEED)  # hash routing folded onto region lanes
    try:
        pending = [
            client.submit(PredictRequest(user_id=user, features=scenario.test.features[:4]))
            for user in range(32)
        ]
        client.drain()
        answered = sum(p.result() is not None for p in pending)
    finally:
        client.close()
    region = tree.region_of(12_345)
    print(f"\npooled fleet: {len(tree):,} devices in {tree.n_regions} regions, "
          f"{len(tree.serving_lanes())} serving lanes")
    print(f"  region {region.region_id}: {region.n_pooled:,} pooled devices + "
          f"{len(region.materialized)} materialised (device 12,345 drifted)")
    print(f"  broadcast shipped {tree.transfers.deploy_shipments} packages "
          f"({tree.transfers.deploy_bytes / 2**20:.2f} MB) instead of {len(tree):,}")
    print(f"  served {answered}/32 requests through the region lanes")


if __name__ == "__main__":
    main()
