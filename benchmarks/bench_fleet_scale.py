"""Benchmarks of the million-device fleet machinery.

Two gates, both on a serving-only learner (no gradient training, so the
benchmark isolates the coordination layer itself):

1. **Memory sub-linearity** — a pooled fleet holds one copy-on-write
   template per region instead of one learner per device, so growing the
   fleet 100× (10k → 1M devices) must grow peak allocation far less than
   100×; an unpooled fleet at small scale is measured alongside to show the
   per-device cost the pooling removes.
2. **Small-fleet bit-exactness** — a pooled fleet with every device
   materialised must serve the exact predictions (and device assignments)
   of the unpooled fleet under the same seeds, while shipping
   one package per region instead of one per device.

Each gate also emits ``results/<name>.json`` with the measured numbers so CI
artifacts are machine-readable.

Run via pytest (``python -m pytest benchmarks/bench_fleet_scale.py -q -s``)
or directly (``PYTHONPATH=src python benchmarks/bench_fleet_scale.py``).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.backend import precision
from repro.core.config import PiloteConfig
from repro.edge.device import DeviceProfile
from repro.edge.transfer import package_for_edge
from repro.fleet import FleetCoordinator
from repro.server.simulation import make_serving_learner
from repro.serving import PredictRequest, serve

SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, relative_compute=1.0
)

CONFIG = PiloteConfig(hidden_dims=(64, 32), embedding_dim=16, cache_size=600, seed=0)
N_FEATURES = 40


def _peak_bytes(build) -> int:
    """Peak traced allocation while ``build()`` runs."""
    tracemalloc.start()
    try:
        build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return int(peak)


def test_memory_sublinear_in_devices(report):
    """100× more devices must cost far less than 100× the memory."""
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG, per_class=120, n_features=N_FEATURES))

        def build_hier(n_devices: int) -> None:
            fleet = FleetCoordinator(
                CONFIG, profiles=(SIM_NODE,), seed=0, n_regions=min(64, n_devices)
            )
            fleet.provision(n_devices)
            fleet.deploy(package)
            fleet.serving_lanes()
            fleet.lane_map()

        def build_flat(n_devices: int) -> None:
            fleet = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=0)
            fleet.provision(n_devices)
            fleet.deploy(package)

        flat_small = _peak_bytes(lambda: build_flat(200))
        hier_small = _peak_bytes(lambda: build_hier(200))
        hier_10k = _peak_bytes(lambda: build_hier(10_000))
        hier_1m = _peak_bytes(lambda: build_hier(1_000_000))

    ratio = hier_1m / max(hier_10k, 1)
    report(
        "bench_fleet_scale_memory",
        "hierarchical fleet peak allocation (provision + deploy + lanes)\n"
        f"  flat,         200 devices: {flat_small / 2**20:10.1f} MB\n"
        f"  hierarchical, 200 devices: {hier_small / 2**20:10.1f} MB\n"
        f"  hierarchical, 10k devices: {hier_10k / 2**20:10.1f} MB\n"
        f"  hierarchical,  1M devices: {hier_1m / 2**20:10.1f} MB\n"
        f"  10k -> 1M growth:          {ratio:10.1f}x (devices grew 100x)",
        data={
            "flat_200_bytes": flat_small,
            "hier_200_bytes": hier_small,
            "hier_10k_bytes": hier_10k,
            "hier_1m_bytes": hier_1m,
            "growth_10k_to_1m": ratio,
        },
    )
    assert ratio < 50.0  # sub-linear: 100x devices, < 50x memory
    assert hier_small < flat_small / 5  # pooling removes the per-device copies


def test_small_fleet_bit_exact_with_flat(report):
    """Regional serving is a pure optimisation: flat predictions, fewer bytes."""
    n_devices, n_regions = 8, 4
    with precision("edge"):
        package = package_for_edge(make_serving_learner(CONFIG, per_class=120, n_features=N_FEATURES))
        flat = FleetCoordinator(CONFIG, profiles=(SIM_NODE,), seed=11)
        flat.provision(n_devices)
        flat.deploy(package)
        tree = FleetCoordinator(
            CONFIG, profiles=(SIM_NODE,), seed=11, n_regions=n_regions
        )
        tree.provision(n_devices)
        tree.deploy(package)
        for device_id in range(n_devices):
            tree.device(device_id)

        rng = np.random.default_rng(2)
        requests = [
            PredictRequest(user_id=user, features=rng.normal(size=(4, N_FEATURES)))
            for user in range(200)
        ]
        outputs = []
        for fleet in (flat, tree):
            client = serve(fleet, seed=5)
            try:
                pending = [client.submit(r) for r in requests]
                client.drain()
                outputs.append([p.result() for p in pending])
            finally:
                client.close()

    identical = all(
        a.device_id == b.device_id and np.array_equal(a.class_ids, b.class_ids)
        for a, b in zip(*outputs)
    )
    report(
        "bench_fleet_scale_exact",
        f"flat vs hierarchical fleet ({n_devices} devices, {n_regions} regions, "
        f"{len(requests)} requests)\n"
        f"  predictions + device assignment identical: {identical}\n"
        f"  deploy shipments, flat: {flat.transfers.deploy_shipments} "
        f"({flat.transfers.deploy_bytes / 2**20:.2f} MB)\n"
        f"  deploy shipments, tree: {tree.transfers.deploy_shipments} "
        f"({tree.transfers.deploy_bytes / 2**20:.2f} MB)",
        data={
            "identical": identical,
            "flat_deploy_bytes": flat.transfers.deploy_bytes,
            "tree_deploy_bytes": tree.transfers.deploy_bytes,
            "flat_deploy_shipments": flat.transfers.deploy_shipments,
            "tree_deploy_shipments": tree.transfers.deploy_shipments,
        },
    )
    assert identical
    assert tree.transfers.deploy_shipments == n_regions
    assert tree.transfers.deploy_bytes < flat.transfers.deploy_bytes


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_memory_sublinear_in_devices(_report)
    test_small_fleet_bit_exact_with_flat(_report)
    print("\nall fleet-scale benchmarks passed")
