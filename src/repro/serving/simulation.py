"""`pilote serve` — one workload, three serving layers, one API.

The demonstration behind the acceptance story of the unified serving API:
the *same* seeded request stream is answered by

1. the cloud's pre-trained :class:`~repro.core.pilote.PILOTE` learner,
   served in process before it is shipped,
2. the paper's one-device :class:`~repro.edge.magneto.MagnetoPlatform`, and
3. an N-device :class:`~repro.fleet.FleetCoordinator` fleet,

all through :func:`repro.serving.serve` with identical
:class:`~repro.serving.PredictRequest` / :class:`~repro.serving.PredictResponse`
types.  The run reports per-layer throughput/latency on the simulated clock
and each layer's prediction agreement with the bare learner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.data.streams import build_incremental_scenario
from repro.edge.magneto import MagnetoPlatform
from repro.exceptions import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.simulation import FLEET_SCENARIO
from repro.fleet.traffic import TrafficGenerator, WorkloadSpec
from repro.serving.client import serve
from repro.utils.logging import get_logger
from repro.utils.rng import resolve_rng

logger = get_logger("serving.simulation")


@dataclass
class ServingSimulationResult:
    """Per-layer serving statistics for the same request stream."""

    routing_policy: str
    n_requests: int
    layer_rows: List[Dict[str, object]] = field(default_factory=list)
    scheduling_order: str = "fifo"

    def to_text(self) -> str:
        lines = [
            "Unified serving API: one request stream, three layers",
            "",
            f"requests per layer: {self.n_requests}  "
            f"(routing policy: {self.routing_policy}, "
            f"scheduling: {self.scheduling_order})",
            "",
            f"{'layer':>10}{'devices':>9}{'windows':>9}{'throughput':>12}"
            f"{'mean ms':>9}{'p99 ms':>9}{'agreement':>11}",
        ]
        for row in self.layer_rows:
            lines.append(
                f"{row['layer']:>10}{row['devices']:>9}{row['windows']:>9}"
                f"{row['throughput']:>12.0f}{row['mean_latency_ms']:>9.2f}"
                f"{row['p99_latency_ms']:>9.2f}{row['agreement']:>11.4f}"
            )
        lines.extend(
            [
                "",
                "every layer answered the identical PredictRequest stream through",
                "repro.serving.serve(...) and returned PredictResponse futures.",
            ]
        )
        return "\n".join(lines)


def run(
    settings: Optional[ExperimentSettings] = None,
    *,
    n_devices: Optional[int] = None,
    routing: Optional[str] = None,
    scheduling: Optional[str] = None,
) -> ServingSimulationResult:
    """Serve one seeded workload through learner, platform and fleet.

    ``scheduling`` picks the event-loop queue order (``"fifo"``/``"edf"``);
    the stream itself is deadline-less, so both orders serve it identically
    — the flag exists to exercise the EDF path end to end from the CLI.
    """
    settings = settings or ExperimentSettings.default()
    scheduling = scheduling or "fifo"
    n_devices = n_devices if n_devices is not None else FLEET_SCENARIO.n_devices
    if n_devices <= 0:
        raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
    rng = resolve_rng(settings.seed)
    dataset = make_dataset(settings, rng=rng)
    scenario = build_incremental_scenario(
        dataset, [int(c) for c in FLEET_SCENARIO.new_classes], rng=rng
    )

    # One cloud pre-training feeds every layer: the cloud learner is served
    # bare, and the platform's device and the fleet's devices are built from
    # its one package.
    platform = MagnetoPlatform(settings.config, seed=settings.seed)
    platform.cloud_pretrain(
        scenario.old_train,
        scenario.old_validation,
        exemplars_per_class=settings.exemplars_per_class,
    )
    package = platform.deploy_to_edge()
    learner = platform.cloud_learner

    fleet = FleetCoordinator(settings.config, seed=settings.seed)
    fleet.provision(n_devices)
    fleet.deploy(package)

    workload = WorkloadSpec(
        pattern="zipf",
        n_users=64,
        requests_per_tick=32,
        n_ticks=6,
        tick_seconds=0.0,
    )
    layers = [
        ("learner", learner, 1),
        ("platform", platform, 1),
        ("fleet", fleet, n_devices),
    ]
    baseline: Optional[np.ndarray] = None
    rows: List[Dict[str, object]] = []
    n_requests = 0
    for label, target, devices in layers:
        client = serve(target, routing=routing, scheduling=scheduling, seed=settings.seed)
        traffic = TrafficGenerator(scenario.test, workload, seed=settings.seed)
        futures = []
        for requests in traffic.ticks():
            futures.extend(client.submit_many(requests))
            client.drain()
        class_ids = np.concatenate([f.result().class_ids for f in futures])
        if baseline is None:
            baseline = class_ids
        report = client.report()
        n_requests = int(report.total_requests)
        rows.append(
            {
                "layer": label,
                "devices": devices,
                "windows": int(report.total_windows),
                "throughput": report.aggregate_throughput,
                "mean_latency_ms": report.mean_latency_seconds * 1e3,
                "p99_latency_ms": report.p99_latency_seconds * 1e3,
                "agreement": float(np.mean(class_ids == baseline)),
            }
        )
        logger.info(
            "served %d requests through the %s layer (%s routing)",
            n_requests,
            label,
            client.routing,
        )
    return ServingSimulationResult(
        routing_policy=routing or "hash",
        n_requests=n_requests,
        layer_rows=rows,
        scheduling_order=scheduling,
    )
