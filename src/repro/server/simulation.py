"""CLI runners for the network front door: ``pilote serve-net`` / ``bench-client``.

``serve-net`` stands up a real asyncio socket server over a freshly built
serving fleet (pooled into regions with ``--regions``) and answers wire
traffic for a bounded duration (or forever); ``bench-client`` is the
matching closed-loop load generator — pointed at a running server, or
self-hosting a loopback server when no ``--port`` is given, which makes it
a one-command end-to-end demo of the whole stack: traffic generation →
wire frames → asyncio bridge → scheduler → process executor → SLO report.

The fleet serves a *training-free* learner (class prototypes set directly,
as ``benchmarks/bench_workers.py`` does) so the CLI spends its time on
serving, not on gradient pre-training.
"""

from __future__ import annotations

import asyncio
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy as np

from repro.backend import precision
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.edge.device import DeviceProfile
from repro.edge.transfer import package_for_edge
from repro.exceptions import ConfigurationError
from repro.fleet.coordinator import FleetCoordinator
from repro.fleet.traffic import TrafficGenerator, WorkloadSpec
from repro.serving.client import serve
from repro.server.client import LoadReport, run_load
from repro.server.server import ServingServer
from repro.utils.logging import get_logger
from repro.utils.rng import resolve_rng

logger = get_logger("server.simulation")

#: Homogeneous simulation node (generous budgets, reference-speed compute).
SIM_NODE = DeviceProfile(
    "sim-node", storage_bytes=256 * 2**20, relative_compute=1.0
)

#: Serving-only backbone: wide enough that batches do real work, small
#: enough that the CLI starts in seconds.
SERVING_CONFIG = PiloteConfig(
    hidden_dims=(256, 128), embedding_dim=32, cache_size=1200, seed=0
)
N_FEATURES = 80


def make_serving_learner(
    config: PiloteConfig = SERVING_CONFIG,
    *,
    n_classes: int = 5,
    per_class: int = 150,
    n_features: int = N_FEATURES,
    seed: int = 0,
) -> PILOTE:
    """A pre-trained-looking learner built without gradient training."""
    rng = resolve_rng(seed)
    learner = PILOTE(config, seed=seed)
    learner.model = EmbeddingNetwork(n_features, config=config, rng=seed)
    learner._old_classes = list(range(n_classes))
    for class_id in range(n_classes):
        learner.exemplars.set_exemplars(
            class_id, rng.normal(size=(per_class, n_features))
        )
    learner._refresh_prototypes()
    return learner


def build_serving_fleet(
    n_devices: int,
    *,
    regions: Optional[int] = None,
    seed: int = 0,
) -> FleetCoordinator:
    """A deployed, warmed fleet ready to sit behind the front door.

    With ``regions`` the fleet pools its devices into that many regions —
    the server then fronts the pooled regional serving lanes, exactly what
    ``serve()`` builds for million-device simulations.
    """
    if n_devices <= 0:
        raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
    package = package_for_edge(make_serving_learner(seed=seed))
    fleet = FleetCoordinator(
        SERVING_CONFIG, profiles=(SIM_NODE,), seed=seed, n_regions=regions
    )
    fleet.provision(n_devices)
    fleet.deploy(package)
    for lane in fleet.serving_lanes():
        engine = getattr(lane, "engine", None)
        if engine is not None:
            engine.warm()
    return fleet


def _feature_pool(seed: int, n_rows: int = 4096) -> np.ndarray:
    return (
        resolve_rng(seed)
        .normal(size=(n_rows, N_FEATURES))
        .astype(np.float32)
    )


# ---------------------------------------------------------------------- #
@dataclass
class ServeNetResult:
    """What ``pilote serve-net`` prints after the serving window closes."""

    host: str
    port: int
    duration_seconds: float
    n_devices: int
    routing: str
    scheduling: str
    executor: str
    regions: Optional[int]
    stats: Dict[str, Any] = field(default_factory=dict)

    def to_text(self) -> str:
        server = self.stats.get("server", {})
        report = self.stats.get("report", {})
        fleet = (
            f"{self.n_devices} devices"
            + (f" in {self.regions} regions" if self.regions else "")
        )
        lines = [
            "network front door: asyncio serving bridge over the fleet",
            "",
            f"  listened on:          {self.host}:{self.port}"
            f"  ({self.duration_seconds:g}s window)",
            f"  fleet:                {fleet}  (routing {self.routing}, "
            f"scheduling {self.scheduling}, executor {self.executor})",
            f"  connections:          {server.get('connections_total', 0)}",
            f"  received:             {server.get('received', 0)}",
            f"  answered:             {server.get('answered', 0)}",
            f"  failed (typed):       {server.get('failed', 0)}"
            + (
                f"  {server.get('failed_by_type')}"
                if server.get("failed", 0)
                else ""
            ),
            f"  e2e p50 / p99:        {server.get('e2e_p50_ms', 0.0):.2f} / "
            f"{server.get('e2e_p99_ms', 0.0):.2f} ms",
            f"  windows served:       {report.get('total_windows', 0)}"
            f"  (scheduler clock: {report.get('clock', '?')})",
        ]
        if "slo_attainment" in server:
            lines.append(
                f"  slo_attainment:       {server['slo_attainment']:.4f}"
                f"  (target {server.get('slo_target_ms', 0):g} ms)"
            )
        lines.append(
            "  every received request was answered or failed typed exactly once"
        )
        return "\n".join(lines)


def run_server(
    settings=None,
    *,
    host: str = "127.0.0.1",
    port: int = 7431,
    duration: float = 10.0,
    n_devices: Optional[int] = None,
    routing: Optional[str] = None,
    scheduling: Optional[str] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    regions: Optional[int] = None,
    slo_target_ms: Optional[float] = None,
) -> ServeNetResult:
    """Build a fleet, serve it over a socket for ``duration`` seconds.

    ``duration <= 0`` serves until interrupted.  The ``settings`` argument
    (the CLI's scale preset) only contributes its seed: the fleet serves a
    training-free learner so startup is fast.
    """
    n_devices = n_devices if n_devices is not None else 4
    seed = getattr(settings, "seed", 0) if settings is not None else 0
    scheduling = scheduling or "fifo"
    executor_name = executor or "process"

    async def _serve() -> ServeNetResult:
        with precision("edge"):
            fleet = build_serving_fleet(n_devices, regions=regions, seed=seed)
            client = serve(
                fleet, routing=routing, seed=seed, scheduling=scheduling,
                executor=executor_name, workers=workers,
            )
            server = ServingServer(
                client, host=host, port=port, slo_target_ms=slo_target_ms
            )
            bound_host, bound_port = await server.start()
            print(
                f"pilote serve-net: listening on {bound_host}:{bound_port} "
                f"({n_devices} devices, executor {executor_name})",
                file=sys.stderr,
                flush=True,
            )
            try:
                if duration > 0:
                    await asyncio.sleep(duration)
                else:
                    await asyncio.Event().wait()  # forever (Ctrl-C to stop)
            finally:
                stats = await server.stats_dict()
                await server.stop()
            return ServeNetResult(
                host=bound_host,
                port=bound_port,
                duration_seconds=duration,
                n_devices=n_devices,
                routing=client.routing,
                scheduling=scheduling,
                executor=executor_name,
                regions=regions,
                stats=stats,
            )

    return asyncio.run(_serve())


# ---------------------------------------------------------------------- #
@dataclass
class BenchClientResult:
    """What ``pilote bench-client`` prints: the closed-loop load report."""

    load: LoadReport
    host: str
    port: int
    self_hosted: bool

    def to_text(self) -> str:
        lines = [self.load.to_text()]
        target = (
            f"self-hosted loopback server on {self.host}:{self.port}"
            if self.self_hosted
            else f"server at {self.host}:{self.port}"
        )
        lines.append(f"  target:                 {target}")
        server_stats = self.load.server_stats or {}
        report = server_stats.get("report", {})
        if report:
            lines.append(
                f"  server windows served:  {report.get('total_windows', 0)}"
                f"  (clock: {report.get('clock', '?')}, "
                f"devices: {report.get('devices', 0)})"
            )
        return "\n".join(lines)


def run_bench(
    settings=None,
    *,
    host: str = "127.0.0.1",
    port: Optional[int] = None,
    n_requests: int = 256,
    connections: int = 2,
    window: int = 16,
    pattern: str = "zipf",
    windows_per_request: int = 8,
    deadline_ms: Optional[float] = None,
    n_devices: Optional[int] = None,
    routing: Optional[str] = None,
    scheduling: Optional[str] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    regions: Optional[int] = None,
) -> BenchClientResult:
    """Closed-loop load against a front-door server.

    With ``port`` given, drives the external server at ``host:port`` (the
    fleet flags are ignored — the server picked its own fleet).  Without
    it, self-hosts a loopback server first, so one command exercises the
    full path.
    """
    seed = getattr(settings, "seed", 0) if settings is not None else 0
    spec = WorkloadSpec(
        pattern=pattern,
        n_users=256,
        requests_per_tick=n_requests,
        n_ticks=1,
        windows_per_request=windows_per_request,
        deadline_seconds=deadline_ms / 1e3 if deadline_ms is not None else None,
    )
    requests = TrafficGenerator(_feature_pool(seed), spec, seed=seed).requests()

    async def _drive(target_host: str, target_port: int) -> LoadReport:
        return await run_load(
            target_host,
            target_port,
            requests,
            connections=connections,
            window=window,
            slo_target_ms=deadline_ms,
        )

    if port is not None:
        load = asyncio.run(_drive(host, port))
        return BenchClientResult(load=load, host=host, port=port, self_hosted=False)

    async def _self_hosted() -> BenchClientResult:
        with precision("edge"):
            fleet = build_serving_fleet(
                n_devices if n_devices is not None else 4,
                regions=regions,
                seed=seed,
            )
            client = serve(
                fleet, routing=routing, seed=seed,
                scheduling=scheduling or "fifo",
                executor=executor or "process", workers=workers,
            )
            server = ServingServer(client, slo_target_ms=deadline_ms)
            bound_host, bound_port = await server.start()
            try:
                load = await _drive(bound_host, bound_port)
            finally:
                await server.stop()
            return BenchClientResult(
                load=load, host=bound_host, port=bound_port, self_hosted=True
            )

    return asyncio.run(_self_hosted())
