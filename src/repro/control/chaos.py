"""Chaos suite: seeded failure injection with exactly-once accounting.

``pilote chaos run`` drives the serving stack through reproducible failure
scenarios and proves the invariant the rest of the control plane leans on:
**no future is ever dropped or answered twice**, no matter what dies
mid-stream.  Every scenario reports, per run::

    sent == answered + failed        (client side: every future resolved)
    unresolved == 0                  (nothing left pending after drain)
    double_fired == 0                (no done-callback fired twice)
    server_requests == sent + hedges (server side: every submit accounted)

Scenarios (registry :data:`CHAOS_SCENARIOS`):

* ``worker-storm`` — waves of :class:`~repro.exceptions.WorkerDiedError`
  raised from the devices themselves (:class:`FlakyDevice`), on the
  simulated clock; hedged requests route around the dying lanes.
* ``worker-storm-process`` — *real* worker processes killed mid-stream
  (:meth:`~repro.serving.executor.ProcessExecutor.kill_worker`); in-flight
  batches fail typed and the pool respawns.
* ``stragglers`` — devices slowed :data:`SLOW_FACTOR`× mid-run
  (:class:`StragglerDevice`).  It tests exactly-once delivery and
  deadline attainment under slowdown, not hedging: on the simulated
  clock a lane slowed 8× serves a whole 48-row tick in 1.66 ms, well
  inside the 20 ms tick and the 25 ms deadline, so every tick drains
  before the next and no projected service begin passes a deadline.
  Both modes answer 576/576 with 0 hedges.
* ``restart`` — the serving client is closed with requests still queued
  (every pending future fails with
  :class:`~repro.exceptions.ClientClosedError`, none dropped) and a new
  client is rebuilt over the same fleet mid-stream.

Injection is device- and executor-level, through seams production code
already exercises (`LaneResult.error`, worker crash handling, ``close()``):
the chaos layer adds *no* alternate failure path that tests would then
prove instead of the real one.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError, WorkerDiedError

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosRunReport",
    "ChaosSpec",
    "FlakyDevice",
    "StragglerDevice",
    "run_chaos",
    "run_suite",
]


# ---------------------------------------------------------------------- #
class FlakyDevice:
    """Device wrapper that fails every batch while its storm is active.

    Failures surface as :class:`~repro.exceptions.WorkerDiedError` raised
    from ``infer`` — the exact error a crashed worker process produces, so
    schedulers, executors and stats treat injected deaths identically to
    real ones (but deterministically, and on the simulated clock).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.failing = False
        self.storm_hits = 0

    # The scheduler/executor device surface, proxied.
    @property
    def device_id(self) -> int:
        return self.inner.device_id

    @property
    def profile(self):
        return self.inner.profile

    @property
    def engine(self):
        return getattr(self.inner, "engine", None)

    @property
    def serving_dtype(self):
        return getattr(self.inner, "serving_dtype", None)

    @property
    def is_deployed(self) -> bool:
        return getattr(self.inner, "is_deployed", True)

    def infer(self, windows):
        if self.failing:
            self.storm_hits += 1
            raise WorkerDiedError(
                f"chaos: device {self.device_id} dropped mid-batch (injected)"
            )
        return self.inner.infer(windows)


#: How many times slower a flagged straggler runs.
SLOW_FACTOR = 8.0


class StragglerDevice:
    """Device wrapper that runs :data:`SLOW_FACTOR`× slower while flagged.

    Implemented through the profile's ``relative_compute`` — the same knob
    that models heterogeneous hardware — so simulated service times stretch
    without touching the engine output (answers stay bit-identical).
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.slow = False

    @property
    def device_id(self) -> int:
        return self.inner.device_id

    @property
    def profile(self):
        profile = self.inner.profile
        if not self.slow:
            return profile
        return dataclasses.replace(
            profile, relative_compute=profile.relative_compute / SLOW_FACTOR
        )

    @property
    def engine(self):
        return getattr(self.inner, "engine", None)

    @property
    def serving_dtype(self):
        return getattr(self.inner, "serving_dtype", None)

    @property
    def is_deployed(self) -> bool:
        return getattr(self.inner, "is_deployed", True)

    def infer(self, windows):
        return self.inner.infer(windows)


# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ChaosSpec:
    """One reproducible chaos scenario (same spec + seed → same report)."""

    name: str
    scenario: str  # worker-storm | worker-storm-process | stragglers | restart
    seed: int = 0
    n_devices: int = 4
    n_ticks: int = 12
    requests_per_tick: int = 48
    executor: str = "serial"
    workers: Optional[int] = None
    #: Ticks during which the injected fault is active.
    storm_ticks: Tuple[int, ...] = (4, 5, 6)
    #: Lane positions the fault targets.
    storm_devices: Tuple[int, ...] = (0,)
    restart_tick: int = 6
    #: Relative deadline per request, milliseconds; ``None`` = no deadlines.
    deadline_ms: Optional[float] = 40.0

    def __post_init__(self) -> None:
        if self.scenario not in (
            "worker-storm", "worker-storm-process", "stragglers", "restart"
        ):
            raise ConfigurationError(
                f"unknown chaos scenario {self.scenario!r}"
            )
        if self.n_devices <= 0 or self.n_ticks <= 0 or self.requests_per_tick <= 0:
            raise ConfigurationError(
                "n_devices, n_ticks and requests_per_tick must be positive"
            )
        if any(t < 0 or t >= self.n_ticks for t in self.storm_ticks):
            raise ConfigurationError(
                f"storm_ticks must lie in [0, {self.n_ticks}), got "
                f"{self.storm_ticks}"
            )
        if any(d < 0 or d >= self.n_devices for d in self.storm_devices):
            raise ConfigurationError(
                f"storm_devices must lie in [0, {self.n_devices}), got "
                f"{self.storm_devices}"
            )
        if self.scenario == "restart" and not 0 <= self.restart_tick < self.n_ticks:
            raise ConfigurationError(
                f"restart_tick must lie in [0, {self.n_ticks}), got "
                f"{self.restart_tick}"
            )


#: The suite ``pilote chaos run`` executes, in order.
CHAOS_SCENARIOS: Dict[str, ChaosSpec] = {
    spec.name: spec
    for spec in (
        ChaosSpec(
            name="worker-storm",
            scenario="worker-storm",
            storm_ticks=(3, 4, 5, 6),
            storm_devices=(0, 1),
        ),
        ChaosSpec(
            name="worker-storm-process",
            scenario="worker-storm-process",
            executor="process",
            workers=2,
            n_ticks=6,
            requests_per_tick=16,
            storm_ticks=(2, 3),
            deadline_ms=None,  # wall-clock executor: no simulated deadlines
        ),
        ChaosSpec(
            name="stragglers",
            scenario="stragglers",
            storm_ticks=(4, 5, 6, 7),
            storm_devices=(0,),
            deadline_ms=25.0,
        ),
        ChaosSpec(
            name="restart",
            scenario="restart",
            restart_tick=6,
        ),
    )
}


# ---------------------------------------------------------------------- #
@dataclass
class ChaosRunReport:
    """Outcome ledger of one chaos run; :meth:`exactly_once` is the gate."""

    name: str
    scenario: str
    adaptive: bool
    seed: int
    sent: int = 0
    answered: int = 0
    failed: int = 0
    unresolved: int = 0
    double_fired: int = 0
    server_requests: int = 0
    hedges_fired: int = 0
    cancelled: int = 0
    deadline_attainment: float = 1.0
    failed_by_type: Dict[str, int] = field(default_factory=dict)
    sanitized: bool = False
    sanitizer_violations: int = 0

    @property
    def exactly_once(self) -> bool:
        """No dropped and no double-answered futures, both sides.

        Client side: every submitted future resolved exactly once.  Server
        side: the scheduler accounted every submission — the caller's
        ``sent`` plus the hedge clones the control plane fired.
        """
        return (
            self.sent == self.answered + self.failed
            and self.unresolved == 0
            and self.double_fired == 0
            and self.server_requests == self.sent + self.hedges_fired
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "scenario": self.scenario,
            "adaptive": self.adaptive,
            "seed": self.seed,
            "sent": self.sent,
            "answered": self.answered,
            "failed": self.failed,
            "unresolved": self.unresolved,
            "double_fired": self.double_fired,
            "server_requests": self.server_requests,
            "hedges_fired": self.hedges_fired,
            "cancelled": self.cancelled,
            "deadline_attainment": self.deadline_attainment,
            "failed_by_type": dict(self.failed_by_type),
            "sanitized": self.sanitized,
            "sanitizer_violations": self.sanitizer_violations,
            "exactly_once": self.exactly_once,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ChaosRunReport":
        keys = (
            "name", "scenario", "adaptive", "seed", "sent", "answered",
            "failed", "unresolved", "double_fired", "server_requests",
            "hedges_fired", "cancelled", "deadline_attainment",
            "failed_by_type", "sanitized", "sanitizer_violations",
        )
        data = {key: payload[key] for key in keys if key in payload}
        data["failed_by_type"] = dict(data.get("failed_by_type", {}))
        return cls(**data)  # type: ignore[arg-type]

    def to_text(self) -> str:
        verdict = "OK" if self.exactly_once else "VIOLATED"
        parts = [
            f"{self.name:<22} sent={self.sent:<5} answered={self.answered:<5}"
            f" failed={self.failed:<4} unresolved={self.unresolved}"
            f" double={self.double_fired} hedges={self.hedges_fired}"
            f" cancelled={self.cancelled}"
            f" attainment={self.deadline_attainment:.3f}"
            f" exactly-once={verdict}"
        ]
        for kind, count in sorted(self.failed_by_type.items()):
            parts.append(f"    {kind}: {count}")
        return "\n".join(parts)


# ---------------------------------------------------------------------- #
def _wrap_devices(fleet, spec: ChaosSpec):
    """Install the scenario's device wrappers through ``replace_device``.

    Returns the wrappers so the injection loop can flip their flags; the
    scheduler sees them because the fleet swaps them into its live lanes.
    """
    wrappers = []
    if spec.scenario == "worker-storm":
        for position in spec.storm_devices:
            wrapper = FlakyDevice(fleet.devices[position])
            fleet.replace_device(wrapper.device_id, wrapper)
            wrappers.append(wrapper)
    elif spec.scenario == "stragglers":
        for position in spec.storm_devices:
            wrapper = StragglerDevice(fleet.devices[position])
            fleet.replace_device(wrapper.device_id, wrapper)
            wrappers.append(wrapper)
    return wrappers


def run_chaos(
    spec: ChaosSpec, *, adaptive: bool = True, sanitize: bool = False
) -> ChaosRunReport:
    """Drive one seeded chaos scenario end to end and account every future.

    With ``sanitize=True`` every client the run builds (including the
    post-restart replacement) is instrumented by a shared
    :class:`~repro.analysis.Sanitizer`; the report carries the observed
    cross-thread-write count so the suite doubles as a race detector.
    """
    # Deferred imports: chaos reuses the server simulation's fleet factory,
    # which imports serving — importing it at module load would cycle.
    from repro.analysis.sanitizer import Sanitizer
    from repro.fleet.traffic import TrafficGenerator, WorkloadSpec
    from repro.server.simulation import _feature_pool, build_serving_fleet
    from repro.serving import serve

    fleet = build_serving_fleet(spec.n_devices, seed=spec.seed)
    wrappers = _wrap_devices(fleet, spec)
    workload = WorkloadSpec(
        pattern="zipf",
        n_users=max(64, 8 * spec.requests_per_tick),
        requests_per_tick=spec.requests_per_tick,
        n_ticks=spec.n_ticks,
        tick_seconds=0.02,
        deadline_seconds=(
            None if spec.deadline_ms is None else spec.deadline_ms / 1000.0
        ),
    )
    traffic = TrafficGenerator(_feature_pool(spec.seed), workload, seed=spec.seed)

    sanitizer = Sanitizer() if sanitize else None

    def build_client():
        built = serve(
            fleet,
            routing="p2c" if spec.n_devices > 1 else "hash",
            scheduling="edf" if spec.deadline_ms is not None else "fifo",
            seed=spec.seed,
            executor=spec.executor,
            workers=spec.workers,
            adaptive=adaptive,
        )
        if sanitizer is not None:
            sanitizer.attach(built)
        return built

    client = build_client()
    report = ChaosRunReport(
        name=spec.name, scenario=spec.scenario, adaptive=adaptive, seed=spec.seed,
        sanitized=sanitize,
    )
    futures: List = []
    fired: List[int] = []  # id() per done-callback fire; dupes = double answer

    def on_done(future) -> None:
        fired.append(id(future))

    storm = set(spec.storm_ticks)
    retired_reports = []
    try:
        for tick, requests in enumerate(traffic.ticks()):
            if spec.scenario in ("worker-storm", "stragglers"):
                active = tick in storm
                for wrapper in wrappers:
                    if spec.scenario == "worker-storm":
                        wrapper.failing = active
                    else:
                        wrapper.slow = active
            elif spec.scenario == "worker-storm-process" and tick in storm:
                # Kill a real worker; don't wait — the death lands mid-round
                # and the next _reap_dead respawns it.
                client.scheduler.executor.kill_worker(tick, wait=False)
            wave = client.submit_many(requests)
            for future in wave:
                future.add_done_callback(on_done)
            futures.extend(wave)
            report.sent += len(wave)
            if spec.scenario == "restart" and tick == spec.restart_tick:
                # Close with this tick's wave still queued: every pending
                # future must fail typed (ClientClosedError), none dropped.
                client.close()
                retired_reports.append(_server_side(client))
                client = build_client()
                continue
            client.drain()
        client.drain()
        retired_reports.append(_server_side(client))
    finally:
        client.close()

    for future in futures:
        if not future.done():
            report.unresolved += 1
            continue
        error = future.exception()
        if error is None:
            report.answered += 1
        else:
            report.failed += 1
            kind = type(error).__name__
            report.failed_by_type[kind] = report.failed_by_type.get(kind, 0) + 1
    report.double_fired = len(fired) - len(set(fired))
    for side in retired_reports:
        report.server_requests += side["requests"]
        report.hedges_fired += side["hedges"]
        report.cancelled += side["cancelled"]
    if retired_reports:
        report.deadline_attainment = retired_reports[-1]["attainment"]
    if sanitizer is not None:
        report.sanitizer_violations = len(sanitizer.violations)
    return report


def _server_side(client) -> Dict[str, object]:
    """Scheduler-side accounting for one client's lifetime.

    ``requests`` is the scheduler's full conservation sum — served +
    expired (incl. rejected) + failed + cancelled — i.e. every
    submission the scheduler resolved, one way exactly.
    """
    routing_report = client.report()
    plane = client.control
    accounted = (
        routing_report.total_requests        # served
        + routing_report.total_expired       # expired while queued + rejected
        + routing_report.total_failed        # device/worker death mid-batch
        + routing_report.total_cancelled     # hedge losers cancelled pre-service
    )
    return {
        "requests": accounted,
        "hedges": plane.hedges.fired if plane is not None else 0,
        "cancelled": routing_report.total_cancelled,
        "attainment": routing_report.deadline_attainment,
    }


def run_suite(
    names: Optional[Sequence[str]] = None,
    *,
    adaptive: bool = True,
    seed: Optional[int] = None,
    sanitize: bool = False,
) -> List[ChaosRunReport]:
    """Run the named scenarios (default: the whole registry, in order)."""
    if names is None:
        specs = list(CHAOS_SCENARIOS.values())
    else:
        unknown = [n for n in names if n not in CHAOS_SCENARIOS]
        if unknown:
            raise ConfigurationError(
                f"unknown chaos scenario(s) {unknown}; available: "
                f"{sorted(CHAOS_SCENARIOS)}"
            )
        specs = [CHAOS_SCENARIOS[n] for n in names]
    if seed is not None:
        specs = [dataclasses.replace(spec, seed=seed) for spec in specs]
    return [run_chaos(spec, adaptive=adaptive, sanitize=sanitize) for spec in specs]
