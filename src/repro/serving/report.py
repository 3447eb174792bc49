"""Serving reports: per-device statistics and the fleet-level view.

The event-loop scheduler (:mod:`repro.serving.scheduler`) keeps one
:class:`DeviceStats` row per device lane and summarises them in a
:class:`RoutingReport`.  Timing uses a simulated clock: each per-device
batch is charged the modeled service time of
:func:`~repro.serving.scheduler.service_seconds` (rows x the network's
FLOPs per row, scaled by the profile's ``relative_compute``), and devices
drain their queues *in parallel* in simulated time.  Aggregate fleet
throughput is therefore ``total_windows / makespan`` where the makespan is
the latest completion time across devices — the quantity
``benchmarks/bench_fleet.py`` gates on.  Both types serialise through
``to_dict``/``from_dict`` for the network server's stats endpoint and the
benchmark artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

__all__ = ["ROLLING_WINDOW", "DeviceStats", "RoutingReport"]

#: Rolling-window length (in deadline-carrying request outcomes) for the
#: recent-attainment signal.  Shared by the per-device rows and the
#: fleet-level aggregate, so the stats endpoint quotes one quantity.
ROLLING_WINDOW = 256


@dataclass
class DeviceStats:
    """Serving statistics for one device lane, accumulated by the scheduler."""

    device_id: int
    profile: str
    requests: int = 0
    windows: int = 0
    batches: int = 0
    busy_seconds: float = 0.0        # device-seconds of compute, on ``clock``
    wall_seconds: float = 0.0        # measured engine wall clock (observation)
    total_latency_seconds: float = 0.0
    max_queue_depth: int = 0
    available_at: float = 0.0        # simulated time the device frees up
    #: Served requests that carried a deadline, and how many of those
    #: completed past it (service began in time but finished late).
    #: Requests expired *before* service are counted fleet-wide in
    #: ``RoutingReport.total_expired``.
    deadline_requests: int = 0
    deadline_misses: int = 0
    #: Requests lost on this device to a raising engine/worker (the
    #: per-device view of ``RoutingReport.total_failed``).
    failures: int = 0
    #: Requests currently queued on this device's lane — a *live* gauge
    #: (not a counter) maintained by the scheduler at enqueue and service
    #: time.
    queue_depth: int = 0
    #: Rolling deadline outcomes (1 = met, 0 = missed/expired/rejected) for
    #: the most recent deadline-carrying requests on this lane, bounded to
    #: ``2 * ROLLING_WINDOW`` entries; :attr:`rolling_deadline_attainment`
    #: reads the last ``ROLLING_WINDOW``.
    recent_deadlines: List[int] = field(default_factory=list, repr=False)
    #: Per-request simulated latencies for percentile views, bounded to the
    #: scheduler's most recent LATENCY_HISTORY_CAP requests.
    latencies: List[float] = field(default_factory=list, repr=False)
    #: Which clock the timing columns are on: ``"simulated"`` (the default —
    #: modeled service times, see ``repro.serving.scheduler.service_seconds``,
    #: with devices draining in parallel; a seed determines every value) or
    #: ``"wall"`` (measured elapsed time where the batch actually ran, set by
    #: the concurrent serving executors).  ``wall_seconds`` is measured on
    #: both clocks.
    clock: str = "simulated"

    @property
    def throughput(self) -> float:
        """Windows per simulated busy second on this device."""
        return self.windows / self.busy_seconds if self.busy_seconds > 0 else 0.0

    @property
    def mean_latency_seconds(self) -> float:
        return self.total_latency_seconds / self.requests if self.requests else 0.0

    @property
    def rolling_deadline_attainment(self) -> float:
        """Fraction of the last ``ROLLING_WINDOW`` deadline-carrying
        requests on this lane that met their deadline; ``1.0`` with no
        recent deadline traffic (vacuously attained, matching the
        cumulative :attr:`RoutingReport.deadline_attainment` convention)."""
        recent = self.recent_deadlines[-ROLLING_WINDOW:]
        if not recent:
            return 1.0
        return sum(recent) / len(recent)

    def note_deadline(self, hit: bool) -> None:
        """Append one deadline outcome to the rolling window (bounded)."""
        recent = self.recent_deadlines
        recent.append(1 if hit else 0)
        if len(recent) > 2 * ROLLING_WINDOW:
            del recent[: len(recent) - ROLLING_WINDOW]

    def summary(self) -> Dict[str, float]:
        return {
            "requests": float(self.requests),
            "windows": float(self.windows),
            "batches": float(self.batches),
            "busy_seconds": self.busy_seconds,
            "throughput": self.throughput,
            "mean_latency_seconds": self.mean_latency_seconds,
            "max_queue_depth": float(self.max_queue_depth),
            "deadline_misses": float(self.deadline_misses),
        }

    # -- serialization -------------------------------------------------- #
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of this row (native python scalars only).

        The bounded per-request latency history does not travel — it can be
        megabytes per device and every percentile consumers care about is
        already aggregated on the owning :class:`RoutingReport`.
        """
        return {
            "device_id": int(self.device_id),
            "profile": str(self.profile),
            "requests": int(self.requests),
            "windows": int(self.windows),
            "batches": int(self.batches),
            "busy_seconds": float(self.busy_seconds),
            "wall_seconds": float(self.wall_seconds),
            "total_latency_seconds": float(self.total_latency_seconds),
            "max_queue_depth": int(self.max_queue_depth),
            "available_at": float(self.available_at),
            "deadline_requests": int(self.deadline_requests),
            "deadline_misses": int(self.deadline_misses),
            "failures": int(self.failures),
            "queue_depth": int(self.queue_depth),
            "rolling_deadline_attainment": float(self.rolling_deadline_attainment),
            "rolling_window": min(len(self.recent_deadlines), ROLLING_WINDOW),
            "clock": str(self.clock),
            "throughput": float(self.throughput),
            "mean_latency_seconds": float(self.mean_latency_seconds),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceStats":
        """Rebuild a row from :meth:`to_dict` output.

        Derived keys are ignored, except the exported rolling pair: the
        window is rebuilt from ``rolling_window`` outcomes of which
        ``rolling_deadline_attainment`` met their deadline.  Their order
        does not travel, so the rebuilt window lists the hits first.
        """
        fields = {
            key: data[key]
            for key in (
                "device_id", "profile", "requests", "windows", "batches",
                "busy_seconds", "wall_seconds", "total_latency_seconds",
                "max_queue_depth", "available_at", "deadline_requests",
                "deadline_misses", "failures", "queue_depth", "clock",
            )
            if key in data
        }
        window = int(data.get("rolling_window", 0))
        hits = round(float(data.get("rolling_deadline_attainment", 1.0)) * window)
        fields["recent_deadlines"] = [1] * hits + [0] * (window - hits)
        return cls(**fields)  # type: ignore[arg-type]


@dataclass
class RoutingReport:
    """Fleet-level view over the per-device stats after a routed stream.

    ``total_requests`` counts *served* requests (it matches the sum of the
    per-device rows); requests that were never served are broken out
    separately: ``total_expired`` holds deadline expiries (including the
    ``total_rejected`` subset failed by admission control at submit time)
    and ``total_failed`` holds requests lost to a raising device.  Served
    requests that carried a deadline but completed past it are counted in
    the per-device ``deadline_misses`` rows (``total_deadline_misses``
    here); :meth:`deadline_attainment` and :meth:`slo_attainment` summarise
    the served / missed / expired breakdown.
    """

    per_device: Dict[int, DeviceStats]
    total_requests: int = 0
    total_windows: int = 0
    total_expired: int = 0
    total_rejected: int = 0
    total_failed: int = 0
    #: Queued requests cancelled before service (hedged-request losers,
    #: failed with :class:`RequestCancelledError`).  *Not* part of
    #: ``total_expired``/``total_failed`` and excluded from SLO
    #: denominators: each cancelled attempt's logical request was answered
    #: exactly once by its winning twin.
    total_cancelled: int = 0
    #: All-time count of requests resolved one way or another — served +
    #: expired (incl. rejected) + failed.  Unlike the per-device latency
    #: history (bounded to ``LATENCY_HISTORY_CAP`` samples), this never
    #: trims, which keeps :meth:`slo_attainment` consistent on long runs.
    #: ``0`` (reports built before the counter existed) falls back to the
    #: sum of the totals above.
    resolved_requests: int = 0

    @property
    def clock(self) -> str:
        """Clock the timing columns are on: ``simulated``/``wall``/``mixed``."""
        modes = {stats.clock for stats in self.per_device.values()}
        if not modes:
            return "simulated"
        return modes.pop() if len(modes) == 1 else "mixed"

    @property
    def makespan_seconds(self) -> float:
        """Simulated time at which the last device finishes its queue."""
        return max((s.available_at for s in self.per_device.values()), default=0.0)

    @property
    def aggregate_throughput(self) -> float:
        """Windows per simulated second with devices draining in parallel."""
        makespan = self.makespan_seconds
        return self.total_windows / makespan if makespan > 0 else 0.0

    @property
    def engine_wall_seconds(self) -> float:
        """Measured (not simulated) engine compute across the fleet."""
        return sum(s.wall_seconds for s in self.per_device.values())

    @property
    def mean_latency_seconds(self) -> float:
        total = sum(s.total_latency_seconds for s in self.per_device.values())
        return total / self.total_requests if self.total_requests else 0.0

    def latency_percentile(self, quantile: float) -> float:
        """Simulated latency percentile (``quantile`` in [0, 100]).

        Needs per-request latencies, which the scheduler records over its
        most recent window per device (see
        ``repro.serving.scheduler.LATENCY_HISTORY_CAP``); returns 0.0 for a
        report without them, such as one restored by :meth:`from_dict`.
        """
        samples = [
            latency
            for stats in self.per_device.values()
            for latency in stats.latencies
        ]
        if not samples:
            return 0.0
        return float(np.percentile(np.asarray(samples), quantile))

    @property
    def p99_latency_seconds(self) -> float:
        return self.latency_percentile(99.0)

    @property
    def total_queue_depth(self) -> int:
        """Requests currently queued across the fleet (live gauge)."""
        return sum(s.queue_depth for s in self.per_device.values())

    @property
    def rolling_deadline_attainment(self) -> float:
        """Fleet-wide rolling deadline attainment over each lane's most
        recent :data:`ROLLING_WINDOW` outcomes; ``1.0`` with no recent
        deadline traffic."""
        hits = 0
        total = 0
        for stats in self.per_device.values():
            recent = stats.recent_deadlines[-ROLLING_WINDOW:]
            hits += sum(recent)
            total += len(recent)
        return hits / total if total else 1.0

    # -- deadline / SLO accounting ------------------------------------- #
    @property
    def total_deadline_requests(self) -> int:
        """Served requests that carried a deadline (sum of per-device rows)."""
        return sum(s.deadline_requests for s in self.per_device.values())

    @property
    def total_deadline_misses(self) -> int:
        """Served requests whose completion fell past their deadline."""
        return sum(s.deadline_misses for s in self.per_device.values())

    def deadline_breakdown(self) -> Dict[str, int]:
        """Request outcomes relevant to the deadline SLO.

        ``served`` carried a deadline and began *and* completed within it,
        ``missed`` began in time but completed late, ``expired`` never
        began (queue expiry plus admission rejections; only
        deadline-carrying requests can expire).  ``failed`` is the
        *fleet-wide* count of requests lost to a raising device — with or
        without a deadline, since a failed batch records no per-request
        deadline facts; it is reported for completeness and excluded from
        :attr:`deadline_attainment`.
        """
        return {
            "served": self.total_deadline_requests - self.total_deadline_misses,
            "missed": self.total_deadline_misses,
            "expired": self.total_expired,
            "failed": self.total_failed,
        }

    @property
    def deadline_attainment(self) -> float:
        """Fraction of deadline-carrying requests answered within deadline.

        Counts expired (never-served) requests against attainment; failed
        requests are an infrastructure loss, reported separately.  ``1.0``
        when no request carried a deadline.
        """
        denominator = self.total_deadline_requests + self.total_expired
        if denominator == 0:
            return 1.0
        return (self.total_deadline_requests - self.total_deadline_misses) / denominator

    def slo_attainment(self, target_seconds: float) -> float:
        """Fraction of resolved requests answered within ``target_seconds``.

        A latency-target SLO; expired and failed requests count against it,
        ``1.0`` when nothing was resolved.  Latency samples are bounded per
        device (the event-loop scheduler's most recent window — see
        ``repro.serving.scheduler.LATENCY_HISTORY_CAP``) while the outcome
        counters are all-time, so the windowed samples only *estimate* the
        served-within rate; that rate is then weighted by the all-time
        served and :attr:`resolved_requests` counters.  This keeps the
        ratio consistent on runs long enough to trim the history — the
        window can no longer over-weight expiries against a truncated
        served count.  Exact (not estimated) for reports whose history has
        not trimmed; a report without per-request history (one restored by
        :meth:`from_dict`) stays vacuously ``1.0`` with nothing expired or
        failed, and otherwise the absent samples contribute zero
        served-within credit.
        """
        sampled = 0
        within = 0
        for stats in self.per_device.values():
            if stats.latencies:
                samples = np.asarray(stats.latencies)
                within += int(np.count_nonzero(samples <= target_seconds))
                sampled += samples.size
        if sampled == 0 and self.total_expired + self.total_failed == 0:
            # No latency view and nothing lost: vacuously attained.
            return 1.0
        resolved = self.resolved_requests or (
            self.total_requests + self.total_expired + self.total_failed
        )
        if resolved == 0:
            return 1.0
        served_within = within / sampled * self.total_requests if sampled else 0.0
        return served_within / resolved

    def summary(self) -> Dict[str, float]:
        return {
            "devices": float(len(self.per_device)),
            "total_requests": float(self.total_requests),
            "total_windows": float(self.total_windows),
            "makespan_seconds": self.makespan_seconds,
            "aggregate_throughput": self.aggregate_throughput,
            "total_expired": float(self.total_expired),
            "total_failed": float(self.total_failed),
            "deadline_misses": float(self.total_deadline_misses),
        }

    # -- serialization -------------------------------------------------- #
    def to_dict(
        self,
        *,
        sync_stats: Optional[Dict[str, int]] = None,
        slo_target_seconds: Optional[float] = None,
    ) -> Dict[str, object]:
        """JSON-ready snapshot of the whole report.

        One serialization shared by the network server's stats endpoint,
        ``pilote bench-client`` and the benchmark artifacts: counters,
        derived throughput/latency aggregates (p50/p99 from the bounded
        per-device histories, which themselves do not travel), the deadline
        breakdown, and optionally the executor's ``sync_stats``
        and the :meth:`slo_attainment` at a caller-chosen target.
        """
        data: Dict[str, object] = {
            "clock": self.clock,
            "devices": len(self.per_device),
            "total_requests": int(self.total_requests),
            "total_windows": int(self.total_windows),
            "total_expired": int(self.total_expired),
            "total_rejected": int(self.total_rejected),
            "total_failed": int(self.total_failed),
            "total_cancelled": int(self.total_cancelled),
            "total_queue_depth": int(self.total_queue_depth),
            "rolling_deadline_attainment": float(self.rolling_deadline_attainment),
            "resolved_requests": int(
                self.resolved_requests
                or self.total_requests + self.total_expired + self.total_failed
            ),
            "makespan_seconds": float(self.makespan_seconds),
            "aggregate_throughput": float(self.aggregate_throughput),
            "engine_wall_seconds": float(self.engine_wall_seconds),
            "mean_latency_seconds": float(self.mean_latency_seconds),
            "p50_latency_seconds": self.latency_percentile(50.0),
            "p99_latency_seconds": self.latency_percentile(99.0),
            "deadline_breakdown": {
                key: int(value) for key, value in self.deadline_breakdown().items()
            },
            "deadline_attainment": float(self.deadline_attainment),
            "per_device": {
                str(device_id): stats.to_dict()
                for device_id, stats in sorted(self.per_device.items())
            },
        }
        if slo_target_seconds is not None:
            data["slo_target_seconds"] = float(slo_target_seconds)
            data["slo_attainment"] = float(self.slo_attainment(slo_target_seconds))
        if sync_stats is not None:
            data["sync_stats"] = {
                key: int(value) for key, value in sync_stats.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RoutingReport":
        """Rebuild a report from :meth:`to_dict` output.

        Lossy where the export is: per-request latency histories do not
        travel, so percentile/SLO views on the restored report fall back to
        their no-history behaviour; every counter, per-device row and
        derived aggregate that *did* travel is restored exactly.
        """
        per_device = {
            int(device_id): DeviceStats.from_dict(row)
            for device_id, row in dict(data.get("per_device", {})).items()
        }
        return cls(
            per_device=per_device,
            total_requests=int(data.get("total_requests", 0)),
            total_windows=int(data.get("total_windows", 0)),
            total_expired=int(data.get("total_expired", 0)),
            total_rejected=int(data.get("total_rejected", 0)),
            total_failed=int(data.get("total_failed", 0)),
            total_cancelled=int(data.get("total_cancelled", 0)),
            resolved_requests=int(data.get("resolved_requests", 0)),
        )
