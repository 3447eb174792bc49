"""Deterministic open-loop traffic generation for fleet simulations.

A production MAGNETO deployment serves a large user population whose requests
are neither uniform nor steady: a few heavy users dominate (Zipf), load comes
in bursts, and new activities reach different devices at different times.
:class:`TrafficGenerator` produces such workloads reproducibly — the whole
stream is a pure function of the workload spec and the seed, so benchmark and
simulation runs can be replayed exactly.

The generator is *open loop*: it emits what arrives per tick regardless of
whether the fleet keeps up, which is what exposes queueing behaviour in the
router's per-device stats.  Workloads can additionally carry seeded
per-request deadlines (``WorkloadSpec.deadline_seconds`` /
``deadline_multipliers`` / ``deadline_fraction``) to drive the serving
scheduler's deadline machinery — admission control, queue expiry and
earliest-deadline-first ordering (see :mod:`repro.serving.scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.data.dataset import HARDataset
from repro.exceptions import ConfigurationError, DataError
from repro.utils.rng import RandomState, resolve_rng

#: Workload patterns understood by :class:`TrafficGenerator`.
PATTERNS = ("uniform", "bursty", "zipf")


@dataclass(frozen=True)
class InferenceRequest:
    """One user's inference request: a few feature windows to classify.

    Attributes
    ----------
    user_id:
        Stable identity of the requesting user; the router shards on it.
    features:
        ``(n_windows, n_features)`` feature matrix for this request.
    arrival_seconds:
        Simulated arrival time (tick index × tick duration).
    deadline_seconds:
        Optional absolute simulated deadline, honoured by the event-loop
        scheduler exactly like :class:`~repro.serving.PredictRequest`'s
        (admission rejection / queue expiry / late-completion miss — see
        :mod:`repro.serving.scheduler`).
    """

    user_id: int
    features: np.ndarray
    arrival_seconds: float = 0.0
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.user_id < 0:
            raise DataError(f"user_id must be non-negative, got {self.user_id}")
        if self.deadline_seconds is not None and self.deadline_seconds <= self.arrival_seconds:
            raise DataError(
                f"deadline_seconds ({self.deadline_seconds}) must be after "
                f"arrival_seconds ({self.arrival_seconds})"
            )

    @property
    def n_windows(self) -> int:
        return int(self.features.shape[0])


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of an open-loop inference workload.

    Attributes
    ----------
    pattern:
        ``"uniform"`` (every user equally likely, steady rate), ``"bursty"``
        (steady rate with periodic spikes) or ``"zipf"`` (skewed user
        popularity — a heavy-hitter population).
    n_users:
        Size of the simulated user population.
    requests_per_tick:
        Base arrival rate (requests per tick).
    n_ticks:
        Length of the generated stream.
    windows_per_request:
        Feature windows carried by each request.
    tick_seconds:
        Simulated wall-clock duration of one tick (0 = replay as fast as the
        fleet can drain, i.e. a pure throughput workload).
    burst_every / burst_multiplier:
        For ``"bursty"``: every ``burst_every``-th tick carries
        ``burst_multiplier`` × the base rate.
    zipf_exponent:
        For ``"zipf"``: exponent of the rank-frequency law (larger = more
        skewed toward the heaviest users).
    deadline_seconds:
        Base *relative* deadline per request, in simulated seconds after
        its arrival; ``None`` (the default) emits deadline-less traffic and
        leaves the generated stream bit-identical to earlier versions.
    deadline_multipliers:
        Discrete deadline classes: each request's relative deadline is
        ``deadline_seconds`` times a multiplier drawn uniformly (seeded)
        from this tuple — e.g. ``(1.0, 40.0)`` mixes urgent and relaxed
        traffic.  Discrete classes (rather than continuous jitter) keep
        co-arriving requests coalescible into large engine batches under
        EDF scheduling, which groups per ``(arrival, deadline)``.
    deadline_fraction:
        Fraction of requests that carry a deadline at all; the rest are
        emitted deadline-less (they sort last under EDF, in arrival order).
    """

    pattern: str = "uniform"
    n_users: int = 256
    requests_per_tick: int = 64
    n_ticks: int = 10
    windows_per_request: int = 1
    tick_seconds: float = 0.0
    burst_every: int = 4
    burst_multiplier: float = 4.0
    zipf_exponent: float = 1.1
    deadline_seconds: Optional[float] = None
    deadline_multipliers: Tuple[float, ...] = (1.0,)
    deadline_fraction: float = 1.0

    def __post_init__(self) -> None:
        # All spec errors are ConfigurationError, which is also a ValueError:
        # a non-positive rate/duration/user count fails loudly and typed here
        # instead of producing an empty or nonsensical traffic stream.
        if self.pattern not in PATTERNS:
            raise ConfigurationError(
                f"pattern must be one of {PATTERNS}, got {self.pattern!r}"
            )
        if self.n_users <= 0:
            raise ConfigurationError(
                f"n_users must be positive, got {self.n_users}"
            )
        if self.requests_per_tick <= 0:
            raise ConfigurationError(
                f"requests_per_tick must be positive, got {self.requests_per_tick}"
            )
        if self.n_ticks <= 0:
            raise ConfigurationError(
                f"n_ticks must be positive, got {self.n_ticks}"
            )
        if self.windows_per_request <= 0:
            raise ConfigurationError(
                f"windows_per_request must be positive, got {self.windows_per_request}"
            )
        if self.tick_seconds < 0:
            raise ConfigurationError("tick_seconds must be non-negative")
        if self.burst_every <= 0 or self.burst_multiplier < 1.0:
            raise ConfigurationError(
                "burst_every must be positive and burst_multiplier >= 1"
            )
        if self.zipf_exponent <= 0:
            raise ConfigurationError("zipf_exponent must be positive")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"deadline_seconds must be positive, got {self.deadline_seconds}"
            )
        if not self.deadline_multipliers or any(
            m <= 0 for m in self.deadline_multipliers
        ):
            raise ConfigurationError(
                "deadline_multipliers must be a non-empty tuple of positive "
                f"factors, got {self.deadline_multipliers!r}"
            )
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ConfigurationError(
                f"deadline_fraction must be in [0, 1], got {self.deadline_fraction}"
            )

    def requests_at_tick(self, tick: int) -> int:
        """Arrival count for one tick under this spec."""
        if self.pattern == "bursty" and tick % self.burst_every == self.burst_every - 1:
            return int(round(self.requests_per_tick * self.burst_multiplier))
        return self.requests_per_tick


class TrafficGenerator:
    """Seeded generator of :class:`InferenceRequest` streams.

    Parameters
    ----------
    pool:
        Feature matrix (or :class:`~repro.data.dataset.HARDataset`) that
        request windows are sampled from.
    spec:
        The workload shape.
    seed:
        Seed or generator; the emitted stream is fully determined by it.
    """

    def __init__(
        self,
        pool,
        spec: WorkloadSpec = WorkloadSpec(),
        seed: RandomState = None,
    ) -> None:
        features = pool.features if isinstance(pool, HARDataset) else np.asarray(pool)
        if features.ndim != 2 or features.shape[0] == 0:
            raise DataError(
                f"pool must be a non-empty (n, d) feature matrix, got shape {features.shape}"
            )
        self.pool = features
        self.spec = spec
        self._rng = resolve_rng(seed)
        if spec.pattern == "zipf":
            ranks = np.arange(1, spec.n_users + 1, dtype=np.float64)
            weights = ranks ** (-spec.zipf_exponent)
            self._user_pmf = weights / weights.sum()
        else:
            self._user_pmf = None

    # ------------------------------------------------------------------ #
    def _draw_users(self, count: int) -> np.ndarray:
        if self._user_pmf is not None:
            return self._rng.choice(self.spec.n_users, size=count, p=self._user_pmf)
        return self._rng.integers(0, self.spec.n_users, size=count)

    def _draw_deadlines(self, count: int, arrival: float) -> List[Optional[float]]:
        """Seeded per-request absolute deadlines (``None`` = no deadline)."""
        spec = self.spec
        multipliers = np.asarray(spec.deadline_multipliers, dtype=np.float64)
        relative = spec.deadline_seconds * self._rng.choice(multipliers, size=count)
        if spec.deadline_fraction < 1.0:
            carried = self._rng.random(count) < spec.deadline_fraction
        else:
            carried = np.ones(count, dtype=bool)
        return [
            float(arrival + relative[i]) if carried[i] else None
            for i in range(count)
        ]

    def tick(self, tick_index: int) -> List[InferenceRequest]:
        """Requests arriving during one tick (advances the internal stream)."""
        spec = self.spec
        count = spec.requests_at_tick(tick_index)
        users = self._draw_users(count)
        rows = self._rng.integers(
            0, self.pool.shape[0], size=(count, spec.windows_per_request)
        )
        arrival = tick_index * spec.tick_seconds
        if spec.deadline_seconds is not None:
            deadlines = self._draw_deadlines(count, arrival)
        else:
            deadlines = [None] * count
        return [
            InferenceRequest(
                user_id=int(users[i]),
                features=self.pool[rows[i]],
                arrival_seconds=arrival,
                deadline_seconds=deadlines[i],
            )
            for i in range(count)
        ]

    def ticks(self) -> Iterator[List[InferenceRequest]]:
        """Iterate over all ``spec.n_ticks`` ticks of the stream."""
        for tick_index in range(self.spec.n_ticks):
            yield self.tick(tick_index)

    def requests(self) -> List[InferenceRequest]:
        """The whole stream flattened (convenience for benchmarks)."""
        flattened: List[InferenceRequest] = []
        for batch in self.ticks():
            flattened.extend(batch)
        return flattened


def staggered_schedule(
    n_devices: int, *, start_tick: int = 1, spacing_ticks: int = 1
) -> Dict[int, int]:
    """Tick at which each device first sees new-activity data.

    Staggered arrival is what makes a fleet drift: device 0 integrates the new
    activity at ``start_tick``, device 1 ``spacing_ticks`` later, and so on —
    mirroring a rollout where users adopt a new activity at different times.
    """
    if n_devices <= 0:
        raise ConfigurationError(f"n_devices must be positive, got {n_devices}")
    if start_tick < 0 or spacing_ticks < 0:
        raise ConfigurationError("start_tick and spacing_ticks must be non-negative")
    return {
        device_id: start_tick + device_id * spacing_ticks
        for device_id in range(n_devices)
    }
