"""Pluggable routing policies for the event-loop serving scheduler.

A :class:`RoutingPolicy` decides which device lane each request lands on.
Three implementations ship with the library:

* :class:`HashRouting` (``"hash"``) — the fleet's historical behaviour: a
  salted splitmix64 hash of the user id, so a user's data always lands on
  the same device (the MAGNETO privacy model requires per-user stickiness);
* :class:`LeastLoadedRouting` (``"least-loaded"``) — each request goes to
  the lane with the smallest current load estimate, trading per-user
  stickiness for tail latency under skewed (Zipf) populations;
* :class:`PowerOfTwoRouting` (``"p2c"``) — two independent hash candidates
  per user, the less-loaded one wins: near-least-loaded balance while each
  user only ever touches two devices.

Load is the scheduler's estimate ``queued_requests + backlog_seconds x
observed_service_rate`` (see ``EventLoopScheduler.lane_loads``), so policies
stay correct both when a whole stream is submitted before draining and when
the caller drains tick by tick.  The balancing policies refresh that
estimate *per arrival-time segment* of a submission (plus the assignments
they have already made within the call), so a multi-tick batch balances
against the backlog as of each tick's arrival instead of a stale snapshot
taken at the first request's arrival.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Type, Union

import numpy as np

from repro.exceptions import RoutingError

__all__ = [
    "RoutingPolicy",
    "HashRouting",
    "LeastLoadedRouting",
    "PowerOfTwoRouting",
    "ROUTING_POLICIES",
    "make_routing_policy",
    "splitmix64",
]


# 64-bit mixing constants (splitmix64 finaliser).
_MIX1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)


def splitmix64(values, salt: np.uint64) -> np.ndarray:
    """Vectorised salted splitmix64 finaliser over an integer array.

    Uniform over 64 bits, stable per value, and reproducible from the salt —
    the properties user-id sharding needs.
    """
    v = np.atleast_1d(np.asarray(values)).astype(np.uint64) + salt
    v ^= v >> _SHIFT
    v *= _MIX1
    v ^= v >> _SHIFT
    v *= _MIX2
    v ^= v >> _SHIFT
    return v


def _draw_salt(rng) -> np.uint64:
    return np.uint64(rng.integers(0, 2**63 - 1, dtype=np.int64))


def _arrival_segments(requests) -> tuple:
    """``(arrivals, bounds)``: runs of equal arrival time in a submission.

    ``bounds`` holds segment edges ``[0, ..., len(requests)]``; the balancing
    policies refresh their load estimate at each segment's arrival so
    multi-tick submissions never balance against a stale backlog snapshot.
    """
    arrivals = np.fromiter(
        (r.arrival_seconds for r in requests), dtype=np.float64, count=len(requests)
    )
    bounds = [0, *(np.flatnonzero(np.diff(arrivals)) + 1).tolist(), len(requests)]
    return arrivals, bounds


class RoutingPolicy:
    """Strategy deciding the device lane of each submitted request.

    Subclasses implement :meth:`assign_batch`; :meth:`bind` is called once by
    the scheduler with the lane count and the routing seed before any
    assignment happens.
    """

    #: Registry key and CLI name of the policy.
    name: str = "abstract"

    def bind(self, n_lanes: int, rng) -> None:
        self._n_lanes = int(n_lanes)

    def assign_batch(
        self,
        requests: Sequence,
        user_ids: np.ndarray,
        scheduler,
        lanes: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Lane index for every request (``lanes`` restricts the candidates).

        ``lanes``, when given, is the subset of lane positions this batch may
        use — a partially deployed fleet routes only over its deployed lanes.
        """
        raise NotImplementedError  # repro: noqa[repro-errors] abstract protocol method


class HashRouting(RoutingPolicy):
    """Seeded user-id hash sharding — sticky, stateless, fully vectorised.

    Users hash to a *device*, and ``lane_map`` (a fleet's ``device id →
    lane position`` vector, :meth:`~repro.fleet.FleetCoordinator.lane_map`)
    folds each device onto the lane serving it: pooled devices onto their
    region's template lane, materialised devices onto their own.  A user
    therefore lands on the same logical device whatever the fleet's region
    layout.  Without a map every lane is its own device.

    When routing is restricted to a lane subset (a partially deployed
    fleet), each user's *full-fleet* placement is still preferred: only
    users whose preferred lane is outside the subset are remapped
    (deterministically) within it.  Placement is therefore stable as later
    deploys reach the rest of the fleet, and identical to plain hash
    sharding once every lane is available again.
    """

    name = "hash"

    def __init__(self, lane_map: Optional[np.ndarray] = None) -> None:
        self._fleet_lane_map = lane_map

    def bind(self, n_lanes: int, rng) -> None:
        super().bind(n_lanes, rng)
        self._salt = _draw_salt(rng)
        if self._fleet_lane_map is None:
            self._lane_map = np.arange(n_lanes, dtype=np.int64)
        else:
            self._lane_map = np.asarray(self._fleet_lane_map, dtype=np.int64)

    def assign_batch(self, requests, user_ids, scheduler, lanes=None):
        hashed = splitmix64(user_ids, self._salt)
        device = (hashed % np.uint64(self._lane_map.size)).astype(np.int64)
        preferred = self._lane_map[device]
        if lanes is None:
            return preferred
        lanes = np.asarray(lanes, dtype=np.int64)
        fallback = lanes[(hashed % np.uint64(lanes.size)).astype(np.int64)]
        return np.where(np.isin(preferred, lanes), preferred, fallback)


class LeastLoadedRouting(RoutingPolicy):
    """Route every request to the lane with the smallest load estimate.

    The estimate is refreshed per request as the batch is assigned (each
    assignment adds one request to the chosen lane — loads are counted in
    requests, matching ``EventLoopScheduler.lane_loads``), so a burst
    spreads evenly instead of dog-piling the lane that was idle at batch
    start, and re-queried from the scheduler at every arrival-time segment
    so multi-tick submissions see the backlog decay between ticks.  Not
    sticky per user — a deliberate trade of the MAGNETO per-user placement
    for tail latency.
    """

    name = "least-loaded"

    def assign_batch(self, requests, user_ids, scheduler, lanes=None):
        out = np.empty(len(requests), dtype=np.int64)
        if not len(requests):
            return out
        arrivals, bounds = _arrival_segments(requests)
        if lanes is not None:
            lanes = np.asarray(lanes, dtype=np.int64)
        # Assignments already made in this call, layered over each segment's
        # fresh scheduler estimate (the scheduler only learns of them after
        # assign_batch returns).
        assigned = np.zeros(self._n_lanes)
        for start, end in zip(bounds, bounds[1:]):
            loads = scheduler.lane_loads(float(arrivals[start])) + assigned
            if lanes is None:
                for index in range(start, end):
                    lane = int(np.argmin(loads))
                    out[index] = lane
                    loads[lane] += 1.0
                    assigned[lane] += 1.0
            else:
                for index in range(start, end):
                    lane = int(lanes[int(np.argmin(loads[lanes]))])
                    out[index] = lane
                    loads[lane] += 1.0
                    assigned[lane] += 1.0
        return out


class PowerOfTwoRouting(RoutingPolicy):
    """Power-of-two-choices: two hash candidates per user, less loaded wins."""

    name = "p2c"

    def bind(self, n_lanes: int, rng) -> None:
        super().bind(n_lanes, rng)
        self._salt_a = _draw_salt(rng)
        self._salt_b = _draw_salt(rng)

    def candidates(self, user_ids) -> tuple:
        """Each user's two hash-candidate lanes ``(first, second)``.

        The same salted pair :meth:`assign_batch` chooses between — the
        hedging controller uses it to find a request's p2c *sibling* (the
        candidate the original assignment passed over) without re-deriving
        the policy's salts.
        """
        ids = np.asarray(user_ids, dtype=np.int64)
        n = np.uint64(self._n_lanes)
        first = (splitmix64(ids, self._salt_a) % n).astype(np.int64)
        second = (splitmix64(ids, self._salt_b) % n).astype(np.int64)
        return first, second

    def assign_batch(self, requests, user_ids, scheduler, lanes=None):
        out = np.empty(len(requests), dtype=np.int64)
        if not len(requests):
            return out
        pool = np.arange(self._n_lanes) if lanes is None else np.asarray(lanes, np.int64)
        first = pool[(splitmix64(user_ids, self._salt_a) % np.uint64(pool.size)).astype(np.int64)]
        second = pool[(splitmix64(user_ids, self._salt_b) % np.uint64(pool.size)).astype(np.int64)]
        arrivals, bounds = _arrival_segments(requests)
        assigned = np.zeros(self._n_lanes)
        for start, end in zip(bounds, bounds[1:]):
            # Fresh estimate per arrival segment, plus this call's own picks.
            loads = scheduler.lane_loads(float(arrivals[start])) + assigned
            for index in range(start, end):
                a, b = int(first[index]), int(second[index])
                lane = a if loads[a] <= loads[b] else b
                out[index] = lane
                loads[lane] += 1.0
                assigned[lane] += 1.0
        return out


#: CLI/config name → policy class.
ROUTING_POLICIES: Dict[str, Type[RoutingPolicy]] = {
    HashRouting.name: HashRouting,
    LeastLoadedRouting.name: LeastLoadedRouting,
    PowerOfTwoRouting.name: PowerOfTwoRouting,
}


def make_routing_policy(
    policy: Union[str, RoutingPolicy, None],
) -> RoutingPolicy:
    """Resolve a policy instance from a name, an instance or ``None``.

    ``None`` means the default (:class:`HashRouting` — the fleet's historical
    behaviour).  Unknown names raise a typed
    :class:`~repro.exceptions.RoutingError`.
    """
    if policy is None:
        return HashRouting()
    if isinstance(policy, RoutingPolicy):
        return policy
    try:
        return ROUTING_POLICIES[policy]()
    except KeyError:
        raise RoutingError(
            f"unknown routing policy {policy!r}; "
            f"expected one of {sorted(ROUTING_POLICIES)}"
        ) from None
