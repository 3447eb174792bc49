"""Self-tuning control plane over the serving stack.

The serving layers (:mod:`repro.serving`, :mod:`repro.fleet`,
:mod:`repro.server`) *export* signals — queue depths, rolling deadline
attainment, per-lane failures — and expose actuation seams — executor
``resize``, the scheduler's ``admission`` hook, per-lane
``submit_assigned``.  This package closes the loop: a
:class:`ControlPlane` attached to a :class:`~repro.serving.ServingClient`
feeds those signals through pluggable :class:`Controller` implementations
that act back on the stack::

    from repro.serving import serve
    client = serve(fleet, routing="p2c", scheduling="edf",
                   seed=0, adaptive=True)     # default controller stack

Stock controllers (registry :data:`CONTROLLERS`):

* :class:`~repro.control.shedding.LoadShedder` — admission control that
  rejects provably-doomed work before it queues;
* :class:`~repro.control.hedging.HedgedRequests` — a backup attempt on a
  sibling lane when the chosen lane projects a deadline miss, first
  completion wins, loser cancelled, exactly-once accounting;
* :class:`~repro.control.autoscaler.PoolAutoscaler` — grows/shrinks the
  executor worker pool from queue depth and rolling attainment with
  hysteresis and cooldown.

The chaos suite (:mod:`repro.control.chaos`, ``pilote chaos``) injects
worker-death storms, stragglers and mid-stream restarts and proves the
invariant everything above relies on: no future dropped, none answered
twice.
"""

from repro.control.autoscaler import PoolAutoscaler
from repro.control.chaos import (
    CHAOS_SCENARIOS,
    ChaosRunReport,
    ChaosSpec,
    FlakyDevice,
    StragglerDevice,
    run_chaos,
    run_suite,
)
from repro.control.hedging import HedgedRequests, HedgedResult, HedgeStats
from repro.control.plane import Controller, ControlPlane, default_controllers
from repro.control.shedding import LoadShedder
from repro.control.signals import ControlSignals, SignalBus

__all__ = [
    "CHAOS_SCENARIOS",
    "CONTROLLERS",
    "ChaosRunReport",
    "ChaosSpec",
    "ControlPlane",
    "ControlSignals",
    "Controller",
    "FlakyDevice",
    "HedgeStats",
    "HedgedRequests",
    "HedgedResult",
    "LoadShedder",
    "PoolAutoscaler",
    "SignalBus",
    "StragglerDevice",
    "default_controllers",
    "run_chaos",
    "run_suite",
]

#: Controller registry, same convention as EXECUTORS / ROUTING_POLICIES.
CONTROLLERS = {
    LoadShedder.name: LoadShedder,
    HedgedRequests.name: HedgedRequests,
    PoolAutoscaler.name: PoolAutoscaler,
}
