"""Hedged requests over the serving stack, and the chaos suite that checks them.

The serving layers (:mod:`repro.serving`, :mod:`repro.fleet`,
:mod:`repro.server`) *export* signals — per-lane failures, queue-order
aware projected service starts — and expose per-lane
``submit_assigned``.  A :class:`ControlPlane`
(:mod:`repro.control.hedging`) attached to a
:class:`~repro.serving.ServingClient` closes the loop on its own: it keeps
the recent per-lane failures itself and fires a backup attempt on a
sibling lane when the chosen lane projects a deadline miss or failed
requests recently, first completion wins, loser cancelled, exactly-once
accounting::

    from repro.serving import serve
    client = serve(fleet, routing="p2c", scheduling="edf",
                   seed=0, adaptive=True)     # attaches a ControlPlane

The chaos suite (:mod:`repro.control.chaos`, ``pilote chaos``) injects
worker-death storms, stragglers and mid-stream restarts and proves the
invariant everything above relies on: no future dropped, none answered
twice.
"""

from repro.control.chaos import (
    CHAOS_SCENARIOS,
    ChaosRunReport,
    ChaosSpec,
    FlakyDevice,
    StragglerDevice,
    run_chaos,
    run_suite,
)
from repro.control.hedging import ControlPlane, HedgedResult, HedgeStats

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosRunReport",
    "ChaosSpec",
    "ControlPlane",
    "FlakyDevice",
    "HedgeStats",
    "HedgedResult",
    "StragglerDevice",
    "run_chaos",
    "run_suite",
]
