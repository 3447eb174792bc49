"""Named scenario definitions for every table and figure of the paper.

Each definition records the workload parameters of one experiment so the
benchmark harness, the examples and EXPERIMENTS.md all refer to a single
source of truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.data.activities import Activity


@dataclass(frozen=True)
class ScenarioSpec:
    """Description of one experiment (table or figure) of the paper."""

    experiment_id: str
    description: str
    new_classes: Tuple[Activity, ...]
    exemplars_per_class: Optional[int] = 200
    new_class_samples: Optional[int] = None
    exemplar_strategies: Tuple[str, ...] = ("herding",)
    sweep_name: Optional[str] = None
    sweep_values: Tuple[int, ...] = ()


#: Table 2 — one scenario per held-out activity, 200 exemplars per class.
TABLE2_SCENARIOS: Tuple[ScenarioSpec, ...] = tuple(
    ScenarioSpec(
        experiment_id="table2",
        description=f"Accuracy with '{activity.display_name}' as the new class",
        new_classes=(activity,),
        exemplars_per_class=200,
    )
    for activity in Activity
)

#: Figure 4 — confusion matrices for the Run scenario.
FIGURE4_SCENARIO = ScenarioSpec(
    experiment_id="figure4",
    description="Confusion matrices, new class 'Run', 200 exemplars per class",
    new_classes=(Activity.RUN,),
    exemplars_per_class=200,
)

#: Figure 5 — embedding-space visualisation for the Run scenario.
FIGURE5_SCENARIO = ScenarioSpec(
    experiment_id="figure5",
    description="Embedding-space separation, new class 'Run', 200 representative exemplars",
    new_classes=(Activity.RUN,),
    exemplars_per_class=200,
)

#: Figure 6 — accuracy vs. support-set size, representative vs. random exemplars.
FIGURE6_SCENARIO = ScenarioSpec(
    experiment_id="figure6",
    description="Accuracy vs. exemplars per class (Run held out), herding vs. random",
    new_classes=(Activity.RUN,),
    exemplar_strategies=("herding", "random"),
    sweep_name="exemplars_per_class",
    sweep_values=(10, 25, 50, 100, 200, 350, 500),
)

#: Figure 7 — accuracy vs. number of new-class exemplars (extreme edge).
FIGURE7_SCENARIO = ScenarioSpec(
    experiment_id="figure7",
    description="Accuracy vs. new-class ('Run') exemplar count, 200 old-class exemplars",
    new_classes=(Activity.RUN,),
    exemplars_per_class=200,
    sweep_name="new_class_samples",
    sweep_values=(10, 25, 50, 75, 100, 150, 200),
)


@dataclass(frozen=True)
class FleetScenarioSpec:
    """A fleet-level serving scenario (beyond the paper's single device).

    One cloud broadcast is deployed to ``n_devices`` edge devices; an
    open-loop traffic stream is sharded across them by user id, and each
    device integrates the held-out activity at its own staggered tick with
    its own share of the new-class data.  The reported quantity is the
    per-device accuracy divergence after the staggered increments, alongside
    the fleet's routing statistics.
    """

    experiment_id: str
    description: str
    n_devices: int
    new_classes: Tuple[Activity, ...]
    traffic_pattern: str = "zipf"
    n_users: int = 512
    requests_per_tick: int = 128
    n_ticks: int = 12
    stagger_start_tick: int = 1
    stagger_spacing_ticks: int = 1
    min_increment_fraction: float = 0.4
    #: Serving-client routing policy ("hash", "least-loaded" or "p2c");
    #: overridable from the CLI via ``pilote fleet-sim --routing ...``.
    routing_policy: str = "hash"


#: Fleet simulation — 8 devices, Zipf-skewed users, staggered 'Run' arrival.
FLEET_SCENARIO = FleetScenarioSpec(
    experiment_id="fleet",
    description="8-device fleet, Zipf traffic, staggered arrival of 'Run'",
    n_devices=8,
    new_classes=(Activity.RUN,),
)
