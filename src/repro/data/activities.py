"""Activity taxonomy.

The paper's data-collection campaign covers five physical activities:
*Drive*, *E-scooter*, *Run*, *Still* and *Walk*.  The integer values assigned
here are the canonical class identifiers used throughout the library.
"""

from __future__ import annotations

import enum
from typing import List

from repro.exceptions import DataError


class Activity(enum.IntEnum):
    """The five human physical activities studied in the paper."""

    DRIVE = 0
    ESCOOTER = 1
    RUN = 2
    STILL = 3
    WALK = 4

    @property
    def display_name(self) -> str:
        """Name as printed in the paper's tables/figures."""
        return _DISPLAY_NAMES[self]


_DISPLAY_NAMES = {
    Activity.DRIVE: "Drive",
    Activity.ESCOOTER: "E-scooter",
    Activity.RUN: "Run",
    Activity.STILL: "Still",
    Activity.WALK: "Walk",
}

#: Display names ordered by class id — handy for table headers.
ACTIVITY_NAMES: List[str] = [_DISPLAY_NAMES[a] for a in Activity]


def activity_from_name(  # repro: noqa[repro-unused] examples/incremental_new_activity.py
    name: str,
) -> Activity:
    """Look up an :class:`Activity` from its display name (case-insensitive)."""
    normalised = name.strip().lower().replace("_", "-")
    for activity, display in _DISPLAY_NAMES.items():
        if display.lower() == normalised:
            return activity
    aliases = {"e-scooter": Activity.ESCOOTER, "escooter": Activity.ESCOOTER}
    if normalised in aliases:
        return aliases[normalised]
    raise DataError(f"unknown activity {name!r}; expected one of {ACTIVITY_NAMES}")
