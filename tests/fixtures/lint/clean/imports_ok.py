"""Fixture: every import is used, each in a different way."""

from __future__ import annotations

import os.path
from collections import OrderedDict as Ordered
from typing import Dict, List, Optional, TYPE_CHECKING

import json  # repro: noqa[repro-unused-import] fixture: kept for its side effect

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["Ordered"]

JOINED = os.path.join("a", "b")


def sizes(names: List[str]) -> Dict[str, int]:
    return {name: len(name) for name in names}


def precise(value: "Decimal") -> Optional[str]:
    return str(value)


SIZES = sizes(["a"]), precise(1)
