"""Fixture: a to_dict dataclass whose export drops a field (repro-export)."""

from dataclasses import dataclass, field
from typing import List


@dataclass
class LossyReport:
    sent: int = 0
    answered: int = 0  # never exported
    samples: List[float] = field(default_factory=list, repr=False)

    def to_dict(self):
        return {"sent": self.sent}
