"""Fixture: a to_dict dataclass whose from_dict restores every field."""

from dataclasses import dataclass, field
from typing import List


@dataclass
class RoundTripReport:
    sent: int = 0
    answered: int = 0
    samples: List[float] = field(default_factory=list, repr=False)

    def to_dict(self):
        return {"sent": self.sent, "answered": self.answered}

    @classmethod
    def from_dict(cls, payload):
        return cls(sent=payload["sent"], answered=payload["answered"])


@dataclass
class DisplayOnly:
    """No to_dict at all — the rule does not apply."""

    label: str = ""


EXPORTS = (RoundTripReport.to_dict, RoundTripReport.from_dict, DisplayOnly)
