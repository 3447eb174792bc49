"""Fixture: a to_dict dataclass that exports every field, with no reader."""

from dataclasses import dataclass, field
from typing import ClassVar, List


@dataclass
class ExportedReport:
    sent: int = 0
    answered: int = 0
    samples: List[float] = field(default_factory=list, repr=False)
    UNITS: ClassVar[str] = "requests"

    def to_dict(self):
        return {"sent": self.sent, "answered": self.answered}


@dataclass
class DisplayOnly:
    """No to_dict at all — the rule does not apply."""

    label: str = ""


EXPORTS = (ExportedReport.to_dict, DisplayOnly)
