"""Result containers and fixed-width table rendering."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.evaluation.protocol import AggregateResult
from repro.exceptions import DataError


@dataclass
class MethodResult:
    """Outcome of one method on one scenario (single round)."""

    method: str
    accuracy: float
    predictions: Optional[np.ndarray] = None
    extra: Dict[str, float] = field(default_factory=dict)


class ResultTable:
    """A named table of rows, each mapping column name → value.

    Values may be floats, strings or :class:`AggregateResult` objects; the
    renderer formats aggregates as ``mean ±std`` exactly like the paper's
    Table 2.
    """

    def __init__(self, title: str, columns: Sequence[str]) -> None:
        if not columns:
            raise DataError("a result table needs at least one column")
        self.title = title
        self.columns = list(columns)
        self._rows: List[Dict[str, object]] = []

    def add_row(self, **values) -> None:
        """Append a row; every table column must be provided."""
        missing = [c for c in self.columns if c not in values]
        if missing:
            raise DataError(f"row is missing columns: {missing}")
        self._rows.append({column: values[column] for column in self.columns})

    @property
    def rows(self) -> List[Dict[str, object]]:
        return [dict(row) for row in self._rows]

    def __len__(self) -> int:
        return len(self._rows)

    def column(self, name: str) -> List[object]:
        """All values of one column, in row order."""
        if name not in self.columns:
            raise KeyError(name)
        return [row[name] for row in self._rows]

    # ------------------------------------------------------------------ #
    @staticmethod
    def _format(value: object) -> str:
        if isinstance(value, AggregateResult):
            return str(value)
        if isinstance(value, float):
            return f"{value:.4f}"
        return str(value)

    def to_text(self) -> str:
        """Fixed-width rendering suitable for printing from the benchmarks."""
        formatted = [[self._format(row[c]) for c in self.columns] for row in self._rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in formatted)) if formatted else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, ""]
        header = "  ".join(f"{name:<{widths[i]}}" for i, name in enumerate(self.columns))
        lines.append(header)
        lines.append("  ".join("-" * w for w in widths))
        for row in formatted:
            lines.append("  ".join(f"{cell:<{widths[i]}}" for i, cell in enumerate(row)))
        return "\n".join(lines)
