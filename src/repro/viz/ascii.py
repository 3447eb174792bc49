"""ASCII rendering of line plots and scatter plots.

These renderers are what the benchmark harness prints instead of matplotlib
figures; they are intentionally simple but sufficient to see the shape of each
curve (who wins, where the crossovers are).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import DataError

_MARKERS = "ox+*#@%&"


def ascii_line_plot(
    x_values: Sequence[float],
    series: Dict[str, Sequence[float]],
    *,
    width: int = 70,
    height: int = 18,
    title: Optional[str] = None,
) -> str:
    """Render one or more named series over a shared x axis."""
    if not series:
        raise DataError("at least one series is required")
    x_values = np.asarray(list(x_values), dtype=np.float64)
    grid = [[" " for _ in range(width)] for _ in range(height)]
    all_y = np.concatenate([np.asarray(list(v), dtype=np.float64) for v in series.values()])
    y_min, y_max = float(all_y.min()), float(all_y.max())
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = float(x_values.min()), float(x_values.max())
    if x_max == x_min:
        x_max = x_min + 1.0

    def to_column(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(y: float) -> int:
        return height - 1 - int(round((y - y_min) / (y_max - y_min) * (height - 1)))

    for index, (name, values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        values = np.asarray(list(values), dtype=np.float64)
        if values.shape[0] != x_values.shape[0]:
            raise DataError(f"series {name!r} length does not match the x axis")
        for x, y in zip(x_values, values):
            grid[to_row(y)][to_column(x)] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"y: [{y_min:.3f}, {y_max:.3f}]   x: [{x_min:g}, {x_max:g}]")
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def ascii_scatter(
    points_by_class: Dict[int, np.ndarray],
    *,
    width: int = 70,
    height: int = 24,
    label_names: Optional[Dict[int, str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render 2-D points grouped by class (the Figure 5 stand-in)."""
    if not points_by_class:
        raise DataError("at least one class of points is required")
    label_names = label_names or {}
    everything = np.concatenate([np.asarray(p, dtype=np.float64) for p in points_by_class.values()])
    if everything.ndim != 2 or everything.shape[1] != 2:
        raise DataError("points must be 2-D (n, 2) arrays")
    x_min, y_min = everything.min(axis=0)
    x_max, y_max = everything.max(axis=0)
    x_span = (x_max - x_min) or 1.0
    y_span = (y_max - y_min) or 1.0
    grid = [[" " for _ in range(width)] for _ in range(height)]
    for index, (class_id, points) in enumerate(sorted(points_by_class.items())):
        marker = _MARKERS[index % len(_MARKERS)]
        for x, y in np.asarray(points, dtype=np.float64):
            column = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][column] = marker
    lines = []
    if title:
        lines.append(title)
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label_names.get(cid, cid)}"
        for i, cid in enumerate(sorted(points_by_class))
    )
    lines.append(legend)
    return "\n".join(lines)
