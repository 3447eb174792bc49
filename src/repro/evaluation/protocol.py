"""The paper's evaluation protocol: repeated rounds with mean ± standard deviation.

"We execute each model in five rounds and report the average accuracy and the
standard deviations."  :class:`RepeatedRounds` runs a round function with
independent random streams and aggregates the named quantities it returns;
every experiment that reports mean ± std builds its numbers from that
aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.exceptions import DataError
from repro.utils.rng import RandomState, spawn_rngs


@dataclass(frozen=True)
class AggregateResult:
    """Mean ± std of a repeated measurement."""

    mean: float
    std: float
    values: tuple

    @property
    def n_rounds(self) -> int:
        return len(self.values)

    def __str__(self) -> str:  # e.g. "0.9372 ±0.0319" as in the paper's Table 2
        return f"{self.mean:.4f} ±{self.std:.4f}"


def aggregate_values(values: Sequence[float]) -> AggregateResult:
    """Aggregate a sequence of scalars into mean/std (population std, like the paper)."""
    values = [float(v) for v in values]
    if not values:
        raise DataError("cannot aggregate an empty sequence")
    array = np.asarray(values, dtype=np.float64)
    return AggregateResult(mean=float(array.mean()), std=float(array.std()), values=tuple(values))


RoundFn = Callable[[np.random.Generator, int], Dict[str, float]]


class RepeatedRounds:
    """Run a round function ``n_rounds`` times with independent seeds and aggregate.

    The round function receives ``(rng, round_index)`` and returns a
    ``{name: value}`` dictionary; the values are aggregated name by name, in
    the order the names first appear.
    """

    def __init__(self, n_rounds: int, seed: RandomState) -> None:
        if n_rounds <= 0:
            raise DataError(f"n_rounds must be positive, got {n_rounds}")
        self.n_rounds = int(n_rounds)
        self.seed = seed

    def run(self, round_fn: RoundFn) -> Dict[str, AggregateResult]:
        """Execute all rounds and aggregate the returned quantities."""
        rngs = spawn_rngs(self.seed, self.n_rounds)
        collected: Dict[str, List[float]] = {}
        for round_index, rng in enumerate(rngs):
            for key, value in round_fn(rng, round_index).items():
                collected.setdefault(key, []).append(float(value))
        return {key: aggregate_values(values) for key, values in collected.items()}
