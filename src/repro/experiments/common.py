"""Shared experiment settings and helpers.

The paper's experiments run on ~200k windows and a 1024-wide backbone; a pure
numpy reproduction cannot afford that for every CI run, so the scale is a
parameter.  Three presets are provided:

* ``quick()``       — smallest useful scale, used by the test suite;
* ``default()``     — the benchmark scale (minutes on a laptop);
* ``paper_scale()`` — the paper's backbone and a large synthetic dataset, for
  users who want to let it run longer.

Absolute accuracies differ from the paper (synthetic data, different scale) —
the orderings and crossovers are what the reproduction checks.

The experiments train in the ``"reference"`` dtype profile (float64), not
the float32 the edge ships.  Every byte-identity gate and CI diff of the
experiments pins float64 results.  Table 2 at bench scale took 15.9 s in
float64 against 13.0 s under ``precision("edge")``, and its cells moved by
up to 0.02, so float32 would buy about 1.2× by changing every recorded number.

Each round's corpus comes from :func:`make_feature_dataset`, which caches
corpora per process by the round generator's state: Table 2's held-out
activities, and experiments run in one process, share a round's corpus
without rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import PiloteConfig
from repro.data.dataset import HARDataset
from repro.data.synthetic import make_feature_dataset
from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, resolve_rng


@dataclass(frozen=True)
class ExperimentSettings:
    """Scale and protocol knobs shared by all experiments."""

    samples_per_class: int = 300
    n_rounds: int = 3
    config: PiloteConfig = field(
        default_factory=lambda: PiloteConfig(
            hidden_dims=(256, 128, 64),
            embedding_dim=64,
            batch_size=64,
            max_epochs_pretrain=20,
            max_epochs_increment=15,
            cache_size=800,
        )
    )
    exemplars_per_class: int = 200
    seed: Optional[int] = 7

    def __post_init__(self) -> None:
        if self.samples_per_class < 20:
            raise ConfigurationError("samples_per_class must be at least 20")
        if self.n_rounds <= 0:
            raise ConfigurationError("n_rounds must be positive")
        if self.exemplars_per_class <= 0:
            raise ConfigurationError("exemplars_per_class must be positive")

    # ------------------------------------------------------------------ #
    @classmethod
    def quick(cls, seed: Optional[int] = 7) -> "ExperimentSettings":
        """Small scale for unit/integration tests (seconds per scenario)."""
        return cls(
            samples_per_class=120,
            n_rounds=2,
            config=PiloteConfig.edge_lightweight(seed=seed),
            exemplars_per_class=40,
            seed=seed,
        )

    @classmethod
    def default(cls, seed: Optional[int] = 7) -> "ExperimentSettings":
        """The benchmark scale used by ``benchmarks/``."""
        return cls(seed=seed)

    @classmethod
    def paper_scale(cls, seed: Optional[int] = 7) -> "ExperimentSettings":
        """The paper's backbone (1024×512×128×64×128) and five rounds."""
        return cls(
            samples_per_class=1000,
            n_rounds=5,
            config=PiloteConfig.paper_defaults(),
            exemplars_per_class=200,
            seed=seed,
        )


def make_dataset(settings: ExperimentSettings, rng: RandomState = None) -> HARDataset:
    """Generate the synthetic five-activity feature dataset for one round."""
    generator = resolve_rng(rng if rng is not None else settings.seed)
    return make_feature_dataset(settings.samples_per_class, seed=generator)
