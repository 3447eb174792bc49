"""Shared configuration for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures and prints the
rows/series it reports.  The default scale is chosen so the whole suite runs
in a few minutes on a laptop CPU; set ``REPRO_BENCH_SCALE=default`` or
``REPRO_BENCH_SCALE=paper`` to run larger reproductions (the printed shape is
the same, the absolute numbers get closer to convergence).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import PiloteConfig
from repro.experiments.common import ExperimentSettings

_SCALE = os.environ.get("REPRO_BENCH_SCALE", "bench")


def _bench_settings(seed: int = 7) -> ExperimentSettings:
    """The benchmark scale: small backbone, two rounds, ~200 windows per class."""
    return ExperimentSettings(
        samples_per_class=250,
        n_rounds=3,
        config=PiloteConfig(
            hidden_dims=(128, 64),
            embedding_dim=32,
            batch_size=48,
            max_epochs_pretrain=15,
            max_epochs_increment=12,
            cache_size=800,
            seed=seed,
        ),
        exemplars_per_class=100,
        seed=seed,
    )


def resolve_settings(seed: int = 7) -> ExperimentSettings:
    """Settings for the requested REPRO_BENCH_SCALE."""
    if _SCALE == "paper":
        return ExperimentSettings.paper_scale(seed=seed)
    if _SCALE == "default":
        return ExperimentSettings.default(seed=seed)
    return _bench_settings(seed=seed)


@pytest.fixture(scope="session")
def settings() -> ExperimentSettings:
    """Experiment settings shared by all benchmarks."""
    return resolve_settings()


@pytest.fixture(scope="session")
def report():
    """Print a reproduction report and persist it under ``benchmarks/results/``.

    pytest captures stdout by default, so each benchmark also writes its
    printed table/series to ``results/<name>.txt`` next to the benchmark
    code.  Passing ``data`` additionally writes
    ``results/<name>.json`` with the same measurements as machine-readable
    key/value pairs — CI uploads the whole ``results/`` directory as an
    artifact, so the JSON files give trend tooling something to parse.
    """
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)

    def _report(name: str, text: str, data: dict | None = None) -> str:
        path = os.path.join(results_dir, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        if data is not None:
            with open(os.path.join(results_dir, f"{name}.json"), "w") as handle:
                json.dump({"benchmark": name, **data}, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print()
        print(text)
        return path

    return _report
