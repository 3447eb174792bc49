"""Shared fixtures for the test suite.

Training-heavy fixtures (a tiny synthetic dataset, a pre-trained PILOTE
learner) are session-scoped so the expensive work happens once; tests that
mutate a learner must deep-copy it first (helpers below do so).
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.activities import Activity
from repro.data.dataset import HARDataset
from repro.data.streams import IncrementalScenario, build_incremental_scenario
from repro.data.synthetic import make_feature_dataset


TINY_CONFIG = PiloteConfig(
    hidden_dims=(32, 16),
    embedding_dim=8,
    batch_size=16,
    max_epochs_pretrain=6,
    max_epochs_increment=5,
    cache_size=80,
    max_pairs_per_batch=64,
    seed=0,
)


@pytest.fixture(scope="session")
def tiny_config() -> PiloteConfig:
    """A very small PILOTE configuration for fast training in tests."""
    return TINY_CONFIG


@pytest.fixture(scope="session")
def har_dataset() -> HARDataset:
    """A small five-activity synthetic feature dataset (shared, read-only)."""
    return make_feature_dataset(samples_per_class=80, seed=123)


@pytest.fixture(scope="session")
def run_scenario(har_dataset) -> IncrementalScenario:
    """Class-incremental scenario with 'Run' held out as the new class."""
    return build_incremental_scenario(har_dataset, [Activity.RUN], rng=5)


@pytest.fixture(scope="session")
def pretrained_pilote(run_scenario, tiny_config) -> PILOTE:
    """A PILOTE learner pre-trained on the scenario's old classes (read-only)."""
    learner = PILOTE(tiny_config, seed=0)
    learner.pretrain(
        run_scenario.old_train, run_scenario.old_validation, exemplars_per_class=15
    )
    return learner


@pytest.fixture()
def pilote_copy(pretrained_pilote) -> PILOTE:
    """A mutable deep copy of the pre-trained learner (per-test)."""
    return copy.deepcopy(pretrained_pilote)


@pytest.fixture(scope="session")
def incremented_pilote(pretrained_pilote, run_scenario) -> PILOTE:
    """A learner that has already integrated the 'Run' class (read-only)."""
    learner = copy.deepcopy(pretrained_pilote)
    learner.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
    return learner


@pytest.fixture(scope="session")
def simulated_fields():
    """Strip a ``RoutingReport.to_dict()`` down to its simulated fields.

    Per-device ``wall_seconds`` and the fleet's ``engine_wall_seconds`` are
    measured observations; on the simulated clock every other field is a
    function of the seed.
    """

    def view(report: dict) -> dict:
        data = {key: value for key, value in report.items() if key != "engine_wall_seconds"}
        data["per_device"] = {
            device: {key: value for key, value in row.items() if key != "wall_seconds"}
            for device, row in report["per_device"].items()
        }
        return data

    return view


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(42)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "no_repro_sanitize: opt this test out of the REPRO_SANITIZE=1 "
        "race-sanitizer fixture (used by tests that inject races on purpose)",
    )


@pytest.fixture(autouse=True)
def _repro_sanitize(request):
    """Run every test under the runtime race sanitizer when REPRO_SANITIZE=1.

    Every :class:`~repro.serving.ServingClient` built during the test is
    instrumented by a shared :class:`~repro.analysis.Sanitizer`; an
    unsynchronized cross-thread write to scheduler/stats/signal-bus state
    fails the test with a SanitizerViolationError at teardown.
    """
    from repro.analysis.sanitizer import auto_sanitize, sanitize_enabled

    if not sanitize_enabled() or request.node.get_closest_marker(
        "no_repro_sanitize"
    ):
        yield
        return
    with auto_sanitize() as sanitizer:
        yield
    sanitizer.assert_clean()
