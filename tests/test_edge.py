"""Tests for the edge runtime: device budgets, transfer packaging, MAGNETO, profiler."""

import ast
from pathlib import Path

import numpy as np
import pytest

import repro.edge
from repro.backend import precision
from repro.core.config import PiloteConfig
from repro.core.ncm import NCMClassifier
from repro.core.persistence import pilote_state
from repro.data.activities import Activity
from repro.edge.device import DEVICE_PROFILES, DeviceProfile, EdgeDevice
from repro.edge.magneto import MagnetoPlatform
from repro.edge.profiler import EdgeProfiler, LatencyReport
from repro.edge.transfer import exemplar_storage_bytes, package_for_edge
from repro.exceptions import EdgeResourceError, NotFittedError
from repro.fleet import FleetCoordinator
from repro.serving import serve


def backbone_arrays(learner):
    """The arrays a learner's backbone holds: parameters, then buffers."""
    model = learner.model
    return [p.data for p in model.parameters()] + [b for _, b in model.named_buffers()]


class TestEdgeDevice:
    def test_storage_ledger(self):
        device = EdgeDevice(DeviceProfile("test", storage_bytes=1000, memory_bytes=1000))
        device.store("model", 400)
        device.store("support", 300)
        assert device.storage_used == 700
        assert device.storage_free == 300

    def test_over_budget_raises(self):
        device = EdgeDevice(DeviceProfile("test", storage_bytes=100, memory_bytes=100))
        with pytest.raises(EdgeResourceError):
            device.store("model", 200)

    def test_replacing_allocation_reuses_space(self):
        device = EdgeDevice(DeviceProfile("test", storage_bytes=100, memory_bytes=100))
        device.store("model", 90)
        device.store("model", 50)  # replace, not add
        assert device.storage_used == 50

    def test_invalid_profile(self):
        with pytest.raises(EdgeResourceError):
            DeviceProfile("bad", storage_bytes=0, memory_bytes=10)
        with pytest.raises(EdgeResourceError):
            DeviceProfile("bad", storage_bytes=10, memory_bytes=10, relative_compute=0.0)

    def test_negative_size_rejected(self):
        device = EdgeDevice()
        with pytest.raises(EdgeResourceError):
            device.store("x", -1)


class TestTransferPackaging:
    def test_package_contents_and_sizes(self, pretrained_pilote):
        package = package_for_edge(pretrained_pilote)
        assert package.model_bytes == pretrained_pilote.model_nbytes()
        assert package.support_set_bytes == pretrained_pilote.support_set_nbytes()
        assert package.total_bytes == (
            package.model_bytes + package.support_set_bytes + package.prototype_bytes
        )
        assert set(package.exemplar_features) == set(pretrained_pilote.exemplars.classes)
        summary = package.summary()
        assert summary["total_megabytes"] == pytest.approx(package.total_bytes / 2**20)

    @pytest.mark.parametrize("copy_arrays", [True, False])
    def test_instantiated_backbones_share_no_array_with_the_package(
        self, pretrained_pilote, tiny_config, copy_arrays
    ):
        package = package_for_edge(pretrained_pilote)
        first, second = (
            backbone_arrays(package.instantiate_learner(
                tiny_config, seed=seed, copy_arrays=copy_arrays
            ))
            for seed in (1, 2)
        )
        package_arrays = list(package.model_state.values())
        assert len(first) == len(second) == len(package_arrays)
        for array in first + second:
            assert not any(np.shares_memory(array, held) for held in package_arrays)
        for array in first:
            assert not any(np.shares_memory(array, other) for other in second)

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_an_increment_leaves_the_package_and_a_fleet_sibling_unchanged(
        self, pretrained_pilote, tiny_config, run_scenario, profile
    ):
        with precision(profile):
            package = package_for_edge(pretrained_pilote)
            learner, sibling = (
                package.instantiate_learner(tiny_config, seed=seed, copy_arrays=False)
                for seed in (1, 2)
            )
            shipped = (list(package.model_state.values())
                       + list(package.exemplar_features.values())
                       + list(package.prototypes.values()))
            shipped_bytes = [array.tobytes() for array in shipped]
            sibling_bytes = [array.tobytes() for array in backbone_arrays(sibling)]
            learner.learn_new_classes(run_scenario.new_train, run_scenario.new_validation)
        assert [array.tobytes() for array in shipped] == shipped_bytes
        assert [array.tobytes() for array in backbone_arrays(sibling)] == sibling_bytes
        assert learner.model.state_dict().keys() == package.model_state.keys()
        assert any(
            learner.model.state_dict()[key].tobytes() != package.model_state[key].tobytes()
            for key in package.model_state
        )

    def test_package_requires_pretrained(self, tiny_config):
        from repro.core.pilote import PILOTE

        with pytest.raises(NotFittedError):
            package_for_edge(PILOTE(tiny_config))

    def test_exemplar_storage_bytes_formula(self):
        # The paper's number: 200 exemplars/class x 4 classes x 80 features (float32) = 256 KB.
        assert exemplar_storage_bytes(800, 80) == 256_000
        with pytest.raises(ValueError):
            exemplar_storage_bytes(-1, 80)


class TestCloudPretrain:
    def test_pretrain_and_package(self, run_scenario, tiny_config):
        from repro.core.pilote import PILOTE

        learner = PILOTE(tiny_config, seed=0)
        learner.pretrain(run_scenario.old_train, run_scenario.old_validation)
        assert learner.is_pretrained
        package = package_for_edge(learner)
        assert package.total_bytes > 0


class TestMagnetoPlatform:
    def test_full_pipeline(self, run_scenario, tiny_config):
        platform = MagnetoPlatform(tiny_config, seed=0)
        platform.cloud_pretrain(run_scenario.old_train, run_scenario.old_validation,
                                exemplars_per_class=10)
        package = platform.deploy_to_edge()
        assert platform.storage_report() == {
            "model": package.model_bytes,
            "support_set": package.support_set_bytes,
            "prototypes": package.prototype_bytes,
            "free_bytes": platform.device.profile.storage_bytes - package.total_bytes,
        }
        platform.device.learn_new_activity(run_scenario.new_train, run_scenario.new_validation)
        predictions = platform.serving_client().predict(run_scenario.test.features)
        assert predictions.shape[0] == run_scenario.test.n_samples
        assert int(Activity.RUN) in set(predictions.tolist())
        report = platform.storage_report()
        learner = platform.device.learner
        assert report["support_set"] == learner.support_set_nbytes() > package.support_set_bytes
        assert report["prototypes"] == learner.prototypes.nbytes() > package.prototype_bytes
        assert report["free_bytes"] > 0

    def test_pipeline_order_enforced(self, run_scenario, tiny_config):
        platform = MagnetoPlatform(tiny_config, seed=0)
        with pytest.raises(NotFittedError):
            platform.deploy_to_edge()
        with pytest.raises(NotFittedError):
            platform.serving_client().predict(run_scenario.test.features)


#: A device profile computing in float64, beside the stock float32 ones.
FLOAT64_PHONE = DeviceProfile(
    "float64-phone", storage_bytes=64 * 2**20, memory_bytes=512 * 2**20,
    relative_compute=0.5, compute_dtype="float64",
)


class TestPlatformDevice:
    """The platform deploys, learns and serves through one ``FleetDevice``."""

    @pytest.mark.parametrize(
        "profile, dtype",
        [(DEVICE_PROFILES["smartphone"], np.float32), (FLOAT64_PHONE, np.float64)],
        ids=["smartphone", "float64-phone"],
    )
    def test_the_edge_learner_runs_at_the_profile_dtype(
        self, profile, dtype, pretrained_pilote, run_scenario, tiny_config, monkeypatch
    ):
        served = []
        prototype_matrix = NCMClassifier.prototype_matrix

        def spy(classifier):
            matrix = prototype_matrix(classifier)
            served.append(matrix.dtype)
            return matrix

        monkeypatch.setattr(NCMClassifier, "prototype_matrix", spy)
        with precision("reference"):
            platform = MagnetoPlatform(tiny_config, device_profile=profile, seed=0)
            platform.cloud_learner = pretrained_pilote
            platform.deploy_to_edge()
            platform.device.learn_new_activity(
                run_scenario.new_train, run_scenario.new_validation
            )
            platform.serving_client().predict(run_scenario.test.features[:16])
        learner = platform.device.learner
        assert learner is not pretrained_pilote
        weights = {parameter.data.dtype for parameter in learner.model.parameters()}
        assert weights == {np.dtype(dtype)}
        assert served and set(served) == {np.dtype(dtype)}
        assert platform.serving_client().scheduler.devices[0].serving_dtype == np.dtype(dtype).name

    def test_platform_and_one_device_fleet_serve_the_same_ids(
        self, pretrained_pilote, tiny_config
    ):
        """Deployed from one package at one profile, the platform's device
        and a fleet's device hold the same state and answer the same ids."""
        windows = np.random.default_rng(11).normal(size=(4096, pretrained_pilote.model.input_dim))
        with precision("reference"):
            platform = MagnetoPlatform(tiny_config, seed=0)
            platform.cloud_learner = pretrained_pilote
            package = platform.deploy_to_edge()
            fleet = FleetCoordinator(tiny_config, profiles=(platform.device.profile,), seed=1)
            fleet.provision(1)
            fleet.deploy(package)
            from_platform = serve(platform).predict(windows)
            from_fleet = serve(fleet).predict(windows)
            platform_state, _ = pilote_state(platform.device.learner)
            fleet_state, _ = pilote_state(fleet.device(0).learner)
        assert from_platform.dtype == from_fleet.dtype
        assert from_platform.tobytes() == from_fleet.tobytes()
        assert sorted(platform_state) == sorted(fleet_state)
        for key, array in platform_state.items():
            assert array.dtype == fleet_state[key].dtype, key
            assert array.tobytes() == fleet_state[key].tobytes(), key

    def test_two_pipelines_at_one_seed_learn_the_same_state(self, run_scenario, tiny_config):
        def pipeline():
            with precision("reference"):
                platform = MagnetoPlatform(tiny_config, seed=4)
                platform.cloud_pretrain(
                    run_scenario.old_train, run_scenario.old_validation,
                    exemplars_per_class=10,
                )
                platform.deploy_to_edge()
                platform.device.learn_new_activity(
                    run_scenario.new_train, run_scenario.new_validation
                )
                return pilote_state(platform.device.learner)

        (first, first_meta), (second, second_meta) = pipeline(), pipeline()
        assert first_meta == second_meta
        assert sorted(first) == sorted(second)
        for key in first:
            assert first[key].dtype == second[key].dtype, key
            assert first[key].tobytes() == second[key].tobytes(), key


def _module_level_imports(tree):
    """Dotted names imported when a module is imported (``module.name`` for
    a ``from`` import): its top-level statements, class bodies and branches,
    but neither function bodies nor ``if TYPE_CHECKING:`` blocks."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.If):
            if not (isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"):
                pending.extend(node.body)
            pending.extend(node.orelse)
        elif isinstance(node, (ast.Try, ast.With, ast.ClassDef)):
            for field in ("body", "handlers", "orelse", "finalbody"):
                pending.extend(getattr(node, field, []))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def test_edge_imports_no_layer_above_it_at_module_level():
    """``fleet`` → ``serving`` → ``edge.magneto`` is an import chain, so an
    edge module importing a layer above it at import time is a cycle."""
    above = ("repro.fleet", "repro.serving", "repro.server", "repro.control")
    offenders = {}
    for path in sorted(Path(repro.edge.__file__).parent.glob("*.py")):
        bad = [
            name
            for name in _module_level_imports(ast.parse(path.read_text()))
            if name in above or name.startswith(tuple(f"{layer}." for layer in above))
        ]
        if bad:
            offenders[path.name] = bad
    assert offenders == {}


def test_the_ast_check_sees_a_module_level_import():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import repro.fleet\n"
        "from repro import control\n"
        "if TYPE_CHECKING:\n    from repro.serving import serve\n"
        "def later():\n    from repro.control import ControlPlane\n"
        "try:\n    from repro.server import wire\nexcept ImportError:\n    pass\n"
    )
    assert sorted(_module_level_imports(ast.parse(source))) == [
        "repro.control", "repro.fleet", "repro.server.wire", "typing.TYPE_CHECKING",
    ]


class TestProfiler:
    def test_profile_increment_reports(self, pilote_copy, run_scenario):
        profiler = EdgeProfiler()
        report = profiler.profile_increment(
            pilote_copy,
            run_scenario.new_train,
            run_scenario.new_validation,
            inference_data=run_scenario.test,
        )
        assert report.epochs_run >= 1
        assert report.total_seconds > 0
        assert report.mean_epoch_seconds > 0
        assert report.inference_seconds_per_window > 0
        assert report.support_set_bytes > 0
        summary = report.summary()
        assert summary["support_set_kilobytes"] == pytest.approx(report.support_set_bytes / 1024)

    def test_scaled_to_slower_device(self):
        report = LatencyReport(epochs_run=2, total_seconds=1.0, epoch_seconds=[0.4, 0.6])
        scaled = report.scaled_to(DEVICE_PROFILES["wearable"])
        assert scaled.total_seconds == pytest.approx(10.0)
        assert scaled.mean_epoch_seconds == pytest.approx(5.0)

    def test_profile_inference_requires_trained(self, tiny_config, run_scenario):
        from repro.core.pilote import PILOTE

        with pytest.raises(NotFittedError):
            EdgeProfiler().profile_inference(PILOTE(tiny_config), run_scenario.test)

    def test_max_epoch_seconds(self):
        report = LatencyReport(epochs_run=2, total_seconds=1.0, epoch_seconds=[0.4, 0.6])
        assert report.max_epoch_seconds == pytest.approx(0.6)


class TestProfilerPhases:
    def test_latency_report_roundtrip_with_phases(self):
        report = LatencyReport(
            epochs_run=2,
            total_seconds=1.5,
            epoch_seconds=[0.7, 0.8],
            phase_seconds={"training": 1.2, "herding": 0.2,
                           "prototype_refresh": 0.1},
        )
        clone = LatencyReport.from_dict(report.to_dict())
        assert clone == report
        assert clone.summary()["herding_seconds"] == pytest.approx(0.2)

    def test_scaled_to_scales_phases(self):
        report = LatencyReport(
            epochs_run=1, total_seconds=1.0, epoch_seconds=[1.0],
            phase_seconds={"training": 0.5},
        )
        slow = DeviceProfile("slow", storage_bytes=2**20, memory_bytes=2**20,
                             relative_compute=0.5)
        scaled = report.scaled_to(slow)
        assert scaled.phase_seconds["training"] == pytest.approx(1.0)

    def test_profile_increment_exports_phase_breakdown(self, pilote_copy,
                                                       run_scenario):
        report = EdgeProfiler().profile_increment(
            pilote_copy, run_scenario.new_train, run_scenario.new_validation
        )
        assert set(report.phase_seconds) == {
            "training", "herding", "prototype_refresh"
        }
        assert report.to_dict()["phase_seconds"] == report.phase_seconds
