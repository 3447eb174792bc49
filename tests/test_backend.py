"""Tests for the compute backend: dtype policy, op registry, kernels."""

import numpy as np
import pytest

from repro.autodiff.gradcheck import check_gradients
from repro.autodiff.tensor import Tensor
from repro.backend import (
    NumpyBackend,
    default_dtype,
    get_backend,
    get_op,
    list_ops,
    precision,
    resolve_dtype,
    set_default_dtype,
)
from repro.backend.registry import OpContext
from repro.core.config import PiloteConfig
from repro.core.pilote import PILOTE
from repro.data.streams import build_incremental_scenario
from repro.data.synthetic import make_feature_dataset
from repro.exceptions import ConfigurationError, GradientError, ShapeError


class TestDtypePolicy:
    def test_default_is_float64_reference_profile(self):
        assert default_dtype() == np.dtype(np.float64)

    def test_precision_context_switches_and_restores(self):
        assert Tensor([1.0]).data.dtype == np.float64
        with precision("edge"):
            assert default_dtype() == np.dtype(np.float32)
            assert Tensor([1.0]).data.dtype == np.float32
            with precision("float64"):
                assert Tensor([1.0]).data.dtype == np.float64
            assert Tensor([1.0]).data.dtype == np.float32
        assert Tensor([1.0]).data.dtype == np.float64

    def test_precision_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with precision("float32"):
                raise RuntimeError("boom")
        assert default_dtype() == np.dtype(np.float64)

    def test_set_default_dtype_returns_previous(self):
        previous = set_default_dtype("float32")
        try:
            assert previous == np.dtype(np.float64)
            assert default_dtype() == np.dtype(np.float32)
        finally:
            set_default_dtype(previous)

    def test_resolve_dtype_rejects_unsupported(self):
        with pytest.raises(ConfigurationError):
            resolve_dtype("int32")
        with pytest.raises(ConfigurationError):
            resolve_dtype(np.int64)

    def test_interior_nodes_follow_leaf_dtype_not_policy(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, dtype="float64")
        with precision("edge"):
            out = (x * x).sum()
        assert out.data.dtype == np.float64

    def test_explicit_dtype_overrides_policy(self):
        with precision("edge"):
            assert Tensor([1.0], dtype="float64").data.dtype == np.float64


class TestOpRegistry:
    def test_core_primitives_are_registered(self):
        names = list_ops()
        for expected in (
            "add", "neg", "sub", "mul", "div", "pow", "matmul", "sqrt",
            "relu", "clamp_min", "sum", "reshape", "transpose", "getitem",
            "linear", "batch_norm_train", "batch_norm_eval",
            "pairwise_squared_distance", "pilote_step",
        ):
            assert expected in names
        assert "definitely-not-an-op" not in names
        # The training step replaced the objective-only op.
        assert "pilote_objective" not in names

    def test_unknown_op_raises_with_known_names(self):
        with pytest.raises(KeyError, match="known ops"):
            get_op("nonexistent")

    def test_op_testable_in_isolation_without_tensors(self):
        spec = get_op("mul")
        ctx = OpContext("mul")
        ctx.needs_input_grad = (True, True)
        a = np.array([2.0, 3.0])
        b = np.array([4.0, 5.0])
        out = spec.forward(ctx, a, b)
        assert np.allclose(out, [8.0, 15.0])
        grad_a, grad_b = spec.vjp(ctx, np.ones(2))
        assert np.allclose(grad_a, b)
        assert np.allclose(grad_b, a)

    def test_tape_records_carry_op_names(self):
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 4)), requires_grad=True)
        loss = ((x @ w).relu()).sum()
        assert loss.op == "sum"
        ops_in_tape = [name for name, _ in loss.trace()]
        assert "matmul" in ops_in_tape
        assert "relu" in ops_in_tape
        assert "leaf" in ops_in_tape

    def test_registry_dispatch_matches_closed_form_gradients(self):
        x = Tensor(np.array([[1.0, -2.0], [3.0, 0.5]]), requires_grad=True)
        loss = ((x * x) + x).sum()
        loss.backward()
        assert np.allclose(x.grad, 2.0 * x.data + 1.0)


class TestBackendKernels:
    def test_pairwise_euclidean_matches_naive(self):
        rng = np.random.default_rng(0)
        queries = rng.normal(size=(13, 7))
        references = rng.normal(size=(5, 7))
        fast = get_backend().pairwise_distances(queries, references)
        naive = np.linalg.norm(queries[:, None, :] - references[None, :, :], axis=2)
        assert np.allclose(fast, naive, atol=1e-10)

    def test_pairwise_shape_errors(self):
        backend = get_backend()
        with pytest.raises(ShapeError):
            backend.pairwise_distances(np.zeros((3, 2)), np.zeros((3, 5)))
        with pytest.raises(ShapeError):
            backend.pairwise_distances(np.zeros(3), np.zeros((3, 2)))

    def test_backend_asarray_follows_policy(self):
        backend = get_backend()
        assert isinstance(backend, NumpyBackend)
        with precision("edge"):
            assert backend.asarray([1.0, 2.0]).dtype == np.float32
        assert backend.asarray([1.0, 2.0]).dtype == np.float64

    def test_backend_zeros_follows_policy_unless_dtype_given(self):
        backend = get_backend()
        with precision("edge"):
            assert backend.zeros((2, 3)).dtype == np.float32
            assert backend.zeros(4, dtype="float64").dtype == np.float64
        zeros = backend.zeros((2, 3))
        assert zeros.dtype == np.float64 and not zeros.any()

    def test_one_process_wide_instance(self):
        assert get_backend() is get_backend()
        assert type(get_backend()) is NumpyBackend

    def test_ncm_distances_go_through_the_class_kernel(self, monkeypatch):
        """Wrapping ``NumpyBackend.pairwise_distances`` on the class sees
        every NCM distance call: span tracers and counters patch it there."""
        from repro.core.ncm import NCMClassifier

        original = NumpyBackend.pairwise_distances
        calls = []

        def recorded(self, queries, references):
            calls.append((np.shape(queries), np.shape(references)))
            return original(self, queries, references)

        monkeypatch.setattr(NumpyBackend, "pairwise_distances", recorded)
        prototypes = {0: np.zeros(3), 1: np.ones(3), 4: np.full(3, 5.0)}
        classifier = NCMClassifier().fit(prototypes)
        predicted = classifier.predict(np.array([[0.1, 0.0, 0.0], [4.0, 5.0, 6.0]]))
        assert predicted.tolist() == [0, 4]
        assert calls == [((2, 3), (3, 3))]


class TestGradcheckDtypePolicy:
    def test_gradcheck_passes_in_float64(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, dtype="float64")
        w = Tensor(rng.normal(size=(3, 2)), requires_grad=True, dtype="float64")

        def function(inputs):
            a, b = inputs
            product = a @ b
            return ((product * product + 1.0).sqrt() * product).sum()

        assert check_gradients(function, [x, w])

    def test_gradcheck_passes_even_under_edge_policy(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype="float64")
        with precision("edge"):
            assert check_gradients(lambda inputs: (inputs[0] * inputs[0]).sum(), [x])

    def test_gradcheck_rejects_float32_inputs(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True, dtype="float32")
        with pytest.raises(GradientError, match="float64"):
            check_gradients(lambda inputs: (inputs[0] * inputs[0]).sum(), [x])


def _train_learner(dtype_profile, scenario):
    config = PiloteConfig(
        hidden_dims=(32, 16),
        embedding_dim=8,
        batch_size=16,
        max_epochs_pretrain=4,
        max_epochs_increment=3,
        cache_size=60,
        max_pairs_per_batch=64,
        seed=0,
    )
    with precision(dtype_profile):
        learner = PILOTE(config, seed=0)
        learner.pretrain(scenario.old_train, scenario.old_validation, exemplars_per_class=10)
        learner.learn_new_classes(scenario.new_train, scenario.new_validation)
    return learner


class TestEndToEndDtypeParity:
    @pytest.fixture(scope="class")
    def scenario(self):
        dataset = make_feature_dataset(samples_per_class=40, seed=11)
        return build_incremental_scenario(dataset, [int(dataset.classes[-1])], rng=3)

    def test_training_is_finite_and_comparable_in_both_dtypes(self, scenario):
        """Full float32 training works and lands near the float64 accuracy.

        Bitwise dtype parity of *training* is impossible (rounding compounds
        over optimisation steps), so the contract is: both runs are finite
        and the edge precision costs essentially no accuracy.
        """
        learner32 = _train_learner("edge", scenario)
        learner64 = _train_learner("reference", scenario)
        with precision("edge"):
            scores32 = learner32.embed(scenario.test.features)
            accuracy32 = learner32.evaluate(scenario.test)
        scores64 = learner64.embed(scenario.test.features)
        accuracy64 = learner64.evaluate(scenario.test)
        assert np.all(np.isfinite(scores32))
        assert np.all(np.isfinite(scores64))
        assert accuracy32 > 0.5 and accuracy64 > 0.5
        assert abs(accuracy32 - accuracy64) <= 0.2

    def test_inference_of_one_model_agrees_across_dtypes(self, scenario):
        """The same trained model served in float32 predicts like float64.

        Inference is a single forward pass, so dtype rounding (~1e-7) moves
        distances far less than typical class margins; predictions must agree
        on (essentially) every window.
        """
        import copy

        learner64 = _train_learner("reference", scenario)
        predictions64 = learner64.predict(scenario.test.features)

        with precision("edge"):
            learner32 = copy.deepcopy(learner64)
            for parameter in learner32.model.parameters():
                parameter.data = parameter.data.astype(np.float32)
            learner32._refresh_prototypes()
            predictions32 = learner32.predict(scenario.test.features)
            embeddings32 = learner32.embed(scenario.test.features)

        assert embeddings32.dtype == np.float32
        agreement = float(np.mean(predictions32 == predictions64))
        assert agreement >= 0.95

    def test_float32_training_serves_float32_embeddings(self, scenario):
        with precision("edge"):
            learner = PILOTE(
                PiloteConfig(
                    hidden_dims=(16,), embedding_dim=4, batch_size=16,
                    max_epochs_pretrain=2, cache_size=40, max_pairs_per_batch=32, seed=1,
                ),
                seed=1,
            )
            learner.pretrain(scenario.old_train, exemplars_per_class=8)
            embeddings = learner.embed(scenario.test.features)
        assert embeddings.dtype == np.float32
