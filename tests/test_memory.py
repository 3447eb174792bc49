"""What the inference program and the edge increment allocate.

Inside the eval program ``EmbeddingNetwork.embed`` runs
(``primitives.eval_forward``) BatchNorm and ReLU overwrite the array the
previous layer made, and the no-tape Linear adds its bias into its own
product.  These tests pin the three promises that makes:

* the caller's array is never written, by ``embed`` or by a program whose
  first layer is not a Linear;
* every output equals the eval-mode ``Tensor`` forward byte for byte, in both
  precision profiles, at one row, one chunk (``EMBED_ROWS``) and past one
  and two chunks, and a layer whose parameters differ from the activation's
  dtype keeps its out-of-place ops;
* the allocation peaks (tracemalloc, no timing): an ``embed`` call adds at
  most two activations of the widest layer, and ``learn_new_classes`` at a
  tiny config stays under a fixed bound.
"""

from __future__ import annotations

import copy
import tracemalloc

import numpy as np
import pytest

from repro.autodiff import primitives
from repro.autodiff.primitives import eval_forward
from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import get_backend, precision
from repro.core.config import PiloteConfig
from repro.core.embedding import EMBED_ROWS, EmbeddingNetwork
from repro.core.pilote import PILOTE
from repro.nn.layers import BatchNorm1d, Linear, ReLU, Sequential

#: The edge-lightweight backbone's widths (80 → 128 → 64 → 32).
WIDE = PiloteConfig(hidden_dims=(128, 64), embedding_dim=32, seed=0)

#: The tiny config of the repository's verification recipe.
VERIFY = PiloteConfig(hidden_dims=(32, 16), embedding_dim=8, batch_size=16,
                      max_epochs_pretrain=4, max_epochs_increment=3,
                      cache_size=60, max_pairs_per_batch=64, seed=0)

#: ``learn_new_classes`` peaks (bytes) at :data:`VERIFY` on the ``run_scenario``
#: fixture's scenario, 10% above those measured with numpy 2.4 on Python 3.11
#: (264,714 and 147,174).  Before the validation pass shared the support rows
#: and teacher with training and Adam freed its step buffers between steps,
#: they read 359,179 and 195,059; before the inference layers worked in place
#: and a step released its tape and gradients, 435,011 and 234,027.
INCREMENT_PEAK_BOUND = {"reference": 291_100, "edge": 161_900}


def _trained_network(input_dim, config, seed=3):
    """A network whose BatchNorm statistics moved off their initial values."""
    model = EmbeddingNetwork(input_dim, config=config, rng=seed)
    rng = np.random.default_rng(seed)
    model(Tensor(rng.normal(size=(16, input_dim)) * 2.0 + 0.5))
    return model


def _eval_forward(module, array):
    """The eval-mode ``Tensor`` forward's bytes."""
    was_training = module.training
    module.eval()
    with no_grad():
        output = module(Tensor(array, dtype=array.dtype)).data
    module.train(was_training)
    return output


def _peak_bytes(function):
    """Transient tracemalloc peak of ``function()`` above what was live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        function()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestInPlaceInference:
    @pytest.mark.parametrize("profile", ["reference", "edge"])
    @pytest.mark.parametrize("rows", [1, EMBED_ROWS, EMBED_ROWS + 1, 2 * EMBED_ROWS + 1])
    def test_embed_never_writes_the_callers_array_and_matches_the_tensor_forward(
        self, profile, rows
    ):
        with precision(profile):
            model = _trained_network(6, WIDE)
            features = get_backend().asarray(np.random.default_rng(rows).normal(size=(rows, 6)))
            before = features.copy()
            embedded = model.embed(features)
            assert np.array_equal(features, before)
            expected = np.concatenate([
                _eval_forward(model.backbone, features[start:start + EMBED_ROWS])
                for start in range(0, rows, EMBED_ROWS)
            ])
        assert embedded.dtype == expected.dtype
        assert embedded.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    @pytest.mark.parametrize("opening", [BatchNorm1d, ReLU])
    def test_a_program_opening_with_another_layer_only_reads_the_callers_array(
        self, profile, opening
    ):
        with precision(profile):
            first, second = (BatchNorm1d(6), ReLU()) if opening is BatchNorm1d else (
                ReLU(), BatchNorm1d(6))
            chain = Sequential(first, second, Linear(6, 4, rng=0))
            chain(Tensor(np.random.default_rng(4).normal(size=(16, 6)) + 1.0))
            kinds = {BatchNorm1d: "batch_norm", ReLU: "relu", Linear: "linear"}
            norm = next(layer for layer in chain.layers if isinstance(layer, BatchNorm1d))
            features = get_backend().asarray(np.random.default_rng(5).normal(size=(7, 6)))
            before = features.copy()
            output = eval_forward(
                features, tuple((kinds[type(layer)], None) for layer in chain.layers),
                chain.parameters(), [norm],
            )
            assert np.array_equal(features, before)
            expected = _eval_forward(chain, features)
        assert output.tobytes() == expected.tobytes()

    @staticmethod
    def _record_overwrites(monkeypatch):
        """Patch the eval program's BatchNorm and ReLU forwards to record,
        per call, whether the result went into the array they were handed."""
        record = {"batch_norm": [], "relu": []}
        for kind, name in (("batch_norm", "_batch_norm_eval_forward"),
                           ("relu", "_relu_forward")):
            def spy(ctx, hidden, *args, _original=getattr(primitives, name),
                    _calls=record[kind], **kwargs):
                output = _original(ctx, hidden, *args, **kwargs)
                _calls.append(output is hidden)
                return output
            monkeypatch.setattr(primitives, name, spy)
        return record

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_layers_past_the_first_overwrite_the_programs_arrays(self, profile, monkeypatch):
        with precision(profile):
            model = _trained_network(6, WIDE)
            features = get_backend().asarray(np.random.default_rng(1).normal(size=(5, 6)))
            record = self._record_overwrites(monkeypatch)
            model.embed(features)
        assert record == {"batch_norm": [True, True], "relu": [True, True]}

    @pytest.mark.parametrize("built, served", [("reference", "edge"), ("edge", "reference")])
    def test_parameters_of_another_dtype_keep_the_out_of_place_ops(
        self, built, served, monkeypatch
    ):
        """float64 parameters under the edge policy, float32 ones under the
        reference policy: BatchNorm allocates its result, and the bytes are
        the tape's."""
        with precision(built):
            model = _trained_network(6, WIDE)
        with precision(served):
            features = get_backend().asarray(np.random.default_rng(2).normal(size=(11, 6)))
            before = features.copy()
            record = self._record_overwrites(monkeypatch)
            embedded = model.embed(features)
            monkeypatch.undo()
            expected = _eval_forward(model.backbone, features)
        assert np.array_equal(features, before)
        assert record["batch_norm"] == [False, False]
        assert embedded.dtype == expected.dtype
        assert embedded.tobytes() == expected.tobytes()

    def test_a_linear_whose_bias_is_wider_adds_it_out_of_place(self):
        with precision("edge"):
            layer = Linear(6, 4, rng=0)
            layer.bias.data = np.random.default_rng(6).normal(size=4)  # float64
            inputs = get_backend().asarray(np.random.default_rng(7).normal(size=(5, 6)))
            output = eval_forward(inputs, (("linear", None),), [layer.weight, layer.bias], [])
            expected = _eval_forward(layer, inputs)
        assert layer.weight.data.dtype == np.float32
        assert output.dtype == expected.dtype == np.float64
        assert output.tobytes() == expected.tobytes()


class TestAllocationPeaks:
    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_embed_adds_at_most_two_activations_of_the_widest_layer(self, profile):
        with precision(profile):
            model = EmbeddingNetwork(80, config=WIDE, rng=0)
            features = get_backend().asarray(
                np.random.default_rng(0).normal(size=(EMBED_ROWS, 80))
            )
            model.embed(features)  # caches the BatchNorm eval constants
            peak = _peak_bytes(lambda: model.embed(features))
        activation = EMBED_ROWS * max(WIDE.hidden_dims) * features.itemsize
        # one layer's output beside the next one's: 1.63 activations here,
        # and 4.13 when BatchNorm allocated each of its steps
        assert peak <= 2 * activation

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_learn_new_classes_stays_under_its_peak(self, run_scenario, profile):
        with precision(profile):
            learner = PILOTE(VERIFY, seed=0)
            learner.pretrain(run_scenario.old_train, run_scenario.old_validation,
                             exemplars_per_class=15)
            # a first increment fills the process-wide caches (pair indices)
            copy.deepcopy(learner).learn_new_classes(
                run_scenario.new_train, run_scenario.new_validation
            )
            peak = _peak_bytes(lambda: learner.learn_new_classes(
                run_scenario.new_train, run_scenario.new_validation
            ))
        assert peak <= INCREMENT_PEAK_BOUND[profile]
