"""Micro-benchmarks of the compute backend.

Two questions are answered, both reported for context:

1. **Step dispatch** — what does dispatching PILOTE's training step (one
   ``pilote_step`` op) through ``EmbeddingNetwork.training_loss`` and
   ``Tensor.backward`` cost per step, against calling the op's forward and
   vjp directly?
2. **Precision profiles** — how long does ``learn_new_classes`` take under
   the edge (float32) profile against the reference (float64) one?

The herding and NCM hot paths' equality with their written-out algorithms
is checked in the tier-1 suite
(``tests/test_core_exemplars.py::TestHerdingSelection`` and
``tests/test_core_pairs_prototypes_ncm.py``), as is herding's peak
allocation.

Run via pytest (``python -m pytest benchmarks/bench_backend.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_backend.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.autodiff.primitives import _pilote_step_forward, _pilote_step_vjp
from repro.backend import OpContext, precision
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.pairs import PairSampler
from repro.core.pilote import PILOTE
from repro.data.synthetic import make_feature_dataset

# --------------------------------------------------------------------------- #
# timing helper
# --------------------------------------------------------------------------- #


def best_of(function, repeats: int = 5) -> float:
    """Best wall-clock seconds over ``repeats`` runs (min is noise-robust)."""
    timings = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        timings.append(time.perf_counter() - start)
    return min(timings)


# --------------------------------------------------------------------------- #
# benchmarks
# --------------------------------------------------------------------------- #


def test_op_dispatch_overhead(report):
    """Per-step cost of dispatching the training step (informational).

    Production runs one op a training step: ``training_loss`` wraps the
    batch in a ``Tensor``, dispatches ``pilote_step`` through the registry
    onto a one-record tape and updates the BatchNorm running statistics,
    and ``backward`` hands each parameter its cotangent.  The direct path
    calls the same ``_pilote_step_forward``/``_pilote_step_vjp`` on an
    ``OpContext``, on the same batch and pairs, at the edge-lightweight
    widths.
    """
    config = PiloteConfig.edge_lightweight(seed=0)
    network = EmbeddingNetwork(80, config=config)
    batch = np.random.default_rng(0).normal(size=(config.batch_size, 80))
    pairs = PairSampler(config.max_pairs_per_batch, rng=0).sample(
        np.arange(config.batch_size) % 4
    )
    objective = dict(
        left=pairs.left, right=pairs.right, same_class=pairs.same_class,
        margin=config.margin, variant=config.contrastive_variant,
    )
    layers, parameters, _ = network._step_program
    iterations = 200

    def dispatched_steps():
        for _ in range(iterations):
            network.training_loss(batch, **objective).backward()
            network.zero_grad()

    def direct_steps():
        arrays = [parameter.data for parameter in parameters]
        for _ in range(iterations):
            ctx = OpContext("pilote_step")
            ctx.needs_input_grad = (False,) + (True,) * len(arrays)
            loss = _pilote_step_forward(ctx, batch, *arrays, layers=layers, **objective)
            _pilote_step_vjp(ctx, np.ones_like(loss))

    dispatched_us = best_of(dispatched_steps) / iterations * 1e6
    direct_us = best_of(direct_steps) / iterations * 1e6
    overhead_ns = (dispatched_us - direct_us) * 1e3
    report(
        "bench_backend_dispatch",
        "training-step dispatch overhead (edge-lightweight widths)\n"
        f"  training_loss + backward:      {dispatched_us:9.1f} us/step\n"
        f"  forward + vjp on an OpContext: {direct_us:9.1f} us/step\n"
        f"  dispatch overhead:             {overhead_ns / 1e3:9.1f} us/step",
    )
    assert overhead_ns < 1e6  # sanity: dispatch stays in the microsecond range


def test_end_to_end_learn_new_classes_dtype_speedup(report):
    """Full ``learn_new_classes`` under the edge profile vs reference profile.

    This includes gradient training, so the dtype policy is the only lever —
    reported for context, not gated (BLAS float32/float64 ratios vary by
    platform).
    """
    dataset = make_feature_dataset(samples_per_class=60, seed=5)
    from repro.data.streams import build_incremental_scenario

    scenario = build_incremental_scenario(dataset, [int(dataset.classes[-1])], rng=1)
    config = PiloteConfig(
        hidden_dims=(64, 32), embedding_dim=16, batch_size=32,
        max_epochs_pretrain=3, max_epochs_increment=3, cache_size=150,
        max_pairs_per_batch=128, seed=0,
    )

    def run(profile):
        with precision(profile):
            learner = PILOTE(config, seed=0)
            learner.pretrain(scenario.old_train, exemplars_per_class=30)
            start = time.perf_counter()
            learner.learn_new_classes(scenario.new_train)
            return time.perf_counter() - start

    reference_seconds = run("reference")
    edge_seconds = run("edge")
    report(
        "bench_backend_learn_dtype",
        "learn_new_classes wall clock by dtype profile\n"
        f"  reference (float64): {reference_seconds * 1e3:8.1f} ms\n"
        f"  edge      (float32): {edge_seconds * 1e3:8.1f} ms\n"
        f"  ratio:               {reference_seconds / max(edge_seconds, 1e-9):8.2f}x",
    )
    assert edge_seconds > 0


if __name__ == "__main__":
    def _report(name, text, data=None):
        print()
        print(text)
        return name

    test_op_dispatch_overhead(_report)
    test_end_to_end_learn_new_classes_dtype_speedup(_report)
    print("\nall backend benchmarks passed")
