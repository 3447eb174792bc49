"""Micro-benchmarks of the compute backend.

Two questions are answered, both reported for context:

1. **Op dispatch** — what does routing every tensor op through the named
   registry cost per operation?
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

from repro.autodiff.tensor import Tensor
from repro.backend import precision
from repro.core.config import PiloteConfig
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
    """Per-op cost of registry dispatch vs raw numpy (informational)."""
    x = Tensor(np.ones(32), requires_grad=True)
    y = Tensor(np.ones(32))
    raw_x, raw_y = x.data, y.data
    iterations = 2000

    def registry_ops():
        for _ in range(iterations):
            (x * y + y)

    def raw_ops():
        for _ in range(iterations):
            (raw_x * raw_y + raw_y)

    registry_ns = best_of(registry_ops) / (2 * iterations) * 1e9
    raw_ns = best_of(raw_ops) / (2 * iterations) * 1e9
    report(
        "bench_backend_dispatch",
        "op dispatch overhead\n"
        f"  registry-dispatched tensor op: {registry_ns:9.0f} ns/op\n"
        f"  raw numpy equivalent:          {raw_ns:9.0f} ns/op\n"
        f"  overhead factor:               {registry_ns / raw_ns:9.1f}x",
    )
    assert registry_ns < 1e6  # sanity: dispatch stays in the microsecond range


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
