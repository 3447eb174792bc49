"""Micro-benchmarks of the compute backend and the vectorized hot paths.

Three questions are answered, each against a faithful copy of the seed
implementation kept below as the *legacy* reference:

1. **Op dispatch** — what does routing every tensor op through the named
   registry cost per operation?
2. **Hot paths in isolation** — herding selection (incremental-mean GEMV
   formulation vs per-step candidate-mean materialisation) and batched NCM
   prediction (GEMM distances + ``take`` vs broadcast deltas + per-row list
   comprehension).
3. **The PILOTE incremental-update step** — embed the new-class windows,
   herding-select their exemplars, refresh every class prototype and serve a
   prediction batch; run once the seed way (float64 + legacy algorithms) and
   once the current way (float32 edge profile + vectorized paths + batched
   ``InferenceEngine``).  The acceptance bar for the backend refactor is a
   ≥ 2× end-to-end speedup on this step.

Run via pytest (``python -m pytest benchmarks/bench_backend.py -q -s``) or
directly (``PYTHONPATH=src python benchmarks/bench_backend.py``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.autodiff.tensor import Tensor, no_grad
from repro.backend import get_backend, precision
from repro.core.embedding import EmbeddingNetwork
from repro.core.config import PiloteConfig
from repro.core.exemplars import herding_selection
from repro.core.ncm import NCMClassifier
from repro.core.prototypes import PrototypeStore
from repro.edge.inference import InferenceEngine
from repro.core.pilote import PILOTE
from repro.data.synthetic import make_feature_dataset

# --------------------------------------------------------------------------- #
# legacy (seed) reference implementations
# --------------------------------------------------------------------------- #


def legacy_herding_selection(embeddings: np.ndarray, n_exemplars: int) -> np.ndarray:
    """The seed's herding loop: per-step candidate-mean matrix + row norms."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    count = embeddings.shape[0]
    n_exemplars = min(int(n_exemplars), count)
    prototype = embeddings.mean(axis=0)
    selected = []
    running_sum = np.zeros_like(prototype)
    available = np.ones(count, dtype=bool)
    for step in range(1, n_exemplars + 1):
        candidate_means = (running_sum[None, :] + embeddings) / step
        distances = np.linalg.norm(candidate_means - prototype[None, :], axis=1)
        distances[~available] = np.inf
        best = int(np.argmin(distances))
        selected.append(best)
        available[best] = False
        running_sum += embeddings[best]
    return np.asarray(selected, dtype=np.int64)


def legacy_ncm_predict(
    embeddings: np.ndarray, prototypes: np.ndarray, classes: list
) -> np.ndarray:
    """The seed's NCM path: broadcast delta tensor + per-row list comprehension."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    prototypes = np.asarray(prototypes, dtype=np.float64)
    deltas = embeddings[:, None, :] - prototypes[None, :, :]
    distances = np.linalg.norm(deltas, axis=2)
    nearest = np.argmin(distances, axis=1)
    return np.asarray([classes[index] for index in nearest], dtype=np.int64)


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


def test_herding_speedup(report):
    """Vectorized incremental-mean herding vs the seed loop (same selection)."""
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(2000, 64))
    budget = 300

    new_indices = herding_selection(embeddings, embeddings, budget)
    legacy_indices = legacy_herding_selection(embeddings, budget)
    # The two formulations are equal in exact arithmetic but round
    # differently, so a near-tie can legitimately flip an argmin on another
    # BLAS.  Compare the *objective* (distance of the running selected mean
    # to the prototype at every step) instead of exact index equality.
    prototype = embeddings.mean(axis=0)

    def objective(indices):
        running = np.cumsum(embeddings[indices], axis=0)
        means = running / np.arange(1, len(indices) + 1)[:, None]
        return np.linalg.norm(means - prototype, axis=1)

    assert np.allclose(objective(new_indices), objective(legacy_indices), atol=1e-8)

    legacy_seconds = best_of(lambda: legacy_herding_selection(embeddings, budget))
    new_seconds = best_of(lambda: herding_selection(embeddings, embeddings, budget))
    speedup = legacy_seconds / new_seconds
    report(
        "bench_backend_herding",
        "herding selection (n=2000, d=64, m=300)\n"
        f"  legacy (candidate-mean matrix): {legacy_seconds * 1e3:8.2f} ms\n"
        f"  vectorized (GEMV):              {new_seconds * 1e3:8.2f} ms\n"
        f"  speedup:                        {speedup:8.2f}x",
    )
    assert speedup >= 2.0


def test_batched_ncm_speedup(report):
    """GEMM distances + cached ``take`` vs broadcast deltas + list comprehension."""
    rng = np.random.default_rng(1)
    n_classes, dim = 6, 64
    prototype_vectors = {c * 7: rng.normal(size=dim) for c in range(n_classes)}
    classifier = NCMClassifier().fit(prototype_vectors)
    queries = rng.normal(size=(4096, dim))
    classes = classifier.classes_
    matrix = np.stack([prototype_vectors[c] for c in classes])

    new_predictions = classifier.predict(queries)
    legacy_predictions = legacy_ncm_predict(queries, matrix, classes)
    assert np.array_equal(new_predictions, legacy_predictions)

    legacy_seconds = best_of(lambda: legacy_ncm_predict(queries, matrix, classes))
    new_seconds = best_of(lambda: classifier.predict(queries))
    speedup = legacy_seconds / new_seconds
    report(
        "bench_backend_ncm",
        "batched NCM prediction (4096 queries, 6 classes, d=64)\n"
        f"  legacy (deltas + list comp): {legacy_seconds * 1e3:8.2f} ms\n"
        f"  vectorized (GEMM + take):    {new_seconds * 1e3:8.2f} ms\n"
        f"  speedup:                     {speedup:8.2f}x",
    )
    assert speedup >= 2.0


def _embed(network: EmbeddingNetwork, windows: np.ndarray) -> np.ndarray:
    with no_grad():
        return network.embed(windows)


def test_incremental_update_step_speedup(report):
    """The edge update cycle: embed → herd → refresh prototypes → serve.

    Legacy: float64 throughout, seed herding, per-class prototype loop, seed
    NCM serving.  Current: float32 edge profile, vectorized herding, grouped
    prototype refresh and the batched :class:`InferenceEngine`.
    """
    rng = np.random.default_rng(2)
    config = PiloteConfig(
        hidden_dims=(128, 64), embedding_dim=32, cache_size=1200, seed=0
    )
    n_old_classes, per_class = 5, 200
    new_windows = rng.normal(size=(1200, 80))
    serve_windows = rng.normal(size=(2048, 80))
    old_rows = {c: rng.normal(size=(per_class, 80)) for c in range(n_old_classes)}
    budget = 200

    # ---------------- legacy step (seed algorithms, float64) -------------- #
    def legacy_step():
        network = legacy_step.network
        new_embeddings = _embed(network, new_windows.astype(np.float64))
        chosen = legacy_herding_selection(new_embeddings, budget)
        exemplars = dict(old_rows)
        exemplars[n_old_classes] = new_windows[chosen]
        classes, matrix_rows = [], []
        for class_id in sorted(exemplars):
            embeddings = _embed(network, exemplars[class_id].astype(np.float64))
            classes.append(class_id)
            matrix_rows.append(embeddings.mean(axis=0))
        matrix = np.stack(matrix_rows)
        served = _embed(network, serve_windows.astype(np.float64))
        return legacy_ncm_predict(served, matrix, classes)

    # ---------------- current step (edge profile, vectorized) ------------- #
    def current_step():
        learner = current_step.learner
        with precision("edge"):
            new_embeddings = learner.model.embed(new_windows)
            learner.exemplars.select(
                n_old_classes, new_windows, new_embeddings, n_exemplars=budget
            )
            learner._refresh_prototypes()
            engine = current_step.engine
            engine.invalidate()
            return engine.predict(serve_windows)

    with precision("reference"):
        legacy_step.network = EmbeddingNetwork(80, config=config, rng=0)

    with precision("edge"):
        learner = PILOTE(config, seed=0)
        learner.model = EmbeddingNetwork(80, config=config, rng=0)
        learner._old_classes = list(range(n_old_classes))
        for class_id, rows in old_rows.items():
            learner.exemplars.set_exemplars(class_id, rows)
        learner._refresh_prototypes()
        current_step.learner = learner
        current_step.engine = learner.inference_engine(batch_size=1024)

    legacy_predictions = legacy_step()
    current_predictions = current_step()
    # Same model weights, same windows: the two paths must agree on (almost)
    # every served window despite the dtype difference.
    agreement = float(np.mean(legacy_predictions == current_predictions))
    assert agreement >= 0.9

    legacy_seconds = best_of(legacy_step, repeats=5)
    current_seconds = best_of(current_step, repeats=5)
    speedup = legacy_seconds / current_seconds
    report(
        "bench_backend_update_step",
        "PILOTE incremental-update step (1200 new windows, 6 classes, 2048 served)\n"
        f"  seed path   (float64 + legacy herding/NCM): {legacy_seconds * 1e3:8.2f} ms\n"
        f"  backend path (float32 + vectorized + engine): {current_seconds * 1e3:8.2f} ms\n"
        f"  speedup:                                     {speedup:8.2f}x\n"
        f"  prediction agreement across paths:           {agreement:8.3f}",
    )
    assert speedup >= 2.0


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
    test_herding_speedup(_report)
    test_batched_ncm_speedup(_report)
    test_incremental_update_step_speedup(_report)
    test_end_to_end_learn_new_classes_dtype_speedup(_report)
    print("\nall backend benchmarks passed")
