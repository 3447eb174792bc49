"""Micro-benchmarks of the substrates PILOTE is built on.

These are not paper figures; they document the cost of the building blocks
(synthetic data generation, feature extraction, the training step's
forward/backward, the inference forward, herding selection, NCM prediction) so regressions in the substrate show up in
the benchmark history.  The allocation benchmark at the bottom compares the
serving footprint of the two precision profiles.  Herding's own peak
allocation is gated in the tier-1 suite
(``tests/test_core_exemplars.py``).
"""

import time
import tracemalloc

import numpy as np
import pytest

from repro.backend import get_backend, precision
from repro.core.config import PiloteConfig
from repro.core.embedding import EmbeddingNetwork
from repro.core.exemplars import herding_selection
from repro.core.ncm import NCMClassifier
from repro.core.pairs import PairSampler
from repro.data.activities import Activity
from repro.data.sensors import default_sensor_suite
from repro.data.synthetic import SyntheticSensorGenerator
from repro.features.extractor import StatisticalFeatureExtractor


@pytest.fixture(scope="module")
def raw_windows():
    generator = SyntheticSensorGenerator(seed=0)
    return generator.generate_windows(Activity.WALK, 256)


def test_synthetic_generation_throughput(benchmark):
    generator = SyntheticSensorGenerator(seed=0)
    windows = benchmark(lambda: generator.generate_windows(Activity.RUN, 128))
    assert windows.shape[0] == 128


def test_feature_extraction_throughput(benchmark, raw_windows):
    suite = default_sensor_suite()
    extractor = StatisticalFeatureExtractor(
        suite.triaxial_groups, sampling_rate_hz=suite.sampling_rate_hz
    )
    features = benchmark(lambda: extractor.transform(raw_windows))
    assert features.shape == (256, 80)


def test_backbone_forward_backward(benchmark):
    """One training step, as production runs it: ``training_loss`` (the
    backbone and PILOTE's objective in one op) and its ``backward``."""
    network = EmbeddingNetwork(
        80, config=PiloteConfig(hidden_dims=(128, 64), embedding_dim=32, seed=0)
    )
    batch = np.random.default_rng(0).normal(size=(64, 80))
    pairs = PairSampler(256, rng=0).sample(np.arange(64) % 4)

    def step():
        network.zero_grad()
        loss = network.training_loss(
            batch, left=pairs.left, right=pairs.right, same_class=pairs.same_class
        )
        loss.backward()
        return float(loss.data)

    value = benchmark(step)
    assert np.isfinite(value)


def test_paper_scale_backbone_forward(benchmark):
    """Inference through the paper's backbone, as every serving path runs it."""
    network = EmbeddingNetwork(80, config=PiloteConfig(seed=0))
    batch = np.random.default_rng(0).normal(size=(64, 80))
    out = benchmark(lambda: network.embed(batch))
    assert out.shape == (64, 128)


def test_herding_selection_cost(benchmark):
    rng = np.random.default_rng(0)
    embeddings = rng.normal(size=(1000, 64))
    indices = benchmark(lambda: herding_selection(embeddings, embeddings, 200))
    assert indices.shape[0] == 200


def test_ncm_prediction_latency(benchmark):
    rng = np.random.default_rng(0)
    classifier = NCMClassifier().fit({c: rng.normal(size=64) for c in range(5)})
    queries = rng.normal(size=(512, 64))
    predictions = benchmark(lambda: classifier.predict(queries))
    assert predictions.shape == (512,)


# --------------------------------------------------------------------------- #
# peak allocations by precision profile
# --------------------------------------------------------------------------- #


def _peak_bytes_and_seconds(function):
    """Run ``function`` under tracemalloc; return (peak bytes, wall seconds)."""
    tracemalloc.start()
    start = time.perf_counter()
    function()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak, seconds


def test_float32_profile_halves_serving_footprint(report):
    """Embedding + distance buffers under the edge profile take half the bytes.

    Measures the serving path: ``EmbeddingNetwork.embed`` (the eval program,
    in chunks of ``EMBED_ROWS``), then ``pairwise_distances`` to the
    prototypes, on a network built in each profile's dtype.  The windows and
    prototypes arrive in that dtype, as a device's do.
    """
    rng = np.random.default_rng(2)
    windows = rng.normal(size=(1024, 80))
    references = rng.normal(size=(6, 32))
    config = PiloteConfig(hidden_dims=(128, 64), embedding_dim=32, seed=0)
    networks, inputs = {}, {}
    for profile in ("reference", "edge"):
        with precision(profile):
            networks[profile] = EmbeddingNetwork(80, config=config, rng=0)
            inputs[profile] = get_backend().asarray(windows), get_backend().asarray(references)

    def serve(profile):
        batch, prototypes = inputs[profile]
        with precision(profile):
            embeddings = networks[profile].embed(batch)
            return get_backend().pairwise_distances(embeddings, prototypes)

    peak64, seconds64 = _peak_bytes_and_seconds(lambda: serve("reference"))
    peak32, seconds32 = _peak_bytes_and_seconds(lambda: serve("edge"))
    report(
        "bench_substrate_dtype_footprint",
        "serving 1024 windows: peak tracemalloc bytes by dtype profile\n"
        f"  reference (float64): {peak64 / 1024:10.1f} KiB  {seconds64 * 1e3:7.2f} ms\n"
        f"  edge      (float32): {peak32 / 1024:10.1f} KiB  {seconds32 * 1e3:7.2f} ms\n"
        f"  footprint ratio:     {peak64 / max(peak32, 1):10.2f}x",
    )
    assert peak32 < peak64
