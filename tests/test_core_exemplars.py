"""Tests for herding/random exemplar selection and the ExemplarStore."""

import tracemalloc

import numpy as np
import pytest

from repro.backend import get_backend, precision
from repro.core.exemplars import ExemplarStore, herding_selection, random_selection
from repro.exceptions import DataError


def _clustered_class(seed=0, n=50, d=4, outliers=5):
    rng = np.random.default_rng(seed)
    core = rng.normal(0.0, 0.5, size=(n - outliers, d))
    far = rng.normal(8.0, 0.5, size=(outliers, d))
    return np.concatenate([core, far], axis=0)


def _naive_herding(embeddings, n_exemplars):
    """Algorithm 1's herding step written out: at step ``k`` take the unused
    row whose inclusion puts the running mean closest to the prototype."""
    prototype = embeddings.mean(axis=0)
    running = np.zeros_like(prototype)
    selected = []
    for step in range(1, min(n_exemplars, len(embeddings)) + 1):
        errors = np.linalg.norm((running + embeddings) / step - prototype, axis=1)
        errors[selected] = np.inf
        selected.append(int(np.argmin(errors)))
        running += embeddings[selected[-1]]
    return selected


class TestHerdingSelection:
    def test_selected_mean_approximates_prototype(self):
        embeddings = _clustered_class()
        features = embeddings.copy()
        prototype = embeddings.mean(axis=0)
        indices = herding_selection(features, embeddings, 10)
        herded_error = np.linalg.norm(embeddings[indices].mean(axis=0) - prototype)
        rng = np.random.default_rng(0)
        random_errors = []
        for _ in range(20):
            random_idx = rng.choice(embeddings.shape[0], size=10, replace=False)
            random_errors.append(np.linalg.norm(embeddings[random_idx].mean(axis=0) - prototype))
        # Herding tracks the prototype at least as well as a typical random draw.
        assert herded_error <= np.mean(random_errors)

    def test_no_duplicate_selection(self):
        embeddings = _clustered_class(1)
        indices = herding_selection(embeddings, embeddings, 20)
        assert len(set(indices.tolist())) == 20

    def test_budget_capped_at_population(self):
        embeddings = np.random.default_rng(0).normal(size=(5, 3))
        assert herding_selection(embeddings, embeddings, 10).shape[0] == 5

    def test_first_pick_is_closest_to_prototype(self):
        embeddings = np.array([[0.0, 0.0], [1.0, 1.0], [0.1, 0.1], [5.0, 5.0]])
        prototype = embeddings.mean(axis=0)
        first = herding_selection(embeddings, embeddings, 1)[0]
        distances = np.linalg.norm(embeddings - prototype, axis=1)
        assert first == int(np.argmin(distances))

    def test_matches_the_written_out_selection(self):
        for seed, n in ((3, 50), (4, 23)):
            embeddings = np.random.default_rng(seed).normal(size=(n, 5))
            selected = herding_selection(embeddings, embeddings, 15)
            assert selected.tolist() == _naive_herding(embeddings, 15)

    def test_calls_do_not_depend_on_earlier_calls(self):
        """Each call owns its scores vector: interleaving calls of other
        sizes and dtypes leaves every selection as a fresh call makes it."""
        big = _clustered_class(2)
        small = big[7:30]
        fresh_big = herding_selection(big, big, 12)
        with precision("edge"):
            fresh_small = herding_selection(small, small, 9)
        for _ in range(2):
            with precision("edge"):
                assert np.array_equal(herding_selection(small, small, 9), fresh_small)
            assert np.array_equal(herding_selection(small, small, 9),
                                  _naive_herding(small, 9))
            assert np.array_equal(herding_selection(big, big, 12), fresh_big)

    @pytest.mark.parametrize("profile", ["reference", "edge"])
    def test_peak_allocation_is_linear_in_the_rows(self, profile):
        """Each step is one matrix-vector product into one scores vector, so
        a call's tracemalloc peak stays under a bound computed from the
        shapes; an ``(n, d)`` candidate-mean matrix would not fit in it."""
        n, d, m = 1500, 64, 250
        with precision(profile):
            embeddings = get_backend().asarray(np.random.default_rng(0).normal(size=(n, d)))
            herding_selection(embeddings, embeddings, m)  # first-call costs out
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                herding_selection(embeddings, embeddings, m)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
        itemsize = embeddings.itemsize
        bound = (
            2 * n * itemsize    # the squared norms and the scores
            + 2 * n             # the availability mask and its negation
            + 4 * d * itemsize  # prototype, running sum, centre, a mean temporary
            + 56 * m            # per exemplar: a list slot, an int and an int64 index
            + 1024              # array and Python object headers
        )
        assert peak <= bound
        assert n * d * itemsize > bound

    def test_invalid_arguments(self):
        embeddings = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(DataError):
            herding_selection(embeddings, embeddings, 0)
        with pytest.raises(DataError):
            herding_selection(embeddings[:3], embeddings, 2)
        with pytest.raises(DataError):
            herding_selection(embeddings, np.zeros(5), 2)


class TestRandomSelection:
    def test_count_and_uniqueness(self):
        features = np.random.default_rng(0).normal(size=(30, 4))
        indices = random_selection(features, features, 10, rng=0)
        assert indices.shape[0] == 10
        assert len(set(indices.tolist())) == 10

    def test_deterministic_with_seed(self):
        features = np.random.default_rng(0).normal(size=(30, 4))
        assert np.array_equal(
            random_selection(features, features, 5, rng=7),
            random_selection(features, features, 5, rng=7),
        )

    def test_invalid_budget(self):
        with pytest.raises(DataError):
            random_selection(np.zeros((5, 2)), np.zeros((5, 2)), 0)


class TestExemplarStore:
    def _store_with_two_classes(self, strategy="herding", capacity=20):
        store = ExemplarStore(capacity=capacity, strategy=strategy, rng=0)
        rng = np.random.default_rng(0)
        for class_id in (0, 1):
            rows = rng.normal(class_id * 3.0, 1.0, size=(40, 4))
            store.select(class_id, rows, rows, n_exemplars=10)
        return store

    def test_selection_and_lookup(self):
        store = self._store_with_two_classes()
        assert store.classes == [0, 1]
        assert store.get(0).shape == (10, 4)
        assert sum(store.exemplars_per_class().values()) == 20
        assert store.exemplars_per_class() == {0: 10, 1: 10}

    def test_per_class_budget_follows_algorithm1(self):
        store = ExemplarStore(capacity=800)
        assert store.per_class_budget() == 800
        for class_id in range(4):
            store.set_exemplars(class_id, np.zeros((1, 3)))
        assert store.per_class_budget() == 200
        assert ExemplarStore(capacity=None).per_class_budget() is None

    def test_as_dataset_round_trip(self):
        store = self._store_with_two_classes()
        features, labels = store.as_dataset()
        assert features.shape == (20, 4)
        assert sorted(np.unique(labels).tolist()) == [0, 1]

    def test_as_dataset_empty_raises(self):
        with pytest.raises(DataError):
            ExemplarStore().as_dataset()

    def test_nbytes_float32(self):
        store = self._store_with_two_classes()
        assert store.nbytes() == 20 * 4 * 4

    def test_set_and_get(self):
        store = ExemplarStore()
        store.set_exemplars(3, np.ones((5, 2)))
        assert 3 in store and 4 not in store
        assert store.get(3).shape == (5, 2)
        with pytest.raises(KeyError):
            store.get(4)

    def test_random_strategy_store(self):
        store = self._store_with_two_classes(strategy="random")
        assert sum(store.exemplars_per_class().values()) == 20

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            ExemplarStore(capacity=0)
        with pytest.raises(DataError):
            ExemplarStore(strategy="coreset")
        store = ExemplarStore()
        with pytest.raises(DataError):
            store.select(0, np.zeros((0, 3)), np.zeros((0, 3)))
        with pytest.raises(DataError):
            store.set_exemplars(0, np.zeros((0, 3)))

    def test_paper_support_set_size_accounting(self):
        """200 exemplars/class x 4 classes x 80 float32 features < 256 KB."""
        store = ExemplarStore(capacity=800, strategy="random", rng=0)
        rng = np.random.default_rng(0)
        for class_id in range(4):
            rows = rng.normal(size=(250, 80))
            store.select(class_id, rows, rows, n_exemplars=200)
        assert sum(store.exemplars_per_class().values()) == 800
        assert store.nbytes() == 800 * 80 * 4
        assert store.nbytes() < 256 * 1024


class TestAliasingContract:
    """Pin both sides of the ``set_exemplars(copy=...)`` aliasing contract."""

    def _policy_rows(self, seed=0, shape=(6, 4)):
        from repro.backend import get_backend

        rng = np.random.default_rng(seed)
        return get_backend().asarray(rng.normal(size=shape))

    def test_copy_true_isolates_store_from_posthoc_mutation(self):
        rows = self._policy_rows()
        snapshot = rows.copy()
        store = ExemplarStore()
        store.set_exemplars(0, rows)  # copy=True default
        rows[:] = -1.0
        assert np.array_equal(store.get(0), snapshot)

    def test_copy_false_aliases_the_handed_over_array(self):
        rows = self._policy_rows(seed=1)
        store = ExemplarStore()
        store.set_exemplars(0, rows, copy=False)
        assert store.get(0) is rows
        rows[0, 0] = 123.0  # the documented hazard, demonstrated
        assert store.get(0)[0, 0] == 123.0

    def test_copy_false_with_dtype_cast_still_copies(self):
        """asarray with a differing dtype materialises a fresh buffer."""
        from repro.backend import get_backend

        rows = np.random.default_rng(2).normal(size=(5, 3))
        cast = rows.astype(
            np.float32 if np.dtype(get_backend().asarray(rows).dtype) != np.float32
            else np.float64
        )
        store = ExemplarStore()
        store.set_exemplars(0, cast, copy=False)
        assert store.get(0) is not cast

    def test_replacing_entries_never_mutates_shared_rows(self):
        """The store-side promise: replacing an entry never writes the old rows."""
        rows = self._policy_rows(seed=3, shape=(8, 4))
        snapshot = rows.copy()
        store = ExemplarStore()
        store.set_exemplars(0, rows, copy=False)
        store.set_exemplars(0, self._policy_rows(seed=4))
        assert np.array_equal(rows, snapshot)
