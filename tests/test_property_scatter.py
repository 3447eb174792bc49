"""Property-based tests (hypothesis) for the pair-incidence matrix.

``pilote_step`` scatters the cotangents of its pair and old-row gathers with
one GEMM, ``Dᵀ @ g``, where ``D = pair_incidence(...)`` holds +1 at each
pair's left row, −1 at its right row and +1 at each old row.  ``D @ e`` must
equal the gathers exactly, and ``Dᵀ @ g`` must equal ``np.add.at``'s
scatter to float rounding (a sum of k terms in another order): both dtypes, repeated, unsorted and self pairs,
an empty pair list and old rows that repeat.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.autodiff.primitives import pair_incidence

SETTINGS = dict(max_examples=200, deadline=None)


@st.composite
def incidence_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = draw(st.integers(1, 12))
    width = draw(st.integers(1, 9))
    pairs = draw(st.integers(0, 40))
    index = st.lists(st.integers(0, rows - 1), min_size=pairs, max_size=pairs)
    left = np.asarray(draw(index), dtype=np.int64)
    right = np.asarray(draw(index), dtype=np.int64)
    old_rows = np.asarray(draw(st.lists(st.integers(0, rows - 1), max_size=12)),
                          dtype=np.int64)
    seed = draw(st.integers(0, 2**31))
    return dtype, rows, width, left, right, old_rows, np.random.default_rng(seed)


def _values(rng, shape, dtype):
    """Normal draws spread over nine orders of magnitude."""
    scale = 10.0 ** rng.integers(-4, 5, size=shape)
    return (rng.normal(size=shape) * scale).astype(dtype)


@given(incidence_cases())
@settings(**SETTINGS)
def test_incidence_product_is_the_pair_difference_and_old_row_gather(case):
    dtype, rows, width, left, right, old_rows, rng = case
    embeddings = _values(rng, (rows, width), dtype)
    matrix = pair_incidence(left, right, rows, old_rows, dtype)
    assert matrix.dtype == dtype
    assert matrix.shape == (left.size + old_rows.size, rows)
    gathered = matrix @ embeddings
    assert np.array_equal(gathered[:left.size], embeddings[left] - embeddings[right])
    assert np.array_equal(gathered[left.size:], embeddings[old_rows])


@given(incidence_cases())
@settings(**SETTINGS)
def test_incidence_transpose_scatters_like_add_at(case):
    dtype, rows, width, left, right, old_rows, rng = case
    grad_pairs = _values(rng, (left.size, width), dtype)
    grad_old = _values(rng, (old_rows.size, width), dtype)
    matrix = pair_incidence(left, right, rows, old_rows, dtype)
    got = matrix.T @ np.concatenate([grad_pairs, grad_old])
    expected = np.zeros((rows, width), dtype=np.float64)
    np.add.at(expected, left, grad_pairs.astype(np.float64))
    np.add.at(expected, right, -grad_pairs.astype(np.float64))
    np.add.at(expected, old_rows, grad_old.astype(np.float64))
    # Each entry sums its row's k contributions in another order: every
    # addition rounds by at most eps/2 of a partial sum no larger than the
    # contributions' magnitude.
    magnitude = np.zeros((rows, width))
    for index, grad in ((left, grad_pairs), (right, grad_pairs), (old_rows, grad_old)):
        np.add.at(magnitude, index, np.abs(grad.astype(np.float64)))
    count = np.bincount(np.concatenate([left, right, old_rows]), minlength=rows)
    epsilon = np.finfo(dtype).eps
    assert got.dtype == dtype
    assert np.all(np.abs(got - expected) <= count[:, None] * epsilon * magnitude)


@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 8), st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_self_pairs_have_zero_rows(dtype, rows, seed):
    rng = np.random.default_rng(seed)
    same = rng.integers(0, rows, size=5)
    matrix = pair_incidence(same, same, rows, dtype=dtype)
    assert not matrix.any()


def test_without_old_rows_there_are_only_pair_rows():
    left, right = np.array([0, 2, 0]), np.array([1, 0, 2])
    matrix = pair_incidence(left, right, 3, dtype=np.float32)
    assert matrix.dtype == np.float32
    np.testing.assert_array_equal(matrix, [[1, -1, 0], [-1, 0, 1], [1, 0, -1]])
    assert pair_incidence(left, right, 3, np.zeros(0, dtype=np.int64)).shape == (3, 3)


def test_no_pairs_and_no_old_rows_is_an_empty_matrix():
    empty = np.zeros(0, dtype=np.int64)
    matrix = pair_incidence(empty, empty, 4, dtype=np.float64)
    assert matrix.shape == (0, 4)
    assert (matrix.T @ np.zeros((0, 3))).shape == (4, 3)
