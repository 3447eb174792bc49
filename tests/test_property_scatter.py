"""Property-based tests (hypothesis) for the row scatter behind row gathers.

``scatter_rows`` replaces ``np.add.at`` in the cotangents of the objective
op's 1-D integer row gathers.  It must be byte-equal to
``np.add.at`` for every input: both dtypes, duplicate, unsorted and negative
indices, an empty index, ``-0.0`` contributions, and single-element slabs
(where numpy would otherwise sum the slab axis pairwise).
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.autodiff.primitives import scatter_rows

SETTINGS = dict(max_examples=300, deadline=None)

INNER_SHAPES = [(), (1,), (2,), (3,), (1, 1), (2, 3), (17,)]


@st.composite
def scatter_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rows = draw(st.integers(1, 6))
    inner = draw(st.sampled_from(INNER_SHAPES))
    index = np.asarray(
        draw(st.lists(st.integers(-rows, rows - 1), max_size=40)), dtype=np.int64
    )
    magnitudes = st.sampled_from([1e-6, 1.0, 3.0, 1e3, 1e7])
    size = index.size * int(np.prod(inner, dtype=np.int64))
    mantissas = draw(st.lists(st.floats(-1.0, 1.0, width=32), min_size=size, max_size=size))
    scales = draw(st.lists(magnitudes, min_size=size, max_size=size))
    values = (np.asarray(mantissas, dtype=np.float64) * np.asarray(scales)).astype(dtype)
    zeros = draw(st.lists(st.sampled_from([None, -0.0]), min_size=size, max_size=size))
    flat = values.reshape(-1)
    flat[[i for i, z in enumerate(zeros) if z is not None]] = -0.0
    return (rows,) + inner, dtype, index, values.reshape((index.size,) + inner)


def reference(shape, dtype, index, values):
    full = np.zeros(shape, dtype=dtype)
    np.add.at(full, index, values)
    return full


def assert_byte_equal(shape, dtype, index, values):
    got = scatter_rows(shape, dtype, index, values)
    expected = reference(shape, dtype, index, values)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(scatter_cases())
@settings(**SETTINGS)
def test_scatter_rows_is_byte_equal_to_add_at(case):
    assert_byte_equal(*case)


@given(st.sampled_from([np.float32, np.float64]), st.integers(9, 200), st.integers(0, 2**31))
@settings(max_examples=60, deadline=None)
@example(np.float32, 29, 5)
def test_single_element_slabs_keep_add_at_order(dtype, count, seed):
    # One row of one element: a plain reduce would sum these pairwise.
    rng = np.random.default_rng(seed)
    values = (rng.normal(size=count) * 10.0 ** rng.integers(-4, 5, size=count)).astype(dtype)
    index = rng.integers(-1, 1, size=count)
    assert_byte_equal((1,), dtype, index, values)
    assert_byte_equal((1, 1), dtype, index, values[:, None])


@given(st.sampled_from([np.float32, np.float64]), st.integers(1, 4))
@settings(max_examples=20, deadline=None)
def test_only_negative_zero_contributions_sum_to_positive_zero(dtype, repeats):
    index = np.array([0, 2, 0] * repeats)
    values = np.full((index.size, 3), -0.0, dtype=dtype)
    got = scatter_rows((4, 3), dtype, index, values)
    assert not np.signbit(got).any()
    assert_byte_equal((4, 3), dtype, index, values)


def test_empty_index_scatters_nothing():
    got = scatter_rows((3, 2), np.float32, np.zeros(0, dtype=np.int64), np.zeros((0, 2)))
    assert got.dtype == np.float32 and not got.any() and got.shape == (3, 2)


def test_few_rows_of_a_large_table_stay_exact():
    # The slab stack would dwarf the contributions: np.add.at's path.
    rng = np.random.default_rng(3)
    index = np.array([5, 900, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5])
    assert_byte_equal((1000, 2), np.float64, index, rng.normal(size=(index.size, 2)))
