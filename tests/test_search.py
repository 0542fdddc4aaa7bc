"""The float32-screened search against the plain float64 tile scan."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gausshelp import search
from gausshelp.search import ScreenedSearch, _argmax_f64, _best_two, score_bound


def assert_same_as_f64(a, b):
    index, value = ScreenedSearch(b).argmax(a)
    want_index, want_value = _argmax_f64(a, b)
    assert index.dtype == np.int64 and value.dtype == np.float64
    assert np.array_equal(index, want_index)
    # Relative to the scale of the scores, |a| |b_j|: a single score may cancel to near 0.
    scale = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1).max()
    close = np.abs(value - want_value) <= 1e-12 * scale
    assert np.all(close | (value == want_value) | (np.isnan(value) & np.isnan(want_value)))
    return index, value


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 12), rows=st.integers(1, 40),
       d=st.integers(1, 40), tile_rows=st.integers(1, 9),
       a_exp=st.sampled_from([-30, 0, 30]), b_exp=st.sampled_from([-30, 0, 30]),
       duplicates=st.booleans(), near_tie=st.booleans(), zero_rows=st.booleans())
def test_matches_f64_scan(seed, queries, rows, d, tile_rows, a_exp, b_exp, duplicates,
                          near_tie, zero_rows):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((rows, d))
    a = rng.standard_normal((queries, d))
    if duplicates and rows > 1:
        # Exact ties, aimed at by the first query: the smallest index wins.
        b[rows // 2:] = b[:rows - rows // 2]
        a[0] = b[0]
    near_tie = near_tie and rows > 1
    if near_tie:
        # Rows 0 and -1 lead the last query by less than the float32 bound; -1 wins.
        b[0] *= 2 * np.linalg.norm(b, axis=1).max() / np.linalg.norm(b[0])
        b[-1] = b[0] * (1 + 1e-3 * score_bound(d))
        a[-1] = b[0]
    if zero_rows:
        a[::2] = 0.0
    a *= 10.0 ** a_exp
    b *= 10.0 ** b_exp
    with mock.patch.object(search, "TILE_FLOATS", tile_rows * queries):
        index, value = assert_same_as_f64(a, b)
    if zero_rows:
        assert np.all(index[::2] == 0) and np.all(value[::2] == 0.0)
    if near_tie and not (zero_rows and (queries - 1) % 2 == 0):
        assert index[-1] == rows - 1


def assert_grouped_same_as_f64(a, b, group):
    """The grouped search against _argmax_f64 on each row's own codebook."""
    index, value = ScreenedSearch(b).argmax(a, group)
    assert index.dtype == np.int64 and value.dtype == np.float64
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        want_index, want_value = _argmax_f64(a[rows], b[g])
        assert np.array_equal(index[rows], want_index), g
        scale = np.linalg.norm(a[rows], axis=1) * np.linalg.norm(b[g], axis=1).max()
        got = value[rows]
        close = np.abs(got - want_value) <= 1e-12 * scale
        assert np.all(close | (got == want_value) | (np.isnan(got) & np.isnan(want_value)))
    return index, value


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 12), groups=st.integers(1, 5),
       rows=st.integers(1, 40), d=st.integers(1, 24), tile_rows=st.integers(1, 9),
       scale_exp=st.sampled_from([-30, 0, 30]), duplicates=st.booleans(),
       shared=st.booleans(), near_tie=st.booleans(), zero_rows=st.booleans(),
       engine_layout=st.booleans())
def test_grouped_matches_f64_scan_per_group(seed, queries, groups, rows, d, tile_rows,
                                            scale_exp, duplicates, shared, near_tie,
                                            zero_rows, engine_layout):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((groups, rows, d))
    a = rng.standard_normal((queries, d))
    group = rng.integers(0, groups, queries)
    if shared and groups > 1:
        # Identical codebooks, and one query row repeated, across groups.
        b[1:] = b[0]
        a[-1] = a[0]
        group[-1] = (group[0] + 1) % groups
    if duplicates and rows > 1:
        # Exact ties within each group, aimed at by the first query.
        b[:, rows // 2:] = b[:, :rows - rows // 2]
        a[0] = b[group[0], 0]
    near_tie = near_tie and rows > 1
    if near_tie:
        # Rows 0 and -1 of the last query's codebook lead it by less than the
        # float32 bound; -1 wins.
        g = group[-1]
        b[g, 0] *= 2 * np.linalg.norm(b, axis=-1).max() / np.linalg.norm(b[g, 0])
        b[g, -1] = b[g, 0] * (1 + 1e-3 * score_bound(d))
        a[-1] = b[g, 0]
    if zero_rows:
        a[::2] = 0.0
    a *= 10.0 ** scale_exp
    if engine_layout:
        # The engine's codebooks: a (G, N, d) view of memory laid out (d, G, N).
        b = np.ascontiguousarray(b.transpose(2, 0, 1)).transpose(1, 2, 0)
    with mock.patch.object(search, "TILE_FLOATS", tile_rows * queries):
        index, value = assert_grouped_same_as_f64(a, b, group)
    if zero_rows:
        assert np.all(index[::2] == 0) and np.all(value[::2] == 0.0)
    if near_tie and not (zero_rows and (queries - 1) % 2 == 0):
        assert index[-1] == rows - 1


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(2, 64), groups=st.integers(1, 3),
       rows=st.integers(2, 40), d=st.integers(1, 33), tile_rows=st.integers(1, 9),
       tie=st.sampled_from(["none", "exact", "near", "unscreened"]), misaligned=st.booleans())
def test_each_row_is_searched_as_if_alone(seed, queries, groups, rows, d, tile_rows, tie,
                                          misaligned):
    # A row's index and value, bitwise, do not depend on the rows that share
    # the call: a batch of stream chunks searches rows that a lone chunk
    # would search in other company.  Ties send the rows aimed at them to the
    # float64 scan: duplicated codebook rows ("exact"), rows a float32 rounding
    # apart ("near"), or every row, as queries too small for the screen.
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((groups, rows, d))
    group = rng.integers(0, groups, queries)
    a = rng.standard_normal((queries, d))
    if tie == "exact":
        b[:, rows // 2:] = b[:, :rows - rows // 2]
    elif tie == "near":
        b[:, -1] = b[:, 0] * (1 + 1e-3 * score_bound(d))
    if tie in ("exact", "near"):
        a[::2] = b[group[::2], 0] * 3.0
    elif tie == "unscreened":
        a *= 1e-160
    if misaligned:
        # Rows that start 8 bytes off the allocation's alignment.
        buffer = np.empty(queries * d + 1)[1:].reshape(queries, d)
        buffer[...] = a
        a = buffer
    s = ScreenedSearch(b)
    with mock.patch.object(search, "TILE_FLOATS", tile_rows * queries):
        index, value = s.argmax(a, group)
        for i in range(queries):
            alone = s.argmax(a[i:i + 1], group[i:i + 1])
            assert (alone[0][0], alone[1].tobytes()) == (index[i], value[i:i + 1].tobytes()), i


def best_two_reference(a, b, groups):
    """_best_two by brute force: each row's whole score row, its first maximum,
    and the maximum left when one instance of it is removed."""
    index = np.zeros(len(a), dtype=np.int64)
    best, second = np.full(len(a), -np.inf), np.full(len(a), -np.inf)
    for g, lo, hi in groups:
        for i in range(lo, hi):
            # Small integers: every score is exact, in any summation order.
            scores = np.sum(a[i].astype(np.float64) * b[g], axis=1)
            index[i] = np.argmax(scores)
            best[i] = scores[index[i]]
            second[i] = np.delete(scores, index[i]).max(initial=-np.inf)
    return index, best, second


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), queries=st.integers(1, 64), groups=st.integers(1, 4),
       rows=st.integers(1, 200), d=st.integers(1, 6), tile_rows=st.integers(1, 8),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_best_two_matches_the_whole_score_matrix(seed, queries, groups, rows, d, tile_rows,
                                                 dtype):
    # Integer scores tie often, also across tiles: the earlier tile keeps the
    # index and the runner-up equals the best.  Narrow tiles make many of
    # them, so some see more than an eighth of the rows' best move and most
    # see fewer.  The first row of each range meets its best on the last
    # tile, and the second scores -inf everywhere: it keeps index 0.
    rng = np.random.default_rng(seed)
    b = rng.integers(-2, 3, (groups, rows, d)).astype(dtype)
    b[:, :, 0] = rng.integers(1, 3, (groups, rows))
    a = rng.integers(-2, 3, (queries, d)).astype(dtype)
    cuts = np.unique(np.r_[0, rng.integers(0, queries, groups - 1), queries])
    ranges = [(int(g), int(lo), int(hi)) for g, lo, hi in
              zip(rng.integers(0, groups, len(cuts) - 1), cuts[:-1], cuts[1:])]
    for g, lo, hi in ranges:
        a[lo, 0] = 1
        b[g, -1] = 3 * a[lo]
        if hi - lo > 1:
            a[lo + 1] = 0
            a[lo + 1, 0] = -np.inf
    want = best_two_reference(a, b, ranges)
    # Padding in the GEMM may multiply -inf by 0 in entries it does not return.
    with mock.patch.object(search, "TILE_FLOATS", tile_rows * queries), \
            np.errstate(invalid="ignore"):
        got = _best_two(a, b, ranges)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
    # The last range of each group set its codebook's last row.
    for lo in {g: lo for g, lo, _ in ranges}.values():
        assert got[0][lo] == rows - 1
    for g, lo, hi in ranges:
        if hi - lo > 1:
            assert (got[0][lo + 1], got[1][lo + 1], got[2][lo + 1]) == (0, -np.inf, -np.inf)


def test_grouped_rows_search_their_own_codebook():
    # Query row i scores against codebook group[i] only: the same query finds
    # a different index in each codebook, and exact ties break to the
    # smallest index per codebook.
    b = np.array([[[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
                  [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]])
    a = np.array([[2.0, 0.1], [2.0, 0.1], [0.1, 2.0], [0.1, 2.0], [1.0, 1.0]])
    index, value = assert_grouped_same_as_f64(a, b, np.array([0, 1, 0, 1, 1]))
    assert index.tolist() == [0, 1, 1, 0, 0]
    assert value.tolist() == [2.0, 2.0, 2.0, 2.0, 1.0]


def test_grouped_non_finite_and_zero_codebook():
    b = np.zeros((3, 4, 2))
    b[1] = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0]]
    b[2] = b[1] * 1e-3
    a = np.array([[np.inf, 1.0], [np.nan, 0.0], [0.0, 2.0], [3.0, 1.0], [3.0, 1.0], [0.0, 0.0]])
    with np.errstate(invalid="ignore"):
        assert_grouped_same_as_f64(a, b, np.array([1, 1, 0, 0, 2, 1]))
    index, value = ScreenedSearch(b).argmax(np.empty((0, 2)), np.empty(0, dtype=np.int64))
    assert index.shape == value.shape == (0,)


def test_near_tie_goes_to_the_larger_score():
    # Equal in float32, so the screen cannot order them; float64 can.
    b = np.array([[1.0, 0.0], [1.0, 1e-9]])
    index, value = ScreenedSearch(b).argmax(np.array([[1.0, 1.0]]))
    assert index.tolist() == [1] and value.tolist() == [1.0 + 1e-9]


def test_exact_tie_goes_to_the_smallest_index():
    b = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [0.5, 0.5]])
    index, _ = ScreenedSearch(b).argmax(np.array([[2.0, 0.0]]))
    assert index.tolist() == [1]


def test_clear_winners_skip_the_f64_scan():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((500, 8))
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    a = b[[7, 300, 499]] * 2.0
    with mock.patch.object(search, "_argmax_f64", side_effect=AssertionError):
        index, value = ScreenedSearch(b).argmax(a)
    assert index.tolist() == [7, 300, 499]
    assert np.allclose(value, 2.0, rtol=1e-15)


def test_non_finite_and_empty_inputs():
    b = np.array([[1.0, 0.0], [0.0, 1.0]])
    a = np.array([[np.inf, 1.0], [np.nan, 0.0], [0.0, 2.0]])
    with np.errstate(invalid="ignore"):
        assert_same_as_f64(a, b)
    index, value = ScreenedSearch(b).argmax(np.empty((0, 2)))
    assert index.shape == value.shape == (0,)
    # A codebook the screen cannot scale falls back whole.
    assert_same_as_f64(np.ones((2, 2)), np.zeros((3, 2)))


def test_search_holds_one_score_tile():
    # 128 rows against 2^16 points fill four float32 tiles of TILE_FLOATS
    # scores; one argmax holds one of them at a time, plus the query's copies,
    # a few (k, d) blocks.  A fresh tile per GEMM held two at once.
    rng = np.random.default_rng(5)
    k, d = 128, 32
    s = ScreenedSearch(rng.standard_normal((1 << 16, d)))
    a = rng.standard_normal((k, d))
    tracemalloc.start()
    try:
        s.argmax(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * search.TILE_FLOATS + 16 * k * d * 8


@pytest.mark.parametrize("d", [1, 32, 144, 1600])
def test_bound_covers_a_float32_dot_product(d):
    # The bound exceeds the worst observed float32 error by a wide margin.
    rng = np.random.default_rng(d)
    a = rng.standard_normal((64, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    exact = a @ a[0]
    err = np.abs(a.astype(np.float32) @ a[0].astype(np.float32) - exact)
    assert err.max() < score_bound(d) / 4
