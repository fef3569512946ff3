import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import (
    exact_pair_flip_probability,
    grouped_sample_rows,
    insertion_sample,
    looped_bernoulli_sets,
    looped_sample_profile,
    mallows_pmf,
    needs_cc,
    pair_scan_coappearance,
    row_kernel_paths,
    tuple_selection_sets,
    u64,
    u64_array,
)
from mallows_select import core, sampling
from mallows_select.core import (
    MallowsParams,
    Ranking,
    SelectionSequence,
    _csr_arrays,
    kendall_tau,
    kendall_tau_incomplete,
    restrict,
)
from mallows_select.rng import Stream, child_key_grid
from mallows_select.sampling import (
    InfeasibleSpecError,
    SelectionSpec,
    _matchings,
    generate_selection,
    sample_mallows,
    sample_profile,
    verify_p_frequent,
)


def _repeated_selection(s: tuple[int, ...], r: int, n: int) -> SelectionSequence:
    return SelectionSequence([s] * r, n)


class TestSampleMallows:
    def test_singleton_is_deterministic(self):
        out = sample_mallows(Ranking([4]), 1.0, Stream.from_seed(0))
        assert out.items == (4,)

    def test_pair_flip_probability(self):
        beta = 1.3
        stream = Stream.from_seed(41)
        center = Ranking([7, 2])
        trials = 40000
        flips = sum(
            sample_mallows(center, beta, stream.child(t)).items == (2, 7) for t in range(trials)
        )
        expected = exact_pair_flip_probability(beta)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(flips / trials - expected) < 3 * se

    def test_three_item_total_variation(self):
        beta = 1.0
        center = Ranking([0, 1, 2])
        pmf = mallows_pmf(center, beta)
        stream = Stream.from_seed(17)
        trials = 300_000
        counts = Counter()
        params = MallowsParams(center, beta)
        sel = _repeated_selection((0, 1, 2), trials, 3)
        for rk in sample_profile(params, sel, stream).rankings:
            counts[rk.items] += 1
        tv = 0.5 * sum(abs(counts[p] / trials - q) for p, q in pmf.items())
        assert tv < 0.005

    def test_chi_square_exactness_four_items(self):
        beta = 0.5
        center = Ranking([3, 0, 2, 1])
        pmf = mallows_pmf(center, beta)
        stream = Stream.from_seed(23)
        trials = 200_000
        counts = Counter()
        sel = _repeated_selection((0, 1, 2, 3), trials, 4)
        for rk in sample_profile(MallowsParams(center, beta), sel, stream).rankings:
            counts[rk.items] += 1
        keys = sorted(pmf)
        observed = np.array([counts[k] for k in keys], dtype=np.float64)
        expected = np.array([pmf[k] * trials for k in keys])
        chi2 = ((observed - expected) ** 2 / expected).sum()
        assert chi2 < stats.chi2.ppf(0.999, df=len(keys) - 1)

    def test_distance_law(self):
        # distribution of d_KT(restricted center, sample) matches the exact law
        beta = 2.0
        center = Ranking([0, 1, 2, 3])
        pmf = mallows_pmf(center, beta)
        by_distance: dict[int, float] = {}
        for perm, q in pmf.items():
            d = kendall_tau(center, Ranking(perm))
            by_distance[d] = by_distance.get(d, 0.0) + q
        stream = Stream.from_seed(29)
        trials = 200_000
        sel = _repeated_selection((0, 1, 2, 3), trials, 4)
        hist = Counter()
        for rk in sample_profile(MallowsParams(center, beta), sel, stream).rankings:
            hist[kendall_tau_incomplete(center, rk)] += 1
        tv = 0.5 * sum(abs(hist[d] / trials - q) for d, q in by_distance.items())
        assert tv < 0.005


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 63, 64, 65, 8192]), st.lists(st.booleans(), min_size=1, max_size=6), st.integers(0, 2**32))
def test_restricted_centers_equal_the_numpy_sort(n, whole, seed):
    # rows of 2 and of n items, put in center order by a bitmap of 64-bit words where the compiled kernels load
    rng = np.random.default_rng(seed)
    selection = SelectionSequence([range(n) if full else rng.choice(n, 2, replace=False) for full in whole], n)
    center, r = rng.permutation(n), len(whole)
    expected = center[np.sort(np.repeat(np.arange(r) * n, np.diff(selection.offsets)) + np.argsort(center)[selection.items]) % n]
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sampling, "_sample_rows", lambda keys, offsets, restricted, beta: handed.append(restricted) or restricted)
        for _ in row_kernel_paths(patch):
            sample_profile(MallowsParams(Ranking(center.tolist()), 1.0), selection, Stream.from_seed(1))
    assert len(handed) == 2 and all(np.array_equal(rows, expected) for rows in handed)


@needs_cc
@pytest.mark.parametrize("items", [[0, 3], [-1, 2], [1, 1]])
def test_restricted_centers_refuse_an_item_outside_or_twice(items):
    selection = SelectionSequence._from_arrays(3, np.array([0, 2]), np.array(items))
    with pytest.raises(IndexError, match="outside"):
        sample_profile(MallowsParams(Ranking.identity(3), 1.0), selection, Stream.from_seed(1))


class TestSampleProfile:
    def test_noiseless_limit(self):
        center = Ranking(Stream.from_seed(3).permutation(8))
        params = MallowsParams(center, 50.0)
        spec = SelectionSpec(kind="mixed_pfrequent", n=8, p=0.5)
        sel = generate_selection(spec, 100)
        profile = sample_profile(params, sel, Stream.from_seed(4))
        for rk in profile.rankings:
            assert kendall_tau_incomplete(center, rk) == 0

    def test_empty_selection_gives_empty_profile(self):
        sel = SelectionSequence([], n=5)
        profile = sample_profile(MallowsParams(Ranking(range(5)), 1.0), sel, Stream.from_seed(0))
        assert len(profile) == 0

    def test_fixed_seed_reproducibility(self):
        params = MallowsParams(Ranking(Stream.from_seed(1).permutation(5)), 1.0)
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=5, p=0.6), 3)
        a = sample_profile(params, sel, Stream.from_seed(42))
        b = sample_profile(params, sel, Stream.from_seed(42))
        assert [rk.items for rk in a.rankings] == [rk.items for rk in b.rankings]

    def test_matches_per_position_sampling(self):
        params = MallowsParams(Ranking([3, 1, 0, 2, 4]), 1.3)
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=5, p=0.6), 9)
        stream = Stream.from_seed(9)
        profile = sample_profile(params, sel, stream)
        for ell, rk in enumerate(profile.rankings):
            single = sample_mallows(restrict(params.center, sel.sets[ell]), params.beta, stream.child(ell))
            assert single.items == rk.items

    def test_samples_are_valid_permutations_of_their_sets(self):
        params = MallowsParams(Ranking(Stream.from_seed(10).permutation(12)), 0.4)
        spec = SelectionSpec(kind="bernoulli_random", n=12, p=0.25)
        stream = Stream.from_seed(11)
        sel = generate_selection(spec, 50, stream.child(0))
        profile = sample_profile(params, sel, stream.child(1))
        for rk, s in zip(profile.rankings, sel.sets):
            assert tuple(sorted(rk.items)) == s

    def test_independence_across_positions(self):
        # inversion indicator of the pair (0,1) in two complete samples
        params = MallowsParams(Ranking([0, 1, 2]), 0.5)
        sel = _repeated_selection((0, 1, 2), 2, 3)
        stream = Stream.from_seed(31)
        trials = 20000
        x = np.empty(trials)
        y = np.empty(trials)
        for t in range(trials):
            prof = sample_profile(params, sel, stream.child(t))
            x[t] = prof.rankings[0].position_of(0) > prof.rankings[0].position_of(1)
            y[t] = prof.rankings[1].position_of(0) > prof.rankings[1].position_of(1)
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) < 3 / math.sqrt(trials)

    def test_wrong_n_rejected(self):
        params = MallowsParams(Ranking(range(4)), 1.0)
        sel = SelectionSequence([(0, 1)], n=5)
        with pytest.raises(ValueError, match="disagree"):
            sample_profile(params, sel, Stream.from_seed(0))


class TestGenerateSelection:
    def test_complete(self):
        sel = generate_selection(SelectionSpec(kind="complete", n=4), 2)
        assert sel.sets == ((0, 1, 2, 3), (0, 1, 2, 3))

    def test_pairwise_cycles_lexicographically(self):
        sel = generate_selection(SelectionSpec(kind="pairwise", n=3), 5)
        assert sel.sets == ((0, 1), (0, 2), (1, 2), (0, 1), (0, 2))

    def test_mixed_pfrequent_meets_declared_p(self):
        spec = SelectionSpec(kind="mixed_pfrequent", n=20, p=0.5)
        sel = generate_selection(spec, 10)
        report = verify_p_frequent(sel, 0.5)
        assert report.ok
        assert report.counts[np.triu_indices(20, 1)].min() >= 5

    def test_mixed_pfrequent_small_r_still_constructible(self):
        # r=1 at p=1/6 must work: the binary searches probe r=1 for every p
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=6, p=1 / 6), 1)
        assert sel.sets == ((0, 1, 2, 3, 4, 5),)
        assert verify_p_frequent(sel, 1 / 6).ok

    def test_adversarial_first_matching_and_pfrequency(self):
        family = list(_matchings(8, 1))
        assert family[0] == [(0, 1), (2, 3), (4, 5), (6, 7)]
        spec = SelectionSpec(kind="adversarial_matching", n=8, p=0.5)
        sel = generate_selection(spec, 6)
        assert verify_p_frequent(sel, 0.5).ok
        # the starved matching's pairs co-appear only in the full sets
        report = verify_p_frequent(sel, 1.0)  # the counts do not depend on p
        n_full = sum(1 for s in sel.sets if len(s) == 8)
        for a, b in family[0]:
            assert report.counts[a, b] == n_full

    def test_matching_family_is_edge_disjoint_and_covers(self):
        n = 10
        family = list(_matchings(n, 1))
        pairs = [tuple(sorted(p)) for matching in family for p in matching]
        assert len(pairs) == len(set(pairs)) == n * n // 4
        for matching in family:
            flat = [x for p in matching for x in p]
            assert sorted(flat) == list(range(n))

    def test_matching_family_odd_n_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            _matchings(7, 1)

    def test_bernoulli_sets_have_at_least_two_members(self):
        spec = SelectionSpec(kind="bernoulli_random", n=10, p=0.04)
        sel = generate_selection(spec, 200, Stream.from_seed(13))
        assert len(sel) == 200
        assert min(len(s) for s in sel.sets) >= 2

    def test_bernoulli_pair_frequency_statistics(self):
        p = 0.25
        spec = SelectionSpec(kind="bernoulli_random", n=8, p=p)
        sel = generate_selection(spec, 4000, Stream.from_seed(14))
        report = verify_p_frequent(sel, 1.0)  # the counts do not depend on p
        # conditioning on >= 2 members only raises pair-inclusion probability
        fractions = report.counts[np.triu_indices(8, 1)] / 4000
        assert fractions.min() > p - 3 * math.sqrt(p * (1 - p) / 4000)

    def test_n_over_the_file_limit_is_refused(self):
        with pytest.raises(InfeasibleSpecError, match="n=8193 is over the limit of 8192 alternatives"):
            SelectionSpec(kind="pairwise", n=8193)
        assert generate_selection(SelectionSpec(kind="pairwise", n=8192), 1).sets == ((0, 1),)

    def test_bernoulli_requires_q_squared_at_least_p(self):
        with pytest.raises(InfeasibleSpecError, match="q\\^2 >= p"):
            SelectionSpec(kind="bernoulli_random", n=6, p=0.5, q=0.5)

    def test_bernoulli_requires_stream(self):
        spec = SelectionSpec(kind="bernoulli_random", n=6, p=0.25)
        with pytest.raises(ValueError, match="stream"):
            generate_selection(spec, 3)

    def test_bernoulli_refuses_unreachable_sets_before_drawing(self):
        # P(size >= 2) is about 2e-14 here, so the rejection loop would never end
        spec = SelectionSpec(kind="bernoulli_random", n=20, p=1e-16, q=1e-8)
        stream = Stream.from_seed(15)
        with pytest.raises(InfeasibleSpecError, match="uniforms"):
            generate_selection(spec, 1, stream)
        assert u64(stream) == u64(Stream.from_seed(15))

    def test_unknown_kind_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            SelectionSpec(kind="nope", n=4)

    def test_zero_length_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            generate_selection(SelectionSpec(kind="complete", n=4), 0)


class TestVerifyPFrequent:
    def test_complete_sequence_is_one_frequent(self):
        sel = generate_selection(SelectionSpec(kind="complete", n=5), 4)
        assert verify_p_frequent(sel, 1.0).ok

    def test_pairwise_cycle_boundary(self):
        n = 5
        r = n * (n - 1) // 2
        sel = generate_selection(SelectionSpec(kind="pairwise", n=n), r)
        assert verify_p_frequent(sel, 1 / r).ok
        assert not verify_p_frequent(sel, 1.5 / r).ok

    def test_counts_matrix_shape_and_symmetry(self):
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=6, p=0.5), 8)
        report = verify_p_frequent(sel, 0.5)
        assert report.counts.shape == (6, 6)
        assert (report.counts == report.counts.T).all()
        assert (np.diag(report.counts) == 0).all()

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            verify_p_frequent(SelectionSequence([], n=4), 0.5)

    @pytest.mark.parametrize("p", [0.0, -1.0, 1.5, float("nan"), float("inf")])
    def test_p_outside_the_unit_interval_is_refused(self, p):
        sel = generate_selection(SelectionSpec(kind="complete", n=4), 3)
        with pytest.raises(ValueError, match="must lie in \\(0, 1\\]"):
            verify_p_frequent(sel, p)

    def test_matches_pair_scan(self, monkeypatch):
        stream = Stream.from_seed(720)
        selections = [
            generate_selection(SelectionSpec(kind="bernoulli_random", n=n, p=0.3), r, stream.child(n, r))
            for n in (3, 5, 8) for r in (1, 4, 11)
        ]
        selections.append(generate_selection(SelectionSpec(kind="mixed_pfrequent", n=6, p=0.5), 9))
        # alternatives 7..9 are never selected, so every worst pair involves them
        selections.append(SelectionSequence(selections[-1].sets, 10))
        for _ in row_kernel_paths(monkeypatch, split=True):
            for sel in selections:
                report = verify_p_frequent(sel, 0.3)
                expected = pair_scan_coappearance(sel)
                assert (report.counts == expected).all()
                n = sel.n
                pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
                least = min(expected[i, j] for i, j in pairs)
                assert report.worst_pairs() == [(i, j) for i, j in pairs if expected[i, j] == least]
                assert report.min_pair_fraction == least / len(sel)


    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 70), st.integers(1, 30), st.integers(0, 2**32))
    def test_blocks_add_the_transpose_and_find_the_lowest_pair(self, n, r, seed):
        # square blocks of max(2, n // 4) items, the last one cut short where they do not divide n
        selection = generate_selection(SelectionSpec(kind="bernoulli_random", n=n, p=0.3), r, Stream.from_seed(seed))
        report, expected = verify_p_frequent(selection, 0.3), pair_scan_coappearance(selection)
        assert np.array_equal(report.counts, expected)
        assert report.min_pair_fraction == expected[np.triu_indices(n, 1)].min() / r

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_the_audit_peaks_under_one_and_a_quarter_tables(self, n):
        # counts += counts.T made numpy copy the transpose first, as it overlaps its output: two tables at the peak
        selection, r = generate_selection(SelectionSpec(kind="pairwise", n=n), 2000), 2000
        verify_p_frequent(generate_selection(SelectionSpec(kind="pairwise", n=4), 3), 0.5)  # first-call objects
        tracemalloc.start()
        try:
            report = verify_p_frequent(selection, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * n * n * 8, peak
        expected = core._pair_counts(n, selection.offsets, selection.items)[0]
        expected = expected + expected.T
        assert np.array_equal(report.counts, expected) and report.counts.dtype == np.int64
        assert report.min_pair_fraction == expected[np.triu_indices(n, 1)].min() / r == 0.0 and not report.ok

    def test_pair_only_audit_memory_is_linear_in_the_pairs(self):
        # a dense compare of 186-row blocks of n x n booleans takes 16 MB here
        n, r = 300, 20000
        selection = generate_selection(SelectionSpec(kind="pairwise", n=n), r)
        tracemalloc.start()
        try:
            report = verify_p_frequent(selection, 0.001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts.sum() == 2 * r and not report.ok
        assert peak < 4 << 20


@pytest.mark.parametrize("kind", SelectionSpec._KINDS + ("explicit",))
def test_selection_items_are_python_ints(kind):
    n = 6
    if kind == "explicit":  # given sets, wrapped by the constructor
        selection = SelectionSequence(((0, 1), (2, 5, 3)), n)
    else:
        selection = generate_selection(SelectionSpec(kind=kind, n=n, p=0.5), 9, Stream.from_seed(1))
    profile = sample_profile(MallowsParams(Ranking.identity(n), 1.0), selection, Stream.from_seed(2))
    for rows in (selection.sets, profile.selection.sets, [rk.items for rk in profile.rankings]):
        assert all(type(x) is int for row in rows for x in row)
        assert json.loads(json.dumps(rows)) == [list(row) for row in rows]


class TestBatchedDraws:
    """The array forms used by the experiment kernel against the public one-stream functions."""

    @pytest.mark.parametrize(
        ("n", "p", "r"),
        [(20, 1 / 6, 40), (6, 0.5, 25), (3, 0.04, 12), (2, 0.25, 9)],  # the last two are mostly rejected draws
    )
    def test_bernoulli_members_equal_generate_selection(self, n, p, r):
        spec = SelectionSpec(kind="bernoulli_random", n=n, p=p)
        root = Stream.from_seed(31)
        trials = range(5, 12)
        keys = child_key_grid(child_key_grid(np.array([root.key], dtype=np.uint64), list(trials))[0], [1])[:, 0]
        masks, _ = sampling._bernoulli_members(keys, n, r, sampling._bernoulli_threshold(spec, r))
        for t, mask in zip(trials, masks):
            stream, reference = root.child(t).child(1), root.child(t).child(1)
            sets = generate_selection(spec, r, stream).sets
            assert list(sets) == looped_bernoulli_sets(spec, r, reference)
            assert [tuple(np.flatnonzero(row).tolist()) for row in mask] == list(sets)
            assert u64(stream) == u64(reference)  # both streams stop at the same counter

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(2, 40), p=st.floats(0.04, 1.0), r=st.integers(1, 120), seed=st.integers(0, 2**32),
           start=st.one_of(st.just(0), st.integers(1, 2**64 - 1)))
    # the rejection tail: at n = 3 and q = 0.2 about nine candidates in ten hold fewer than two members
    @example(n=3, p=0.04, r=60, seed=0, start=0)
    @example(n=3, p=0.04, r=60, seed=1, start=2**40 + 3)
    @example(n=2, p=1.0, r=5, seed=2, start=2**64 - 4)  # q = 1, every candidate kept; the counter wraps past 2^64
    def test_compiled_rows_equal_the_numpy_members(self, n, p, r, seed, start):
        # the C pass of generate_selection, and its numpy path, against _bernoulli_members: sets and counter
        spec = SelectionSpec(kind="bernoulli_random", n=n, p=p)
        key, threshold = Stream.from_seed(seed).key, sampling._bernoulli_threshold(spec, r)
        masks, used = sampling._bernoulli_members(np.array([key], dtype=np.uint64), n, r, threshold, start)
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                stream = Stream(key, start)
                selection = generate_selection(spec, r, stream)
                assert list(selection.sets) == [tuple(np.flatnonzero(row).tolist()) for row in masks[0]]
                assert stream._ctr == int(used[0])

    def test_bernoulli_members_hold_17_bytes_per_uniform(self):
        # the first round's draws (8 bytes each), one shifted copy inside the mix (8) and the result masks (1)
        n, r, spec = 20, 256, SelectionSpec(kind="bernoulli_random", n=20, p=1 / 6)
        keys, threshold = Stream.from_seed(4).child_keys(8), sampling._bernoulli_threshold(spec, r)
        expected = sampling._bernoulli_members(keys, n, r, threshold)
        tracemalloc.start()
        try:
            masks, used = sampling._bernoulli_members(keys, n, r, threshold)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(masks, expected[0]) and np.array_equal(used, expected[1])
        assert peak / (len(keys) * r * n) < 17.5

    def test_generate_selection_continues_a_used_stream(self):
        spec = SelectionSpec(kind="bernoulli_random", n=5, p=0.2)
        stream, reference = Stream.from_seed(32), Stream.from_seed(32)
        u64_array(stream, 7), u64_array(reference, 7)
        assert list(generate_selection(spec, 15, stream).sets) == looped_bernoulli_sets(spec, 15, reference)
        assert u64(stream) == u64(reference)


@st.composite
def selection_specs(draw):
    """A spec of every generated kind: n 2-30 (even for adversarial_matching), r 1-200, p in (0, 1]."""
    kind = draw(st.sampled_from(SelectionSpec._KINDS))
    n = draw(st.integers(1, 15)) * 2 if kind == "adversarial_matching" else draw(st.integers(2, 30))
    r = draw(st.integers(1, 200))
    if kind == "bernoulli_random":  # p >= 0.05 keeps the looped reference's rejection loop short
        p = draw(st.floats(0.05, 1.0))
    else:
        p = draw(st.floats(0.0, 1.0, exclude_min=True))
    return SelectionSpec(kind=kind, n=n, p=p), r


class TestSelectionArrays:
    """``generate_selection`` builds CSR arrays; the tuple-building form in ``helpers`` is the reference."""

    @settings(max_examples=150, deadline=None)
    @given(case=selection_specs(), seed=st.integers(0, 2**32))
    # at n=8 the second matching pairs 6 with (6 + 3) mod 8 = 1: a wrapped pair, stored as (1, 6)
    @example(case=(SelectionSpec(kind="adversarial_matching", n=8, p=0.25), 8), seed=0)
    def test_arrays_match_the_tuple_reference(self, case, seed):
        spec, r = case
        stream, reference = Stream.from_seed(seed), Stream.from_seed(seed)
        sel = generate_selection(spec, r, stream)
        expected = tuple_selection_sets(spec, r, reference)
        assert sel.sets == tuple(expected)
        assert u64(stream) == u64(reference)  # both streams stop at the same counter
        offsets, items = _csr_arrays(expected)
        assert np.array_equal(sel.offsets, offsets) and np.array_equal(sel.items, items)
        assert all(type(x) is int for s in sel.sets for x in s)
        assert not (sel.offsets.flags.writeable or sel.items.flags.writeable)
        # no view of a larger array, which would hold its bytes and cost each C kernel call a copy
        for array in (sel.offsets, sel.items):
            assert array.flags.c_contiguous and array.flags.owndata

    @pytest.mark.parametrize("kind", ["complete", "pairwise", "mixed_pfrequent", "bernoulli_random", "adversarial_matching"])
    def test_constructor_and_array_built_selections_agree(self, kind):
        spec = SelectionSpec(kind=kind, n=6, p=0.25)
        from_arrays = generate_selection(spec, 30, Stream.from_seed(3))
        sets = generate_selection(spec, 30, Stream.from_seed(3)).sets
        built = SelectionSequence([reversed(s) for s in sets], 6)  # the constructor sorts each set
        assert built == from_arrays and from_arrays == built
        assert len(built) == len(from_arrays) == 30
        assert list(built) == list(from_arrays) == list(sets)
        assert np.array_equal(built.offsets, from_arrays.offsets) and np.array_equal(built.items, from_arrays.items)
        assert from_arrays != SelectionSequence(from_arrays.sets, 7)
        assert from_arrays != SelectionSequence(from_arrays.sets[:-1], 6)
        assert from_arrays != from_arrays.sets


@st.composite
def selections(draw):
    """A selection of every generated kind, an empty one, or free sets of any size from 1 (unchecked arrays)."""
    kind = draw(st.sampled_from(SelectionSpec._KINDS + ("free",)))
    n = draw(st.integers(1, 4)) * 2 if kind == "adversarial_matching" else draw(st.integers(2, 9))
    if kind == "free":
        sets = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), max_size=30))
        return SelectionSequence._from_arrays(n, *_csr_arrays([sorted(s) for s in sets]))
    r = draw(st.integers(0, 40))
    if r == 0:
        return SelectionSequence([], n)
    spec = SelectionSpec(kind=kind, n=n, p=draw(st.sampled_from([1.0, 0.5, 0.25, 1 / 6])))
    return generate_selection(spec, r, Stream.from_seed(draw(st.integers(0, 99))))


@st.composite
def ragged_rows(draw):
    """CSR rows of restricted centers over n <= 40 items: sizes unsorted, one row, one large row among pairs, or one size."""
    n = draw(st.integers(2, 40))
    shape = draw(st.sampled_from(["unsorted", "single", "skewed", "uniform"]))
    if shape == "unsorted":
        sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=60))
    elif shape == "single":
        sizes = [draw(st.integers(1, n))]
    elif shape == "skewed":
        sizes = [2] * draw(st.integers(1, 200))
        sizes.insert(draw(st.integers(0, len(sizes))), n)
    else:
        sizes = [draw(st.integers(1, n))] * draw(st.integers(1, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    restricted = np.concatenate([rng.permutation(n)[:m] for m in sizes])
    return np.concatenate(([0], np.cumsum(sizes))), restricted


class TestOneSampler:
    """``sample_profile`` and ``sample_mallows`` against the list-insertion reference of ``helpers``, on each path."""

    @settings(max_examples=120, deadline=None)
    @given(
        selection=selections(),
        data=st.data(),
        beta=st.floats(0.05, 6.0),
        seed=st.integers(0, 2**32),
    )
    def test_sample_profile_equals_reference(self, selection, data, beta, seed):
        params = MallowsParams(Ranking(data.draw(st.permutations(range(selection.n)))), beta)
        expected = looped_sample_profile(params, selection, Stream.from_seed(seed))
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                profile = sample_profile(params, selection, Stream.from_seed(seed))
                assert [rk.items for rk in profile.rankings] == expected

    @settings(max_examples=120, deadline=None)
    @given(
        items=st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True),
        beta=st.floats(0.05, 6.0),
        seed=st.integers(0, 2**32),
        used=st.integers(0, 40),
    )
    def test_sample_mallows_on_a_used_stream_equals_reference(self, items, beta, seed, used):
        reference = Stream.from_seed(seed)
        u64_array(reference, used)
        expected = insertion_sample(tuple(items), beta, reference)
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                stream = Stream.from_seed(seed)
                u64_array(stream, used)
                assert sample_mallows(Ranking(items), beta, stream).items == expected
                assert stream._ctr == reference._ctr

    @settings(max_examples=200, deadline=None)
    @given(
        rows=ragged_rows(),
        beta=st.floats(0.05, 6.0),
        seed=st.integers(0, 2**32),
        start=st.integers(0, 10**6),
        cells=st.sampled_from([None, 1, 7, 60]),  # chunks of at most 1, 7 or 60 padded cells, or the default budget
    )
    # both ends of the insertion search on rows of 200-300 items: at beta = 0.05 the draws spread over all k
    # thresholds, so a search's bracket reaches k; at beta = 40 every draw falls below the first threshold; at
    # beta = 0.01 the weights are nearly flat (cum[k] > k / 2) up to k = 161, past which the search turns from
    # bisecting after its first probe to galloping
    @example(rows=(np.array([0, 200, 500, 750]), np.r_[np.arange(200), np.arange(300)[::-1], np.arange(250)]),
             beta=0.05, seed=1, start=0, cells=None)
    @example(rows=(np.array([0, 300, 550]), np.r_[np.arange(300), np.arange(250)[::-1]]),
             beta=0.01, seed=3, start=0, cells=7)
    @example(rows=(np.array([0, 300, 520]), np.r_[np.arange(300)[::-1], np.arange(220)]),
             beta=40.0, seed=2, start=5, cells=60)
    def test_one_pass_equals_the_size_grouped_reference(self, rows, beta, seed, start, cells):
        offsets, restricted = rows
        keys = Stream.from_seed(seed).child_keys(len(offsets) - 1)
        expected = grouped_sample_rows(keys, offsets, restricted, beta, start)
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                if cells is not None:  # numpy chunks of at most this many 16-byte cells: the C form runs row by row
                    patch.setattr(core, "_BLOCK_BYTES", 16 * cells)
                assert np.array_equal(sampling._sample_rows(keys, offsets, restricted, beta, start), expected)

    def test_pair_only_profile_memory_is_linear_in_the_set_sizes(self, monkeypatch):
        # a dense (r, n) array of any dtype would take at least 4 MB here
        n, r = 2000, 2000
        selection = generate_selection(SelectionSpec(kind="pairwise", n=n), r)
        params = MallowsParams(Ranking(Stream.from_seed(3).permutation(n)), 1.0)
        for _ in row_kernel_paths(monkeypatch):
            tracemalloc.start()
            try:
                sample_profile(params, selection, Stream.from_seed(4))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 << 20

    def test_skewed_profile_memory_is_linear_in_the_set_sizes(self, monkeypatch):
        # 4 full sets and 3,996 pairs: padding every row to the largest set takes 64 MB of int32 positions here
        n, r = 4000, 4000
        selection = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=n, p=0.001), r)
        params = MallowsParams(Ranking(Stream.from_seed(3).permutation(n)), 1.0)
        for _ in row_kernel_paths(monkeypatch):
            tracemalloc.start()
            try:
                profile = sample_profile(params, selection, Stream.from_seed(4))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert np.diff(profile.offsets).tolist() == [n] * 4 + [2] * (r - 4)
            assert peak < 8 << 20

    def test_numpy_pass_holds_padded_rows_not_item_arrays(self, monkeypatch):
        # a files_io-sized profile: flat per-item index arrays and draws, about 70 bytes an item, take it past 4 MiB
        n, r = 100, 2000
        selection = generate_selection(SelectionSpec(kind="bernoulli_random", n=n, p=0.25), r, Stream.from_seed(1))
        params = MallowsParams(Ranking(Stream.from_seed(3).permutation(n)), 1.0)
        monkeypatch.setattr(core, "_row_kernels", lambda: None)
        tracemalloc.start()
        try:
            sample_profile(params, selection, Stream.from_seed(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_one_numpy_chunk_fills_the_working_budget_and_stays_under_it(self, monkeypatch):
        # rows of 100 items, as many as one chunk holds at 16 bytes a padded cell and 48 a row
        width = 100
        rows = core._BLOCK_BYTES // (16 * width + 48)
        offsets, restricted = np.arange(rows + 1) * width, np.tile(np.arange(width), rows)
        keys = Stream.from_seed(5).child_keys(rows)
        monkeypatch.setattr(core, "_row_kernels", lambda: None)
        tracemalloc.start()
        try:
            sampling._sample_rows(keys, offsets, restricted, 1.0)
            held = tracemalloc.get_traced_memory()[1] - restricted.nbytes  # beyond the output, as large as the input
        finally:
            tracemalloc.stop()
        assert 0.9 * core._BLOCK_BYTES < held < core._BLOCK_BYTES

    @pytest.mark.parametrize("kind", ["pairwise", "mixed_pfrequent", "adversarial_matching"])
    def test_pair_lists_are_bounded_by_r(self, kind):
        # all C(1500, 2) pairs would take over 100 MB
        spec = SelectionSpec(kind=kind, n=1500, p=0.5)
        tracemalloc.start()
        try:
            selection = generate_selection(spec, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(selection) == 3
        assert peak < 1 << 20
