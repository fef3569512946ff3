import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import regression_pins
from helpers import (
    appearance_beaten_by,
    argmax_set,
    below,
    brute_force_mle,
    exact_two_item_success,
    looped_order_by_scores,
    random_incomplete_profile,
    recount_pairwise,
    row_kernel_paths,
    run_trial,
    sequential_log_likelihood,
    total_distance,
    u64,
    u64_array,
    validate_counts,
    widened,
)
from mallows_select import core, estimators
from mallows_select.core import (
    MallowsParams,
    Ranking,
    SampleProfile,
    SelectionSequence,
    kendall_tau,
    log_partition_function,
    restrict,
)
from mallows_select.estimators import (
    PairwiseCounts,
    _order_by_scores,
    accumulate_counts,
    log_likelihood,
    positional_estimator,
    positional_estimator_from_counts,
    score,
    score_permutation_array,
    top_k,
)
from mallows_select.rng import Stream
from mallows_select.sampling import SelectionSpec, generate_selection, sample_profile


def complete_profile(rank_tuples, n):
    sel = SelectionSequence([tuple(range(n))] * len(rank_tuples), n)
    return SampleProfile([Ranking(t) for t in rank_tuples], sel)


class TestAccumulateCounts:
    def test_empty_profile(self):
        counts = accumulate_counts(SampleProfile([], SelectionSequence([], n=4)))
        assert counts.appear.sum() == 0 and counts.wins.sum() == 0

    def test_two_opposite_pair_samples(self):
        sel = SelectionSequence([(0, 1), (0, 1)], n=2)
        profile = SampleProfile([Ranking([0, 1]), Ranking([1, 0])], sel)
        counts = accumulate_counts(profile)
        assert counts.appear[0, 1] == 2
        assert counts.wins[0, 1] == 1 and counts.wins[1, 0] == 1

    def test_matches_independent_recount(self, monkeypatch):
        stream = Stream.from_seed(100)
        profiles = [random_incomplete_profile(n=4 + below(stream, 4), r=6, stream=stream) for _ in range(20)]
        profiles.append(widened(random_incomplete_profile(n=5, r=9, stream=stream), 3))
        for _ in row_kernel_paths(monkeypatch, split=True):
            for profile in profiles:
                counts = accumulate_counts(profile)
                appear, wins = recount_pairwise(profile)
                assert (counts.appear == appear).all()
                assert (counts.wins == wins).all()
                validate_counts(counts)

    def test_total_comparisons_invariant(self):
        stream = Stream.from_seed(101)
        profile = random_incomplete_profile(n=7, r=12, stream=stream)
        counts = accumulate_counts(profile)
        expected = sum(len(s) * (len(s) - 1) // 2 for s in profile.selection)
        assert counts.wins.sum() == expected
        assert counts.appear.sum() == 2 * expected


class TestPositionalEstimator:
    def test_unanimous_profile(self):
        center = (3, 0, 2, 1)
        profile = complete_profile([center] * 5, 4)
        result = positional_estimator(profile, Stream.from_seed(0))
        assert result.ranking.items == center
        assert result.raw_scores == (1, 3, 2, 0)  # raw score = position in center
        assert result.tie_groups == ()

    def test_hand_counted_majorities(self):
        profile = complete_profile([(0, 1, 2), (0, 1, 2), (1, 0, 2)], 3)
        result = positional_estimator(profile, Stream.from_seed(0))
        assert result.raw_scores == (0, 1, 2)
        assert result.ranking.items == (0, 1, 2)

    def test_single_decisive_pair(self):
        sel = SelectionSequence([(0, 1)], n=2)
        profile = SampleProfile([Ranking([1, 0])], sel)
        result = positional_estimator(profile, Stream.from_seed(0))
        assert result.raw_scores == (1, 0)
        assert result.ranking.items == (1, 0)

    def test_half_split_increments_both(self):
        sel = SelectionSequence([(0, 1), (0, 1)], n=2)
        profile = SampleProfile([Ranking([0, 1]), Ranking([1, 0])], sel)
        result = positional_estimator(profile, Stream.from_seed(5))
        assert result.raw_scores == (1, 1)
        assert result.tie_groups == ((0, 1),)

    def test_never_observed_alternative_sinks_and_is_flagged(self):
        sel = SelectionSequence([(0, 1)] * 3, n=3)
        profile = SampleProfile([Ranking([0, 1])] * 3, sel)
        result = positional_estimator(profile, Stream.from_seed(1))
        assert result.never_observed == (2,)
        assert result.raw_scores[2] == 2  # loses every ignorance comparison
        # pairs (0,2) and (1,2) never co-appear; they are listed in the order of triu_indices
        assert result.zero_pairs == ((0, 2), (1, 2))

    def test_diagnostics_are_built_on_first_read_as_from_the_appearances(self):
        # ties, an item never seen and pairs never together: each diagnostic equals its reading of wins + wins.T, and
        # none is built before it is read, as a pair-only profile at n = 4096 holds about 8.4 M unseen pairs
        sel = SelectionSequence([(0, 1), (0, 1), (2, 3), (1, 3)], n=5)
        profile = SampleProfile([Ranking([0, 1]), Ranking([1, 0]), Ranking([3, 2]), Ranking([1, 3])], sel)
        result = positional_estimator(profile, Stream.from_seed(2))
        assert not {"tie_groups", "zero_pairs", "never_observed"} & set(vars(result))
        appear, raw = accumulate_counts(profile).appear, np.array(result.raw_scores)
        unseen = [(i, j) for i in range(5) for j in range(i + 1, 5) if appear[i, j] == 0]
        groups = [tuple(np.flatnonzero(raw == s).tolist()) for s in range(5) if np.count_nonzero(raw == s) > 1]
        assert result.zero_pairs == tuple(unseen) and result.never_observed == (4,)
        assert result.tie_groups == tuple(groups) and len(groups) == 2
        assert result.diagnostics() == {
            "tie_groups": [list(g) for g in groups], "zero_appearance_pairs": [list(pair) for pair in unseen],
            "never_observed": [4],
        }

    def test_tie_break_uses_stream(self):
        sel = SelectionSequence([(0, 1), (0, 1)], n=2)
        profile = SampleProfile([Ranking([0, 1]), Ranking([1, 0])], sel)
        outcomes = {
            positional_estimator(profile, Stream.from_seed(s)).ranking.items for s in range(30)
        }
        assert outcomes == {(0, 1), (1, 0)}

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            positional_estimator(SampleProfile([], SelectionSequence([], n=3)), Stream.from_seed(0))

    def test_relabeling_equivariance_on_tie_free_instance(self):
        stream = Stream.from_seed(55)
        n = 6
        center = Ranking(range(n))
        params = MallowsParams(center, 3.0)
        sel = generate_selection(SelectionSpec(kind="complete", n=n), 21)
        profile = sample_profile(params, sel, stream)
        base = positional_estimator(profile, Stream.from_seed(9))
        assert not base.tie_groups  # instance chosen tie-free
        rho = Stream.from_seed(56).permutation(n)
        relabeled = SampleProfile(
            [Ranking(tuple(rho[x] for x in rk.items)) for rk in profile.rankings],
            SelectionSequence([tuple(sorted(rho[x] for x in s)) for s in sel.sets], n),
        )
        mapped = positional_estimator(relabeled, Stream.from_seed(9))
        assert mapped.ranking.items == tuple(rho[x] for x in base.ranking.items)

    def test_position_deviation_regression_pin(self):
        pin = regression_pins.POSITION_DEVIATION
        root = Stream.from_seed(pin["seed"])
        bad = 0
        for t in range(pin["trials"]):
            est, pi0 = run_trial(
                pin["n"], pin["beta"], pin["p"], pin["r"], "mixed_pfrequent", root.child(t)
            )
            pos_est, pos0 = est.positions, pi0.positions
            dev = max(abs(pos_est[i] - pos0[i]) for i in range(pin["n"]))
            bad += dev > pin["deviation_bound"]
        assert bad <= pin["max_fail_fraction"] * pin["trials"]


@st.composite
def stacked_wins(draw):
    """A (T, n, n) int64 count table with any diagonal: counts to 1 or 3 make ties and zero pairs common."""
    t, n, top = draw(st.integers(1, 5)), draw(st.integers(1, 12)), draw(st.sampled_from([0, 1, 3, 2**61]))
    return draw(arrays(np.int64, (t, n, n), elements=st.integers(0, top)))


class TestBeatenBy:
    """``estimators._beaten_by`` on ``wins`` alone against the appearance form of ``helpers``."""

    @settings(max_examples=200, deadline=None)
    @given(wins=stacked_wins())
    @example(wins=np.array([[[5, 2, 0], [2, 7, 0], [0, 0, 1]], [[0, 3, 1], [1, 0, 0], [1, 2, 0]]], dtype=np.int64))
    def test_equals_the_appearance_form(self, wins):
        expected = appearance_beaten_by(wins)
        assert np.array_equal(estimators._beaten_by(wins), expected)
        assert np.array_equal(estimators._beaten_by(wins[-1]), expected[-1])  # one (n, n) table


@st.composite
def score_rows(draw):
    """A (T, n) score array whose rows are all equal, all distinct, or from a small alphabet."""
    t, n = draw(st.integers(1, 12)), draw(st.integers(1, 30))

    def row():
        shape = draw(st.sampled_from(("alphabet", "alphabet", "equal", "distinct")))
        if shape == "equal":
            return [draw(st.integers(0, 5))] * n
        if shape == "distinct":
            return draw(st.permutations(range(n)))
        return draw(st.lists(st.integers(0, draw(st.integers(1, 4))), min_size=n, max_size=n))

    return np.array([row() for _ in range(t)], dtype=np.int64).reshape(t, n)


def _drawn(key: int, start: int) -> Stream:
    """``Stream(key)`` after ``start`` draws."""
    stream = Stream(key)
    for _ in range(start):
        u64(stream)
    return stream


class TestOneTieBreak:
    """``estimators._order_by_scores`` against ``helpers.looped_order_by_scores``, at zero tolerance."""

    @settings(max_examples=150, deadline=None)
    @given(raw=score_rows(), seed=st.integers(0, 2**32), start=st.integers(0, 50))
    def test_array_rows_equal_looped(self, raw, seed, start):
        keys = Stream.from_seed(seed).child_keys(len(raw))
        order = _order_by_scores(raw, keys, start)
        assert order.shape == raw.shape and order.dtype == np.intp
        for t, row in enumerate(raw.tolist()):
            assert order[t].tolist() == looped_order_by_scores(row, _drawn(int(keys[t]), start))[0]

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 30), most=st.integers(0, 2), seed=st.integers(0, 2**32), start=st.integers(0, 50))
    def test_estimator_order_groups_and_counter_equal_looped(self, n, most, seed, start):
        wins = np.random.default_rng(seed).integers(0, most + 1, size=(n, n))
        np.fill_diagonal(wins, 0)
        counts = PairwiseCounts(wins)
        stream, looped = _drawn(seed, start), _drawn(seed, start)
        result = positional_estimator_from_counts(counts, stream)
        order, groups = looped_order_by_scores(list(result.raw_scores), looped)
        assert result.ranking.items == tuple(order)
        assert result.tie_groups == tuple(groups)
        assert stream._ctr == looped._ctr

    @pytest.mark.parametrize("t, n", [(1, 20), (1, 1), (7, 9)])
    def test_tie_free_rows_make_no_draw(self, monkeypatch, t, n):
        def no_draws(*args, **kwargs):
            raise AssertionError("a tie-free row drew")

        raw = np.array([np.random.default_rng(t * n).permutation(n) for _ in range(t)], dtype=np.int64)
        monkeypatch.setattr(estimators, "draw_matrix", no_draws)
        order = _order_by_scores(raw, Stream.from_seed(1).child_keys(t), 3)
        assert (order == np.argsort(raw, axis=1)).all()
        wins = np.triu(np.ones((n, n), dtype=np.int64), 1)  # 0 beats everyone, 1 everyone after it, ...
        stream = Stream.from_seed(2)
        result = positional_estimator_from_counts(PairwiseCounts(wins), stream)
        assert result.ranking.items == tuple(range(n)) and result.tie_groups == () and stream._ctr == 0


@st.composite
def mixed_profiles(draw):
    """Profiles whose sets mix pairs, mid-size sets and complete sets, some alternatives never observed."""
    n = draw(st.integers(2, 30))
    sizes = st.one_of(st.just(2), st.integers(2, n), st.just(n))
    sets = [tuple(sorted(draw(st.permutations(range(n)))[: draw(sizes)])) for _ in range(draw(st.integers(0, 25)))]
    center = Ranking(draw(st.permutations(range(n))))
    beta = draw(st.sampled_from([0.2, 1.0, 2.5]))
    profile = sample_profile(MallowsParams(center, beta), SelectionSequence(sets, n), Stream.from_seed(draw(st.integers(0, 999))))
    extra = draw(st.integers(0, 3))
    return (widened(profile, extra) if extra else profile), beta


class TestSizeGroupedCounting:
    """The pair counts and discordances against the loops of ``helpers``, on each kernel path and block size."""

    @settings(max_examples=100, deadline=None)
    @given(case=mixed_profiles(), data=st.data())
    def test_counts_and_likelihood_equal_the_loops(self, case, data):
        profile, beta = case
        pi = Ranking(data.draw(st.permutations(range(profile.n))))
        appear, wins = recount_pairwise(profile)
        expected = sequential_log_likelihood(pi, profile, beta)
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch, split=True):
                counts = accumulate_counts(profile)
                assert (counts.appear == appear).all() and (counts.wins == wins).all()
                assert log_likelihood(pi, profile, beta) == expected

    def test_pair_only_counting_memory_is_linear_in_the_pairs(self, monkeypatch):
        # one r x n x n boolean block would take 1.8 GB here, and even one row-block of n x n
        # booleans per 186 rows, the blocking of a dense compare, takes 16 MB
        n, r = 300, 20000
        selection = generate_selection(SelectionSpec(kind="pairwise", n=n), r)
        profile = sample_profile(MallowsParams(Ranking.identity(n), 1.0), selection, Stream.from_seed(5))
        for _ in row_kernel_paths(monkeypatch):
            tracemalloc.start()
            try:
                counts = accumulate_counts(profile)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert counts.appear.sum() == 2 * r
            assert peak < 4 << 20



class TestScore:
    def test_zero_counts(self):
        counts = accumulate_counts(SampleProfile([], SelectionSequence([], n=4)))
        for perm in itertools.permutations(range(4)):
            assert score(Ranking(perm), counts) == 0

    def test_single_pair(self):
        sel = SelectionSequence([(0, 1)] * 4, n=2)
        profile = SampleProfile(
            [Ranking([0, 1]), Ranking([0, 1]), Ranking([0, 1]), Ranking([1, 0])], sel
        )
        counts = accumulate_counts(profile)
        assert score(Ranking([0, 1]), counts) == 3
        assert score(Ranking([1, 0]), counts) == 1

    def test_score_plus_reverse_is_total_appearances(self):
        stream = Stream.from_seed(200)
        profile = random_incomplete_profile(n=6, r=10, stream=stream)
        counts = accumulate_counts(profile)
        half = counts.appear[np.triu_indices(6, 1)].sum()
        for _ in range(10):
            pi = Ranking(stream.permutation(6))
            rev = Ranking(tuple(reversed(pi.items)))
            assert score(pi, counts) + score(rev, counts) == half

    def test_vectorized_scores_match_scalar(self):
        stream = Stream.from_seed(201)
        profile = random_incomplete_profile(n=5, r=8, stream=stream)
        counts = accumulate_counts(profile)
        perms = np.array(list(itertools.permutations(range(5))), dtype=np.int64)
        vec = score_permutation_array(perms, counts)
        for row, s in zip(perms, vec):
            assert score(Ranking(row.tolist()), counts) == s


class TestLemmaOneEquivalence:
    def test_score_and_likelihood_argmax_sets_coincide(self):
        stream = Stream.from_seed(300)
        checked = 0
        for n in (3, 4, 5):
            perms = [Ranking(p) for p in itertools.permutations(range(n))]
            for _ in range(25):
                profile = random_incomplete_profile(n=n, r=1 + below(stream, 8), stream=stream)
                counts = accumulate_counts(profile)
                scores = [score(pi, counts) for pi in perms]
                dists = [total_distance(pi, profile) for pi in perms]
                keys = [pi.items for pi in perms]
                # likelihood is a strictly decreasing function of total distance
                assert argmax_set(scores, keys) == argmax_set([-d for d in dists], keys)
                checked += 1
        assert checked == 75

    def test_float_log_likelihood_orders_like_score(self):
        stream = Stream.from_seed(301)
        profile = random_incomplete_profile(n=5, r=6, stream=stream)
        counts = accumulate_counts(profile)
        beta = 0.8
        for _ in range(30):
            a = Ranking(stream.permutation(5))
            b = Ranking(stream.permutation(5))
            sa, sb = score(a, counts), score(b, counts)
            la, lb = log_likelihood(a, profile, beta), log_likelihood(b, profile, beta)
            if sa > sb:
                assert la > lb
            elif sa < sb:
                assert la < lb
            else:
                assert la == pytest.approx(lb, abs=1e-9)


class TestLogLikelihood:
    def test_maximum_at_zero_distances(self, monkeypatch):
        center = Ranking([2, 0, 1, 3])
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=4, p=0.5), 6)
        profile = SampleProfile([restrict(center, s) for s in sel.sets], sel)
        beta = 1.1
        expected = -sum(log_partition_function(len(s), beta) for s in sel.sets)
        for _ in row_kernel_paths(monkeypatch):
            assert log_likelihood(center, profile, beta) == pytest.approx(expected, rel=1e-12)

    def test_one_inverted_pair_costs_beta(self, monkeypatch):
        beta = 0.9
        sel = SelectionSequence([(0, 1)], n=2)
        profile = SampleProfile([Ranking([0, 1])], sel)
        for _ in row_kernel_paths(monkeypatch):
            delta = log_likelihood(Ranking([0, 1]), profile, beta) - log_likelihood(Ranking([1, 0]), profile, beta)
            assert delta == pytest.approx(beta, rel=1e-12)

    def test_rejects_nonpositive_beta(self, monkeypatch):
        profile = complete_profile([(0, 1)], 2)
        for _ in row_kernel_paths(monkeypatch):
            with pytest.raises(ValueError):
                log_likelihood(Ranking([0, 1]), profile, 0.0)

    def test_equals_sequential_sum_bit_for_bit(self, monkeypatch):
        stream = Stream.from_seed(102)
        cases = []
        for _ in range(30):
            n = 3 + below(stream, 8)
            profile = random_incomplete_profile(n=n, r=1 + below(stream, 40), stream=stream)
            cases.append((Ranking(stream.permutation(n)), profile, 0.1 + 3 * below(stream, 1000) / 1000))
        profile = widened(random_incomplete_profile(n=6, r=12, stream=stream), 4)
        cases.append((Ranking(stream.permutation(10)), profile, 1.3))
        cases.append((Ranking(stream.permutation(12)), profile, 0.4))  # pi also ranks items beyond n
        cases.append((Ranking(stream.permutation(6)), profile, 0.8))  # pi leaves out the four items no sample holds
        for _ in row_kernel_paths(monkeypatch, split=True):
            for pi, profile, beta in cases:
                assert log_likelihood(pi, profile, beta) == sequential_log_likelihood(pi, profile, beta)

    def test_sample_item_missing_from_pi_rejected(self, monkeypatch):
        profile = complete_profile([(0, 1, 2), (2, 1, 0)], 3)
        for _ in row_kernel_paths(monkeypatch):
            with pytest.raises(ValueError, match=r"\[2\]"):
                log_likelihood(Ranking([1, 0]), profile, 1.0)


def _complete_profile_of_size(n: int, r: int, stream: Stream) -> SampleProfile:
    rows = (u64_array(stream, r * n).reshape(r, n) >> np.uint64(1)).astype(np.int64).argsort(axis=1)
    selection = SelectionSequence._from_arrays(n, np.arange(r + 1) * n, np.tile(np.arange(n), r))
    return SampleProfile._from_arrays(selection, rows.ravel())


class TestKernelMemory:
    @pytest.mark.parametrize(
        "reduce",
        [accumulate_counts, lambda profile: log_likelihood(Ranking.identity(profile.n), profile, 1.0)],
        ids=["accumulate_counts", "log_likelihood"],
    )
    def test_peak_does_not_grow_with_profile_length(self, monkeypatch, reduce):
        stream = Stream.from_seed(103)
        profiles = [_complete_profile_of_size(200, r, stream.child(r)) for r in (1000, 4000)]
        # a files_io-sized profile: n=100, r=2000 Bernoulli sets of about 50 items
        selection = generate_selection(SelectionSpec(kind="bernoulli_random", n=100, p=0.25), 2000, stream.child(1))
        profiles.append(sample_profile(MallowsParams(Ranking.identity(100), 1.0), selection, stream.child(2)))
        for _ in row_kernel_paths(monkeypatch):
            peaks = []
            for profile in profiles:
                tracemalloc.start()
                try:
                    reduce(profile)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            # one r x n x n boolean block would be 40 MB at r=1000 and 160 MB at r=4000; the pair buffers hold the budget
            assert peaks[1] <= peaks[0] + (1 << 20)
            assert max(peaks) <= core._BLOCK_BYTES + (1 << 20), peaks

    def test_posest_holds_nothing_after_it_returns(self, monkeypatch):
        # its counts and pair buffers take 32 MB each at n=2000; a held triu_indices(2000, 1) took another 30.5 MiB
        n = 2000
        selection = SelectionSequence._from_arrays(n, np.array([0, n, 2 * n]), np.tile(np.arange(n), 2))
        profile = SampleProfile._from_arrays(selection, np.concatenate((np.arange(n), np.arange(n)[::-1])))
        for _ in row_kernel_paths(monkeypatch):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = positional_estimator(profile, Stream.from_seed(2))
                assert len(result.tie_groups) == 1 and result.zero_pairs == ()  # every pair split once each way
                del result
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert held < 1 << 20



class TestBruteForce:
    def test_unanimous(self):
        profile = complete_profile([(2, 1, 0)] * 3, 3)
        assert brute_force_mle(profile).items == (2, 1, 0)

    def test_restrict_to_singleton(self):
        profile = complete_profile([(0, 1, 2)], 3)
        pinned = Ranking([2, 1, 0])
        assert brute_force_mle(profile, restrict_to=[pinned]) == pinned

    def test_guard_on_large_n(self):
        sel = SelectionSequence([tuple(range(11))], n=11)
        profile = SampleProfile([Ranking(range(11))], sel)
        with pytest.raises(ValueError, match="n <= 10"):
            brute_force_mle(profile)

    def test_lexicographic_tie_break(self):
        # no information at all: every ranking scores 0, smallest wins
        sel = SelectionSequence([(0, 1)], n=3)
        profile = SampleProfile([Ranking([0, 1])], sel)
        result = brute_force_mle(profile)
        assert result.items == (0, 1, 2)

    def test_matches_exhaustive_maximum(self):
        stream = Stream.from_seed(400)
        for _ in range(10):
            profile = random_incomplete_profile(n=5, r=7, stream=stream)
            counts = accumulate_counts(profile)
            best = max(
                (score(Ranking(p), counts), p) for p in itertools.permutations(range(5))
            )
            got = brute_force_mle(profile)
            assert score(got, counts) == best[0]


class TestTopK:
    def test_full_prefix_is_identity(self):
        pi = Ranking([4, 2, 0, 3, 1])
        assert top_k(pi, 5) == pi

    def test_prefix(self):
        assert top_k(Ranking([4, 2, 0, 3, 1]), 2).items == (4, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            top_k(Ranking([0, 1]), 3)
        with pytest.raises(ValueError):
            top_k(Ranking([0, 1]), 0)


class TestMonotonicity:
    def test_mean_distance_drops_with_more_samples(self):
        pin = regression_pins.MONOTONICITY
        root = Stream.from_seed(pin["seed"])
        p = 0.5
        means = {}
        for r in (pin["r_small"], pin["r_large"]):
            dists = []
            for t in range(50):
                est, pi0 = run_trial(pin["n"], pin["beta"], p, r, "mixed_pfrequent", root.child(r, t))
                dists.append(kendall_tau(est, pi0))
            means[r] = np.mean(dists)
        assert means[pin["r_large"]] < means[pin["r_small"]] - 2.0


class TestClosedFormTwoItems:
    def test_formula_matches_direct_enumeration(self):
        for r in (1, 2, 3, 6, 15):
            beta = 2.0
            q = 1 / (1 + math.exp(-beta))
            direct = 0.0
            for w in range(r + 1):
                prob = math.comb(r, w) * q**w * (1 - q) ** (r - w)
                if 2 * w > r:
                    direct += prob
                elif 2 * w == r:
                    direct += prob / 2
            assert exact_two_item_success(r, beta) == pytest.approx(direct, rel=1e-12)
