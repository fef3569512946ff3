import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import regression_pins
from helpers import (
    below,
    brute_force_mle,
    enumerate_window,
    full_mask_dp,
    needs_cc,
    random_incomplete_profile,
    row_kernel_paths,
    windowed_oracle,
)
from mallows_select import core, mle
from mallows_select.core import MallowsParams, Ranking, pointwise_distance
from mallows_select.estimators import (
    PairwiseCounts,
    accumulate_counts,
    positional_estimator,
    score,
    score_permutation_array,
)
from mallows_select.mle import (
    _dp_window_max,
    BoundaryTouchError,
    BudgetExceededError,
    DpConfig,
    dp_maximize,
    mle_window,
    pointwise_window,
    recover_likelier_than_nature,
    recover_mle,
)
from mallows_select.rng import Stream
from mallows_select.sampling import SelectionSpec, generate_selection, sample_profile


@pytest.fixture
def numpy_dp(monkeypatch):
    """The numpy form of the DP, the one that runs where the C row kernels do not load."""
    monkeypatch.setattr(core, "_row_kernels", lambda: None)


def held_and_peak(call, *args) -> tuple[int, int]:
    """``(bytes held once call(*args) returns, peak bytes)`` under ``tracemalloc``.

    The small-object free lists are emptied before the call, so none is left to earlier tests, and again before
    reading what it holds, with the cyclic garbage numpy leaves, so neither counts as held.
    """
    gc.collect()
    tracemalloc.start()
    try:
        call(*args)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        return tracemalloc.get_traced_memory()[0], peak
    finally:
        tracemalloc.stop()


def random_counts(n: int, rng: np.random.Generator, hi: int = 6) -> PairwiseCounts:
    wins = rng.integers(0, hi, size=(n, n)).astype(np.int64)
    np.fill_diagonal(wins, 0)
    return PairwiseCounts(wins)


class TestDpMaximize:
    def test_radius_zero_returns_anchor(self):
        rng = np.random.default_rng(1)
        counts = random_counts(6, rng)
        anchor = Ranking([3, 1, 5, 0, 2, 4])
        for policy in ("error", "widen"):
            out = dp_maximize(counts, DpConfig(radius=0, anchor=anchor, boundary_policy=policy))
            assert out == anchor

    def test_full_radius_equals_brute_force(self):
        rng = np.random.default_rng(2)
        stream = Stream.from_seed(500)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            profile = random_incomplete_profile(n=n, r=6, stream=stream)
            counts = accumulate_counts(profile)
            anchor = Ranking.identity(n)  # identity anchor aligns both tie-break orders
            out = dp_maximize(counts, DpConfig(radius=n - 1, anchor=anchor, boundary_policy="widen"))
            assert out == brute_force_mle(profile)

    def test_windowed_oracle_exact_with_random_anchors(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            n = int(rng.integers(3, 8))
            radius = int(rng.integers(0, 3))
            counts = random_counts(n, rng)
            anchor = Ranking(tuple(rng.permutation(n).tolist()))
            items = np.fromiter(anchor.items, dtype=np.int64)
            wins_rel = counts.wins[np.ix_(items, items)]
            oracle_seq, oracle_score = windowed_oracle(wins_rel, radius)
            try:
                out = dp_maximize(counts, DpConfig(radius=radius, anchor=anchor))
            except BoundaryTouchError as exc:
                out = exc.result  # the exact windowed optimum travels on the error
                assert exc.score == oracle_score
            assert out.items == tuple(anchor.items[e] for e in oracle_seq)
            assert score(out, counts) == oracle_score

    def test_score_nondecreasing_in_radius_and_stabilizes(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = 7
            counts = random_counts(n, rng)
            anchor = Ranking.identity(n)
            prev = -1
            for radius in range(n):
                try:
                    out = dp_maximize(counts, DpConfig(radius=radius, anchor=anchor))
                    s = score(out, counts)
                except BoundaryTouchError as exc:
                    s = exc.score
                assert s >= prev
                assert s == score_permutation_array(enumerate_window(n, radius), counts).max()
                prev = s
            full = score(brute_force_mle_from_counts(counts), counts)
            assert prev == full


    def test_feasibility_within_final_radius(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = 6
            counts = random_counts(n, rng)
            anchor = Ranking(tuple(rng.permutation(n).tolist()))
            radius = int(rng.integers(0, n))
            try:
                out = dp_maximize(counts, DpConfig(radius=radius, anchor=anchor))
                assert pointwise_distance(out, anchor) <= radius
            except BoundaryTouchError:
                pass

    def test_boundary_touch_detected_and_widened(self):
        # the last element strongly prefers to lead, so every small window
        # pushes it to the window edge until widening reaches the full space
        n = 5
        wins = np.zeros((n, n), dtype=np.int64)
        wins[4, :4] = 10
        counts = PairwiseCounts(wins)
        anchor = Ranking.identity(n)
        with pytest.raises(BoundaryTouchError, match="truncating"):
            dp_maximize(counts, DpConfig(radius=1, anchor=anchor, boundary_policy="error"))
        widened = dp_maximize(counts, DpConfig(radius=1, anchor=anchor, boundary_policy="widen"))
        assert widened.items[0] == 4

    def test_budget_error_names_minimum(self):
        counts = random_counts(30, np.random.default_rng(6))
        anchor = Ranking.identity(30)
        with pytest.raises(BudgetExceededError, match=str(1 << 23)):
            dp_maximize(counts, DpConfig(radius=11, anchor=anchor))

    def test_anchor_must_cover_counts(self):
        counts = random_counts(4, np.random.default_rng(7))
        with pytest.raises(ValueError):
            dp_maximize(counts, DpConfig(radius=1, anchor=Ranking([0, 1, 2])))


class TestReachableStateDp:
    """The reachable-state DP against the reference that sweeps every window mask."""

    @pytest.mark.parametrize("radius", range(9))
    def test_matches_full_mask_reference(self, radius):
        rng = np.random.default_rng(40 + radius)
        # few distinct win values make ties, and so the tie rule, common
        cases = [rng.integers(0, (2, 3, 51)[n % 3], size=(n, n)).astype(np.int64) for n in range(1, 31)]
        for wins in cases:
            assert _dp_window_max(wins, radius) == full_mask_dp(wins, radius), len(wins)

    @pytest.mark.parametrize("n, radius", [(19, 9), (21, 10), (14, 13)])
    def test_wide_windows_match_full_mask_reference(self, n, radius, monkeypatch):
        # past the radii above, on both forms: C(18, 9) and C(20, 10) masks a position, and all of S_14
        wins = np.random.default_rng(49 + radius).integers(0, 3, size=(n, n)).astype(np.int64)
        expected = full_mask_dp(wins, radius)
        for _ in row_kernel_paths(monkeypatch):
            assert _dp_window_max(wins, radius) == expected

    @pytest.mark.parametrize("radius", range(9))
    def test_no_information_gives_identity(self, radius):
        for n in range(1, 31):
            wins = np.zeros((n, n), dtype=np.int64)
            assert _dp_window_max(wins, radius) == (list(range(n)), 0)

    @pytest.mark.usefixtures("numpy_dp")
    def test_peak_memory_within_reference_and_not_carried_over(self):
        wins = np.random.default_rng(48).integers(0, 51, size=(40, 40)).astype(np.int64)
        reference = held_and_peak(full_mask_dp, wins, 8)[1]
        held, peak = held_and_peak(_dp_window_max, wins, 8)
        assert peak <= reference
        assert held < 4 << 10  # a few small objects at most: no table outlives the call

    @pytest.mark.usefixtures("numpy_dp")
    def test_full_window_holds_one_shape_at_a_time(self):
        # each shape of S_16 is built for its step, the last shape's tables gone before the build
        n = 16
        wins = np.random.default_rng(51).integers(0, 5, size=(n, n)).astype(np.int64)
        peak = held_and_peak(_dp_window_max, wins, n - 1)[1]
        widest = math.comb(n, n // 2) * n * 12  # its float64 placed and int32 successor tables
        assert peak < 2 * widest


@st.composite
def dp_inputs(draw):
    """``(wins, radius)``: n of 1-16, a radius of 0 to n + 1, and wins of 0-3 (many ties), all 0 or near the guard."""
    n = draw(st.integers(1, 16))
    radius, kind = draw(st.integers(0, n + 1)), draw(st.sampled_from(("ties", "zero", "guard")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    top = ((1 << 53) - 1) // (n * n)  # n * n entries of at most top sum below 2^53
    if kind == "zero":
        return np.zeros((n, n), np.int64), radius
    return rng.integers(*((0, 4) if kind == "ties" else (top - 3, top + 1)), size=(n, n)), radius


@needs_cc
class TestCompiledDp:
    """The C form of the DP in ``_rows.c`` against the numpy form, at zero tolerance in sequence and score."""

    @staticmethod
    def both_forms(wins, radius):
        with pytest.MonkeyPatch.context() as patch:
            return [_dp_window_max(wins, radius) for _ in row_kernel_paths(patch)]

    @settings(max_examples=300, deadline=None)
    @given(inputs=dp_inputs())
    def test_equals_the_numpy_form(self, inputs):
        compiled, numpy = self.both_forms(*inputs)
        assert compiled == numpy

    @pytest.mark.parametrize("n", range(1, 13))
    def test_all_of_s_n_equals_the_numpy_form(self, n):
        wins = np.random.default_rng(60 + n).integers(0, 4, size=(n, n))
        compiled, numpy = self.both_forms(wins, n - 1)
        assert compiled == numpy

    @pytest.mark.parametrize("n, radius", [(40, 8), (16, 15)])
    def test_its_buffers_peak_under_the_numpy_form_and_none_outlives_the_call(self, n, radius):
        wins = np.random.default_rng(48).integers(0, 51, size=(n, n))
        with pytest.MonkeyPatch.context() as patch:
            measured = [held_and_peak(_dp_window_max, wins, radius) for _ in row_kernel_paths(patch)]
        (held, peak), (_, numpy_peak) = measured
        assert peak < numpy_peak
        assert held < 4 << 10  # a few small objects at most: no buffer is kept


def brute_force_mle_from_counts(counts: PairwiseCounts) -> Ranking:
    perms = np.array(list(itertools.permutations(range(counts.n))), dtype=np.int64)
    scores = score_permutation_array(perms, counts)
    return Ranking(perms[int(np.argmax(scores))].tolist())


class TestWindowFormulas:
    def test_positive_and_shrinking_in_r(self):
        values = [pointwise_window(20, 2.0, 0.5, r) for r in (1, 10, 100, 10000)]
        assert all(v >= 1 for v in values)
        assert values == sorted(values, reverse=True)

    def test_mle_window_dominates(self):
        for r in (1, 5, 50):
            assert mle_window(20, 1.0, 0.5, r) > pointwise_window(20, 1.0, 0.5, r)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pointwise_window(10, 0.0, 0.5, 5)
        with pytest.raises(ValueError):
            mle_window(10, 1.0, 0.0, 5)

    @pytest.mark.parametrize("window", [pointwise_window, mle_window])
    @pytest.mark.parametrize(
        ("beta", "p", "alpha", "message"),
        [
            (float("nan"), 0.5, 1.0, "beta must be finite"),
            (float("inf"), 0.5, 1.0, "beta must be finite"),
            (2.0, 0.5, float("nan"), "alpha must be finite"),
            (2.0, 0.5, float("inf"), "alpha must be finite"),
            (2.0, 0.5, -2.0, "alpha must exceed -2"),
            (1e-200, 0.5, 1.0, "radius is not finite for beta=1e-200"),
            (2.0, 1e-200, 1.0, "radius is not finite for beta=2.0, p=1e-200"),
        ],
    )
    def test_out_of_range_inputs_name_the_parameter(self, window, beta, p, alpha, message):
        with pytest.raises(ValueError, match=message):
            window(12, beta, p, 20, alpha)

    def test_tiny_but_finite_inputs_keep_their_radius(self):
        # p^2 stays a normal float here, so the pointwise radius is huge but finite
        raw = (2.0 * 2.0 + 1.0) / (2.0**3 * 1e-150 * 1e-150 * 20) * math.log(12 * (2.0 + 1.0))
        assert pointwise_window(12, 2.0, 1e-150, 20) == math.ceil(raw)
        assert pointwise_window(12, 2.0, 0.5, 20, alpha=-1.5) == 1


class TestRecoveryPipelines:
    def test_noiseless_recovers_center(self):
        stream = Stream.from_seed(600)
        center = Ranking(stream.permutation(9))
        params = MallowsParams(center, 50.0)
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=9, p=0.5), 30)
        profile = sample_profile(params, sel, stream.child(1))
        for recover in (recover_likelier_than_nature, recover_mle):
            report = recover(profile, 50.0, 0.5, stream=stream.child(2))
            assert report.result == center

    def test_stream_is_required(self):
        sel = generate_selection(SelectionSpec(kind="complete", n=4), 3)
        profile = sample_profile(MallowsParams(Ranking.identity(4), 1.0), sel, Stream.from_seed(603))
        for recover in (recover_likelier_than_nature, recover_mle):
            with pytest.raises(TypeError, match="stream"):
                recover(profile, 1.0, 1.0)

    def test_report_is_consistent(self):
        stream = Stream.from_seed(601)
        center = Ranking(stream.permutation(8))
        profile = sample_profile(
            MallowsParams(center, 1.0),
            generate_selection(SelectionSpec(kind="mixed_pfrequent", n=8, p=0.5), 6),
            stream.child(1),
        )
        report = recover_mle(profile, 1.0, 0.5, stream=stream.child(2))
        counts = accumulate_counts(profile)
        assert report.score_achieved == score(report.result, counts)
        assert report.mode == "maximum_likelihood"
        assert report.window_used >= 1
        d = report.as_dict()
        assert d["ranking"] == list(report.result.items)

    def test_result_dominates_positional_anchor(self):
        stream = Stream.from_seed(602)
        for t in range(30):
            n = 5 + below(stream, 4)
            center = Ranking(stream.child(t, 0).permutation(n))
            sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=n, p=0.5), 4)
            profile = sample_profile(MallowsParams(center, 0.7), sel, stream.child(t, 1))
            counts = accumulate_counts(profile)
            anchor = positional_estimator(profile, Stream.from_seed(9000 + t)).ranking
            report = recover_likelier_than_nature(profile, 0.7, 0.5, stream=Stream.from_seed(9000 + t))
            assert report.score_achieved >= score(anchor, counts)

    def test_likelier_than_nature_contract(self):
        pin = regression_pins.LTN_CONTRACT
        root = Stream.from_seed(pin["seed"])
        sel = generate_selection(SelectionSpec(kind="complete", n=pin["n"]), pin["r"])
        wins = 0
        for t in range(pin["trials"]):
            center = Ranking(root.child(t, 0).permutation(pin["n"]))
            profile = sample_profile(MallowsParams(center, pin["beta"]), sel, root.child(t, 1))
            counts = accumulate_counts(profile)
            report = recover_likelier_than_nature(
                profile, pin["beta"], pin["p"], stream=root.child(t, 2)
            )
            wins += report.score_achieved >= score(center, counts)
        assert wins >= pin["min_successes"]

    def test_single_complete_sample_is_its_own_mle(self):
        stream = Stream.from_seed(603)
        sample = Ranking(stream.permutation(7))
        sel = generate_selection(SelectionSpec(kind="complete", n=7), 1)
        profile = sample_profile(MallowsParams(sample, 80.0), sel, stream.child(1))
        # at this spread the sample equals the center
        assert profile.rankings[0] == sample
        report = recover_mle(profile, 1.0, 1.0, stream=stream.child(2))
        assert report.result == sample

    def test_budget_exhaustion_mentions_remedy(self):
        stream = Stream.from_seed(604)
        center = Ranking(stream.permutation(8))
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=8, p=0.5), 4)
        profile = sample_profile(MallowsParams(center, 0.5), sel, stream.child(1))
        with pytest.raises(BudgetExceededError, match="budget"):
            recover_mle(profile, 0.5, 0.5, stream=stream.child(2), budget=16)

    def test_negative_radius_override_is_refused(self):
        sel = generate_selection(SelectionSpec(kind="complete", n=5), 4)
        profile = sample_profile(MallowsParams(Ranking.identity(5), 1.0), sel, Stream.from_seed(608))
        for recover in (recover_likelier_than_nature, recover_mle):
            with pytest.raises(ValueError, match="radius_override must be nonnegative, got -1"):
                recover(profile, 1.0, 1.0, stream=Stream.from_seed(609), radius_override=-1)

    @pytest.mark.parametrize(
        ("settings", "message"),
        [
            (dict(budget=-3), "state budget must admit at least one window bit"),
            (dict(budget=1, radius_override=0), "state budget must admit at least one window bit"),
            (dict(radius_override=-1), "radius_override must be nonnegative, got -1"),
        ],
    )
    def test_a_dp_setting_no_run_can_meet_is_refused_before_the_count(self, monkeypatch, settings, message):
        calls = []
        monkeypatch.setattr(mle, "accumulate_counts", lambda profile: calls.append(profile) or accumulate_counts(profile))
        sel = generate_selection(SelectionSpec(kind="complete", n=5), 4)
        profile = sample_profile(MallowsParams(Ranking.identity(5), 1.0), sel, Stream.from_seed(612))
        for recover in (recover_likelier_than_nature, recover_mle):
            with pytest.raises(ValueError, match=message):
                recover(profile, 1.0, 1.0, stream=Stream.from_seed(613), **settings)
        assert calls == []
        recover_mle(profile, 1.0, 1.0, stream=Stream.from_seed(613), budget=2, radius_override=0)
        assert calls == [profile]

    @pytest.mark.parametrize("beta", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_beta_is_refused_before_the_dp(self, monkeypatch, beta):
        # with an override no window formula checks beta, and radius 19 at n=20 is all of S_20
        def unreachable(*args):
            raise AssertionError("the DP ran on a bad beta")

        monkeypatch.setattr(mle, "_dp_window_max", unreachable)
        sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=20, p=0.5), 40)
        profile = sample_profile(MallowsParams(Ranking.identity(20), 1.0), sel, Stream.from_seed(610))
        for recover in (recover_likelier_than_nature, recover_mle):
            with pytest.raises(ValueError, match=f"beta must be positive and finite, got {beta}"):
                recover(profile, beta, 0.5, stream=Stream.from_seed(611), radius_override=19)

    def test_radius_override_respected(self):
        stream = Stream.from_seed(605)
        center = Ranking(stream.permutation(8))
        sel = generate_selection(SelectionSpec(kind="complete", n=8), 10)
        profile = sample_profile(MallowsParams(center, 2.0), sel, stream.child(1))
        report = recover_mle(profile, 2.0, 1.0, stream=stream.child(2), radius_override=1)
        assert report.window_used >= 1

    def test_report_likelihood_ordering_matches_score_ordering(self):
        stream = Stream.from_seed(607)
        for t in range(15):
            center = Ranking(stream.child(t, 0).permutation(7))
            sel = generate_selection(SelectionSpec(kind="mixed_pfrequent", n=7, p=0.5), 5)
            profile = sample_profile(MallowsParams(center, 0.8), sel, stream.child(t, 1))
            ltn = recover_likelier_than_nature(profile, 0.8, 0.5, stream=stream.child(t, 2))
            mle = recover_mle(profile, 0.8, 0.5, stream=stream.child(t, 3))
            if ltn.score_achieved < mle.score_achieved:
                assert ltn.log_likelihood < mle.log_likelihood
            elif ltn.score_achieved > mle.score_achieved:
                assert ltn.log_likelihood > mle.log_likelihood
            else:
                assert ltn.log_likelihood == pytest.approx(mle.log_likelihood, abs=1e-9)

    def test_pairwise_only_regime_matches_oracle(self):
        # every pair observed exactly once
        stream = Stream.from_seed(606)
        n = 6
        r = n * (n - 1) // 2
        sel = generate_selection(SelectionSpec(kind="pairwise", n=n), r)
        for t in range(10):
            center = Ranking(stream.child(t, 0).permutation(n))
            profile = sample_profile(MallowsParams(center, 1.0), sel, stream.child(t, 1))
            counts = accumulate_counts(profile)
            report = recover_mle(profile, 1.0, 2 / (n * (n - 1)), stream=stream.child(t, 2))
            assert report.score_achieved == score(brute_force_mle_from_counts(counts), counts)
