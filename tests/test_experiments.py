import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import bootstrap_mean_diff_lower, exact_two_item_success, linear_fit, looped_cell, row_kernel_paths
from mallows_select import core, experiments as xp, mle
from mallows_select.core import Ranking
from mallows_select.experiments import (
    ExperimentConfig,
    SearchCapError,
    binary_search_complexity,
    estimate_success_rate,
    preset,
    run_adversarial_demo,
    run_complexity_experiment,
    run_distance_experiment,
    run_topk_experiment,
)
from mallows_select.rng import Stream
from mallows_select.sampling import SelectionSpec, _bernoulli_threshold


class TestBinarySearch:
    @staticmethod
    def stub_success(monkeypatch, success):
        """Replace every probe's trials by ``success(r)``."""
        monkeypatch.setattr(xp, "estimate_success_rate", lambda n, beta, p, r, *args: success(r))

    def test_deterministic_stub_threshold(self, monkeypatch):
        self.stub_success(monkeypatch, lambda r: 1.0 if r >= 37 else 0.0)
        out = binary_search_complexity(5, 1.0, 1.0, 0.95, 10, "complete", Stream.from_seed(0))
        assert out == 37

    def test_succeeds_immediately_at_one(self, monkeypatch):
        self.stub_success(monkeypatch, lambda r: 1.0)
        out = binary_search_complexity(5, 1.0, 1.0, 0.95, 10, "complete", Stream.from_seed(0))
        assert out == 1

    def test_cap_error(self, monkeypatch):
        self.stub_success(monkeypatch, lambda r: 0.0)
        with pytest.raises(SearchCapError, match="cap of 64"):
            binary_search_complexity(5, 1.0, 1.0, 0.95, 10, "complete", Stream.from_seed(0), max_r=64)

    def test_noiseless_search_returns_one(self):
        out = binary_search_complexity(
            8, 50.0, 1.0, 0.95, 20, "complete", Stream.from_seed(3)
        )
        assert out == 1

    def test_two_item_anchor_close_to_analytic(self):
        beta = 2.0
        analytic = next(
            r for r in range(1, 100)
            if stats.binom.sf(r // 2, r, 1 / (1 + math.exp(-beta))) >= 0.95
        )
        root = Stream.from_seed(7)
        estimates = [
            binary_search_complexity(2, beta, 1.0, 0.95, 100, "complete", root.child(s))
            for s in range(20)
        ]
        assert abs(np.mean(estimates) - analytic) <= 2


class TestSuccessRate:
    def test_noiseless_is_one(self):
        rate = estimate_success_rate(8, 50.0, 1.0, 1, 20, "complete", Stream.from_seed(1))
        assert rate == 1.0

    def test_single_sample_is_far_from_target(self):
        rate = estimate_success_rate(20, 2.0, 1.0, 1, 50, "complete", Stream.from_seed(2))
        assert rate < 0.5

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            estimate_success_rate(5, 1.0, 1.0, 0, 10, "complete", Stream.from_seed(0))

    @pytest.mark.parametrize("trials", [0, -2])
    def test_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match=f"trials must be positive, got {trials}"):
            estimate_success_rate(5, 1.0, 1.0, 3, trials, "complete", Stream.from_seed(0))
        with pytest.raises(ValueError, match=f"trials must be positive, got {trials}"):
            binary_search_complexity(5, 1.0, 1.0, 0.9, trials, "complete", Stream.from_seed(0))

    def test_matches_closed_form_two_items(self):
        beta, r, trials = 2.0, 15, 400
        rate = estimate_success_rate(2, beta, 1.0, r, trials, "complete", Stream.from_seed(4))
        expected = exact_two_item_success(r, beta)
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(rate - expected) < 3 * se

    def test_topk_needs_k(self):
        with pytest.raises(ValueError):
            estimate_success_rate(5, 1.0, 1.0, 2, 5, "complete", Stream.from_seed(0), match="topk")

    def test_topk_rate_dominates_exact(self):
        kwargs = dict(n=10, beta=1.0, p=1.0, r=6, trials=60, selection_kind="complete")
        exact = estimate_success_rate(**kwargs, stream=Stream.from_seed(5))
        topk = estimate_success_rate(**kwargs, stream=Stream.from_seed(5), match="topk", k=2)
        assert topk >= exact


class TestConfigAndPresets:
    def test_figure1_parameters(self):
        cfg = preset("figure1")
        assert (cfg.n, cfg.beta, cfg.target_success) == (20, 2.0, 0.95)
        assert cfg.trials_per_point == 100 and cfg.searches == 100
        assert cfg.p_values == (1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6)
        assert cfg.selection_kind == "mixed_pfrequent"

    def test_figure2_parameters(self):
        cfg = preset("figure2")
        assert (cfg.n, cfg.beta) == (20, 0.3)
        assert cfg.p_values == (0.2, 0.5, 1.0)
        assert cfg.r_grid == tuple(range(10, 101, 10))

    def test_figure3_parameters(self):
        cfg = preset("figure3")
        assert cfg.selection_kind == "bernoulli_random"
        assert cfg.searches == 50

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("figure9")

    def test_config_validation(self):
        for beta in (float("nan"), float("inf"), 0.0, -1.0):
            with pytest.raises(ValueError, match="beta must be positive and finite"):
                ExperimentConfig(n=5, beta=beta)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, beta=1.0, target_success=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, beta=1.0, r_grid=(10, 5))
        with pytest.raises(ValueError):
            ExperimentConfig(n=5, beta=1.0, estimator="borda")
        # every selection spec and grid size is refused on construction, before any search or cell runs
        with pytest.raises(ValueError, match="frequency parameter p must lie in"):
            ExperimentConfig(n=5, beta=1.0, p_values=(0.2, 0.0))
        with pytest.raises(ValueError, match="selection specs require n >= 2"):
            ExperimentConfig(n=1, beta=1.0)
        with pytest.raises(ValueError, match="unknown selection kind"):
            ExperimentConfig(n=5, beta=1.0, selection_kind="borda")
        with pytest.raises(ValueError, match="at least one set"):
            ExperimentConfig(n=5, beta=1.0, r_grid=(0, 5))


def small_complexity_config(**overrides):
    base = dict(
        n=6, beta=2.0, p_values=(1.0, 0.5), target_success=0.9,
        trials_per_point=30, searches=4, selection_kind="mixed_pfrequent", seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestComplexityExperiment:
    def test_single_point_curve(self):
        cfg = small_complexity_config(p_values=(1.0,))
        curve = run_complexity_experiment(cfg)
        assert len(curve.rows) == 1
        p, inv_p, mean, std, _searches, _trials = curve.rows[0]
        assert (p, inv_p) == (1.0, 1.0)
        assert mean >= 1.0 and std >= 0.0

    def test_points_sorted_by_p_descending(self):
        curve = run_complexity_experiment(small_complexity_config())
        ps = [row[0] for row in curve.rows]
        assert ps == sorted(ps, reverse=True)

    def test_lower_p_needs_more_samples(self):
        cfg = small_complexity_config(n=10, p_values=(1.0, 1 / 3), searches=6)
        curve = run_complexity_experiment(cfg)
        by_p = {row[0]: row[2] for row in curve.rows}
        assert by_p[1 / 3] > by_p[1.0]

    def test_csv_format(self):
        cfg = small_complexity_config(p_values=(1.0,))
        text = run_complexity_experiment(cfg).to_csv()
        lines = text.strip().splitlines()
        meta = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln == "# seed=11" for ln in meta)
        header_idx = len(meta)
        assert lines[header_idx] == "p,inv_p,mean_r_star,std_r_star,searches,trials"
        assert len(lines) == header_idx + 2

    def test_threads_do_not_change_output(self):
        cfg = small_complexity_config()
        a = run_complexity_experiment(cfg, threads=1).to_csv()
        b = run_complexity_experiment(cfg, threads=2).to_csv()
        assert a == b

    def test_svg_is_well_formed(self):
        cfg = small_complexity_config(p_values=(1.0, 0.5))
        svg = run_complexity_experiment(cfg).to_svg()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "polyline" in svg


class TestDistanceExperiment:
    def test_requires_grid(self):
        with pytest.raises(ValueError):
            run_distance_experiment(small_complexity_config())

    def test_noiseless_distance_zero_everywhere(self):
        cfg = ExperimentConfig(
            n=8, beta=50.0, p_values=(0.5, 1.0), trials_per_point=10,
            r_grid=(2, 5), selection_kind="mixed_pfrequent", seed=3,
        )
        curve = run_distance_experiment(cfg)
        for _p, _r, mean, std, _trials in curve.rows:
            assert mean == 0.0 and std == 0.0

    def test_distance_shrinks_with_r(self):
        cfg = ExperimentConfig(
            n=12, beta=0.3, p_values=(0.5,), trials_per_point=40,
            r_grid=(5, 80), selection_kind="mixed_pfrequent", seed=4,
        )
        rows = [row for row in run_distance_experiment(cfg).rows if row[0] == 0.5]
        assert rows[-1][2] < rows[0][2]

    def test_threads_do_not_change_output(self):
        cfg = ExperimentConfig(
            n=8, beta=0.5, p_values=(0.5, 1.0), trials_per_point=15,
            r_grid=(3, 9), selection_kind="mixed_pfrequent", seed=5,
        )
        assert run_distance_experiment(cfg, 1).to_csv() == run_distance_experiment(cfg, 2).to_csv()


class TestTopkExperiment:
    def test_k_equal_n_matches_exact_rate(self):
        cfg = ExperimentConfig(
            n=6, beta=1.0, p_values=(1.0,), trials_per_point=40,
            r_grid=(2, 6, 12), k=6, selection_kind="complete", seed=6,
        )
        curve = run_topk_experiment(cfg)
        for _k, _r, topk_rate, full_rate, _trials in curve.rows:
            assert topk_rate == full_rate

    def test_requires_k(self):
        cfg = ExperimentConfig(n=6, beta=1.0, r_grid=(2, 4))
        with pytest.raises(ValueError):
            run_topk_experiment(cfg)

    def test_topk_rate_weakly_dominates(self):
        cfg = ExperimentConfig(
            n=10, beta=1.0, p_values=(0.5,), trials_per_point=40,
            r_grid=(4, 10), k=2, selection_kind="mixed_pfrequent", seed=7,
        )
        for _k, _r, topk_rate, full_rate, _trials in run_topk_experiment(cfg).rows:
            assert topk_rate >= full_rate


class TestAdversarialDemo:
    def test_large_r_failure_near_zero(self):
        report = run_adversarial_demo(n=8, beta=2.0, p=0.5, r=60, trials=40, seed=8)
        rates = {regime: rate for regime, _r, rate, _t in report.rows}
        assert rates["adversarial"] <= 0.1 and rates["mixed"] <= 0.1

    def test_single_sample_failure_is_high(self):
        report = run_adversarial_demo(n=20, beta=1.0, p=0.5, r=1, trials=200, seed=9)
        rates = {regime: rate for regime, _r, rate, _t in report.rows}
        assert rates["adversarial"] > 0.7

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            run_adversarial_demo(n=7, beta=1.0, p=0.5, r=2, trials=5)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_nonpositive_trials_rejected(self, trials):
        with pytest.raises(ValueError, match="trials must be positive"):
            run_adversarial_demo(n=8, beta=1.0, p=0.5, r=2, trials=trials)

    def test_threads_do_not_change_output(self):
        a = run_adversarial_demo(n=8, beta=1.0, p=0.5, r=4, trials=30, seed=10, threads=1)
        b = run_adversarial_demo(n=8, beta=1.0, p=0.5, r=4, trials=30, seed=10, threads=2)
        assert a.to_csv() == b.to_csv()


@pytest.mark.parametrize(
    "run",
    [
        lambda: run_complexity_experiment(small_complexity_config()),
        lambda: run_distance_experiment(
            ExperimentConfig(n=6, beta=1.0, p_values=(0.5, 1.0), trials_per_point=5, r_grid=(2, 4, 8), seed=1)
        ),
        lambda: run_topk_experiment(
            ExperimentConfig(n=6, beta=1.0, p_values=(0.5,), trials_per_point=5, r_grid=(3, 6), k=2, seed=2)
        ),
        lambda: run_adversarial_demo(n=6, beta=1.0, p=0.5, r=3, trials=5, seed=3),
    ],
    ids=["complexity", "distance", "topk", "adversarial"],
)
def test_csv_has_one_line_per_row_with_a_field_per_column(run):
    report = run()
    body = [line for line in report.to_csv().splitlines() if not line.startswith("# ")]
    assert body[0] == report.header
    assert len(body) == 1 + len(report.rows) and len(report.rows) > 0
    assert all(len(line.split(",")) == len(report.header.split(",")) for line in body[1:])


class TestSuccessCurveShape:
    def test_nondecreasing_after_isotonic_smoothing(self):
        # raw dips beyond 3 sigma are flagged, not failed
        import warnings

        trials = 60
        root = Stream.from_seed(15)
        grid = (1, 2, 4, 8, 16, 32)
        rates = [
            estimate_success_rate(8, 1.0, 0.5, r, trials, "mixed_pfrequent", root.child(r))
            for r in grid
        ]
        smoothed = _pool_adjacent_violators(rates)
        assert smoothed == sorted(smoothed)
        sigma = math.sqrt(0.25 / trials)
        violations = [raw - fit for raw, fit in zip(rates, smoothed)]
        if any(abs(v) > 3 * sigma for v in violations):
            warnings.warn(f"success-curve dips beyond 3 sigma: {violations}")
        # the overall rise must dwarf the noise floor
        assert rates[-1] > rates[0] + 6 * sigma


def _pool_adjacent_violators(values):
    blocks = [[v, 1] for v in values]
    merged = []
    for block in blocks:
        merged.append(block)
        while len(merged) > 1 and merged[-2][0] > merged[-1][0]:
            s2, w2 = merged.pop()
            s1, w1 = merged.pop()
            merged.append([(s1 * w1 + s2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for value, weight in merged:
        out.extend([value] * weight)
    return out


class TestStatHelpers:
    def test_linear_fit_exact_line(self):
        slope, intercept, r2 = linear_fit([1, 2, 3, 4], [3, 5, 7, 9])
        assert slope == pytest.approx(2.0)
        assert intercept == pytest.approx(1.0)
        assert r2 == pytest.approx(1.0)

    def test_bootstrap_separates_clear_gap(self):
        a = [10.0] * 50
        b = [1.0 + 0.1 * (i % 3) for i in range(50)]
        lower = bootstrap_mean_diff_lower(a, b, Stream.from_seed(12))
        assert lower > 8.0

    def test_bootstrap_overlapping_samples_include_zero(self):
        a = [1.0, 2.0, 3.0, 4.0] * 5
        b = [1.0, 2.0, 3.0, 4.0] * 5
        lower = bootstrap_mean_diff_lower(a, b, Stream.from_seed(13))
        assert lower < 0.5


class TestEstimatorSelector:
    def test_ltn_and_mle_selectors_run(self):
        for estimator in ("ltn", "mle"):
            rate = estimate_success_rate(
                6, 2.0, 1.0, 8, 5, "complete", Stream.from_seed(14), estimator=estimator
            )
            assert 0.0 <= rate <= 1.0

    def test_config_replace_is_supported(self):
        cfg = preset("figure1")
        reduced = dataclasses.replace(cfg, searches=3)
        assert reduced.searches == 3 and reduced.n == cfg.n


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records the worker count and maps in-process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, *iterables, chunksize=1):
        assert chunksize >= 1
        return map(fn, *iterables)


class TestWorkerCap:
    def test_workers_capped_by_threads_tasks_and_cores(self, monkeypatch):
        made = []
        monkeypatch.setattr(xp, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(made, max_workers))
        monkeypatch.setattr(xp.os, "cpu_count", lambda: 4)
        tasks = [(2, k) for k in range(10)]
        assert xp._map_tasks(pow, tasks[:3], 10**6) == [1, 2, 4]
        assert xp._map_tasks(pow, tasks, 10**6) == [2**k for k in range(10)]
        assert xp._map_tasks(pow, tasks, 2) == [2**k for k in range(10)]
        assert xp._map_tasks(pow, tasks[:1], 10**6) == [1]
        assert made == [3, 4, 2]

    def test_huge_threads_value_keeps_bytes(self, monkeypatch):
        made = []
        serial = run_adversarial_demo(n=8, beta=1.0, p=0.5, r=4, trials=30, seed=10, threads=1).to_csv()
        monkeypatch.setattr(xp, "ProcessPoolExecutor", lambda max_workers: _RecordingPool(made, max_workers))
        monkeypatch.setattr(xp.os, "cpu_count", lambda: 4)
        capped = run_adversarial_demo(n=8, beta=1.0, p=0.5, r=4, trials=30, seed=10, threads=10**6).to_csv()
        assert capped == serial
        assert made == [4]


_KINDS = ("complete", "pairwise", "mixed_pfrequent", "bernoulli_random", "adversarial_matching")


@st.composite
def cell_cases(draw):
    kind = draw(st.sampled_from(_KINDS))
    n = draw(st.integers(2, 9))
    if kind == "adversarial_matching":
        n += n % 2
    # p = 0.04 makes q = 0.2: most bernoulli draws are rejected, so trials run into the rejection tail
    p = draw(st.sampled_from((1.0, 0.5, 0.25, 0.04) if kind == "bernoulli_random" else (1.0, 0.5, 1 / 3)))
    return dict(
        n=n, beta=draw(st.sampled_from((0.3, 1.0, 2.5))), p=p, r=draw(st.integers(1, 30)), selection_kind=kind,
        estimator=draw(st.sampled_from(("posest", "posest", "ltn", "mle"))),
        center=Ranking(draw(st.permutations(range(n)))) if draw(st.booleans()) else None,
    )


class TestBlockWins:
    """``experiments._cell_block``, the trial-block seam, gives the same (estimate, center, wins) on both row-kernel
    paths: one compiled call, and the numpy chain of ``permutation_rows``, ``_block_wins``, ``_beaten_by`` and
    ``_order_by_scores``."""

    @staticmethod
    def both_paths(seed, first, trials, n, beta, p, r, selection_kind, center=None, **_):
        spec = SelectionSpec(kind=selection_kind, n=n, p=p)
        if selection_kind == "bernoulli_random":
            members, threshold = None, _bernoulli_threshold(spec, r)
        else:
            members, threshold = xp._cached_selection(selection_kind, n, p, r), None
        key, span = Stream.from_seed(seed).key, range(first, first + trials)
        planted = None if center is None else np.array(center.items, dtype=np.int64)
        blocks = []
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                blocks.append(xp._cell_block(key, span, n, beta, r, members, threshold, None, planted))
        return blocks

    @settings(max_examples=150, deadline=None)
    @given(case=cell_cases(), beta=st.floats(0.05, 40.0), seed=st.integers(0, 2**32), trials=st.integers(1, 6),
           first=st.integers(0, 2**62))
    # the rejection tail: at q = 0.2 and n = 3 most candidate sets have fewer than two members
    @example(case=dict(n=3, p=0.04, r=30, selection_kind="bernoulli_random"), beta=1.0, seed=0, trials=6, first=0)
    @example(case=dict(n=20, p=1 / 6, r=256, selection_kind="bernoulli_random"), beta=2.0, seed=1, trials=3, first=0)
    @example(case=dict(n=20, p=1 / 6, r=256, selection_kind="mixed_pfrequent"), beta=2.0, seed=2, trials=3, first=0)
    # trial indices past 2^32 and near 2^62, whose keys the compiled block derives from the root key
    @example(case=dict(n=6, p=0.5, r=6, selection_kind="bernoulli_random"), beta=2.0, seed=9, trials=6, first=2**32 + 17)
    @example(case=dict(n=9, p=0.5, r=9, selection_kind="mixed_pfrequent"), beta=1.0, seed=9, trials=5, first=2**62 - 1)
    # one sample of all 20 items, whose scores are its positions, so no tie; then tie-heavy blocks: two such samples,
    # two items, the planted identity under the starved matching, and the rejection tail on two sets
    @example(case=dict(n=20, p=1.0, r=1, selection_kind="complete"), beta=2.0, seed=3, trials=6, first=0)
    @example(case=dict(n=20, p=1.0, r=2, selection_kind="complete"), beta=2.0, seed=3, trials=6, first=0)
    @example(case=dict(n=2, p=1.0, r=2, selection_kind="complete"), beta=0.3, seed=4, trials=6, first=0)
    @example(
        case=dict(n=8, p=0.5, r=5, selection_kind="adversarial_matching", center=Ranking.identity(8)),
        beta=1.0, seed=5, trials=6, first=0,
    )
    @example(case=dict(n=3, p=0.04, r=2, selection_kind="bernoulli_random"), beta=1.0, seed=6, trials=6, first=0)
    # both ends of the insertion search: draws spread over every threshold of 64 items, and all below the first
    @example(case=dict(n=64, p=1.0, r=3, selection_kind="complete"), beta=0.05, seed=7, trials=6, first=0)
    @example(case=dict(n=20, p=1 / 6, r=64, selection_kind="bernoulli_random"), beta=40.0, seed=8, trials=3, first=0)
    # complete rows of 9 items: two of the pair count's four-item steps and a one-item tail
    @example(case=dict(n=9, p=1.0, r=4, selection_kind="complete"), beta=1.0, seed=10, trials=4, first=0)
    def test_compiled_block_equals_the_numpy_block(self, case, beta, seed, trials, first):
        compiled, numpy = self.both_paths(seed, first, trials, **{**case, "beta": beta})
        n = case["n"]
        for native, reference in zip(compiled, numpy, strict=True):
            assert native.dtype == reference.dtype and np.array_equal(native, reference)
        est, centers, wins = compiled
        assert est.shape == centers.shape == (trials, n) and wins.shape == (trials, n, n)
        assert (np.sort(est, axis=1) == np.arange(n)).all() and (np.sort(centers, axis=1) == np.arange(n)).all()
        # every kept set has two members or more, and the counts are of its samples' pairs
        assert (wins + wins.transpose(0, 2, 1)).sum() >= 2 * case["r"] * trials

    def test_inputs_the_compiled_kernel_would_read_past_are_refused(self):
        if core._row_kernels() is None:
            pytest.skip("the compiled row kernels did not load")
        members, key = xp._cached_selection("complete", 3, 1.0, 2), Stream.from_seed(0).key
        with pytest.raises(IndexError, match="outside"):
            xp._cell_block(key, range(2), 3, 1.0, 2, members, None, None, np.array([0, 3, 1]))
        # the kernel reads trial first + t for t < T, so a range of another step would run other trials
        with pytest.raises(ValueError, match="in steps of 1"):
            xp._cell_block(key, range(0, 4, 2), 3, 1.0, 2, members, None, None, None)
        with pytest.raises(ValueError, match="planted center of 3 items"):
            xp._cell_block(key, range(2), 3, 1.0, 2, members, None, None, np.array([0, 1]))
        with pytest.raises(ValueError, match="must have shape"):
            xp._cell_block(key, range(2), 3, 1.0, 3, members, None, None, None)


class TestTrialKernel:
    """``experiments._cell`` against the looped protocol of ``helpers.run_trial``, exactly, on each kernel path."""

    @staticmethod
    def assert_same(root, trials, case):
        with pytest.MonkeyPatch.context() as patch:
            for _ in row_kernel_paths(patch):
                batched = xp._cell(root, trials, **case)
                looped = looped_cell(root, trials, **case)
                assert batched[0].dtype == looped[0].dtype and batched[1].dtype == looped[1].dtype
                assert np.array_equal(batched[0], looped[0]) and np.array_equal(batched[1], looped[1])

    @settings(max_examples=60, deadline=None)
    @given(case=cell_cases(), seed=st.integers(0, 2**32), start=st.integers(0, 300), length=st.integers(1, 8))
    def test_batched_equals_looped(self, case, seed, start, length):
        self.assert_same(Stream.from_seed(seed), range(start, start + length), case)

    @pytest.mark.parametrize(
        "case",
        [
            # complete n = 20: one sample scores each item by its position, so r = 1 has no tie; r = 2 ties every trial
            dict(n=20, beta=2.0, p=1.0, r=1, selection_kind="complete", estimator="posest"),
            dict(n=20, beta=2.0, p=1.0, r=2, selection_kind="complete", estimator="posest"),
            dict(n=20, beta=2.0, p=1 / 6, r=49, selection_kind="mixed_pfrequent", estimator="posest"),
            dict(n=20, beta=2.0, p=1 / 6, r=64, selection_kind="bernoulli_random", estimator="posest"),
            dict(n=3, beta=1.0, p=0.04, r=20, selection_kind="bernoulli_random", estimator="posest"),
            dict(n=8, beta=1.0, p=0.5, r=5, selection_kind="adversarial_matching", estimator="posest",
                 center=Ranking.identity(8)),
            dict(n=6, beta=2.0, p=0.5, r=6, selection_kind="mixed_pfrequent", estimator="ltn"),
            dict(n=6, beta=2.0, p=0.5, r=6, selection_kind="bernoulli_random", estimator="mle"),
            dict(n=40, beta=1.0, p=1.0, r=300, selection_kind="pairwise", estimator="posest"),
        ],
    )
    def test_batched_equals_looped_on_figure_cells(self, case):
        self.assert_same(Stream.from_seed(3).child(case["r"]), range(40), case)

    @pytest.mark.parametrize(
        "case",
        [
            dict(n=12, beta=1.0, p=0.5, r=16, selection_kind="bernoulli_random", estimator="ltn"),
            dict(n=10, beta=2.0, p=1.0, r=45, selection_kind="pairwise", estimator="mle"),
        ],
    )
    def test_batched_equals_looped_on_widening_trials(self, monkeypatch, case):
        root, trials, runs = Stream.from_seed(3).child(case["r"]), range(40), []
        dp = mle._dp_window_max
        monkeypatch.setattr(mle, "_dp_window_max", lambda wins, radius: runs.append(radius) or dp(wins, radius))
        xp._cell(root, trials, **case)
        assert max(runs) > runs[0]  # some trials touched the window boundary and ran again, wider
        self.assert_same(root, trials, case)

    # one trial per block (and one row per sampler chunk and pair block), the default budget, and one block per cell
    BUDGETS = (1, core._BLOCK_BYTES, 1 << 40)

    def test_blocks_do_not_change_rows(self, monkeypatch):
        root = Stream.from_seed(21)
        for case in (
            dict(n=10, beta=1.0, p=0.25, r=12, selection_kind="bernoulli_random", estimator="posest"),
            dict(n=20, beta=2.0, p=1 / 6, r=128, selection_kind="mixed_pfrequent", estimator="posest"),
            dict(n=20, beta=2.0, p=1.0, r=32, selection_kind="complete", estimator="posest"),
            dict(n=8, beta=2.0, p=0.5, r=16, selection_kind="mixed_pfrequent", estimator="ltn"),
        ):
            cells = []
            for budget in self.BUDGETS:
                for _ in row_kernel_paths(monkeypatch):
                    monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
                    whole, tail = xp._cell(root, range(30), **case), xp._cell(root, range(17, 30), **case)
                    assert all(np.array_equal(a[17:], b) for a, b in zip(whole, tail)), (case, budget)
                    cells.append(whole)
            assert all(np.array_equal(a, b) for cell in cells[1:] for a, b in zip(cells[0], cell)), case

    @pytest.mark.parametrize("figure", ["figure1", "figure3"])
    def test_blocks_do_not_change_whole_searches(self, monkeypatch, figure):
        # the first search of every p, on its stream path in run_complexity_experiment
        config = preset(figure)
        found = []
        for budget in self.BUDGETS[1:]:
            for _ in row_kernel_paths(monkeypatch):
                monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
                found.append([
                    binary_search_complexity(
                        config.n, config.beta, p, config.target_success, config.trials_per_point,
                        config.selection_kind, Stream.from_seed(config.seed).child(xp._EXP_COMPLEXITY, p_idx, 0),
                    )
                    for p_idx, p in enumerate(config.p_values)
                ])
        assert all(searches == found[0] for searches in found[1:])

    def test_checks_run_before_any_draw(self, monkeypatch):
        root = Stream.from_seed(0)
        with pytest.raises(ValueError, match="at least one set"):
            xp._cell(root, range(3), 5, 1.0, 1.0, 0, "complete")
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            xp._cell(root, range(3), 5, float("nan"), 1.0, 4, "complete")
        with pytest.raises(ValueError, match="unknown selection kind"):
            xp._cell(root, range(3), 5, 1.0, 1.0, 4, "borda")
        for _ in row_kernel_paths(monkeypatch):  # the compiled block reads trial indices first, first + 1, ...
            with pytest.raises(ValueError, match="in steps of 1"):
                xp._cell(root, range(0, 6, 2), 5, 1.0, 1.0, 4, "complete")
        with pytest.raises(ValueError, match="over the limit of 2"):
            xp._cell(root, range(3), 40, 1.0, 1e-6, 10**6, "bernoulli_random")
        # a planted center that is not a permutation of range(n): too short, on a deterministic and a random kind, or
        # with a repeated item
        for n, kind, center in (
            (4, "complete", Ranking.identity(3)),
            (4, "bernoulli_random", Ranking.identity(3)),
            (4, "complete", Ranking([0, 1, 2, 2], validate=False)),
        ):
            with pytest.raises(ValueError, match=rf"planted center {re.escape(repr(center))} is not a permutation"):
                xp._cell(root, range(3), n, 1.0, 0.5, 4, kind, center=center)

    FIGURE_CELLS = [(kind, p, r) for kind in ("mixed_pfrequent", "bernoulli_random")
                    for p, r in ((1, 8), (1, 32), (1 / 2, 32), (1 / 6, 128), (1 / 6, 256))]

    @staticmethod
    def cell_peak(*args) -> int:
        """The tracemalloc peak of ``xp._cell(*args)`` after a warm-up call, which fills the selection cache."""
        xp._cell(*args)
        tracemalloc.start()
        try:
            xp._cell(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_working_memory_is_bounded_by_blocks(self, monkeypatch):
        # unblocked, the pair buffers of the count alone take 16 bytes per pair of every set of every trial: 13 MB at
        # (1/6, 256); a cell's peak, its two output arrays included, stays under the budget on every figure cell
        for _ in row_kernel_paths(monkeypatch):
            for kind, p, r in self.FIGURE_CELLS:
                peak = self.cell_peak(Stream.from_seed(4), range(100), 20, 2.0, p, r, kind)
                assert peak <= core._BLOCK_BYTES, (kind, p, r)

    @pytest.mark.skipif(core._row_kernels() is None, reason="the compiled row kernels did not load")
    def test_compiled_blocks_are_sized_by_the_counts_they_hold(self, monkeypatch):
        # the compiled path holds no per-item or per-set array, so a 100-trial figure cell runs as one block
        blocks, cell_block = [], xp._cell_block

        def counted(*args):  # the blocks of the measured call, not of its warm-up
            blocks.append(tracemalloc.is_tracing())
            return cell_block(*args)

        monkeypatch.setattr(xp, "_cell_block", counted)
        for kind, p, r in self.FIGURE_CELLS:
            peak = self.cell_peak(Stream.from_seed(4), range(100), 20, 2.0, p, r, kind)
            assert (sum(blocks), peak <= core._BLOCK_BYTES) == (1, True), (kind, p, r, peak)
            blocks.clear()
        # here a trial's 1024 complete sets would hold 4.8 MB of items on the numpy path; its n*n counts take 80 KB
        peak = self.cell_peak(Stream.from_seed(4), range(100), 100, 1.0, 1.0, 1024, "complete")
        assert peak <= core._BLOCK_BYTES and 1 < sum(blocks) <= 5, (peak, sum(blocks))

    def test_a_numpy_trial_over_the_budget_holds_its_items_and_one_budget(self, monkeypatch):
        # one trial's 1024 complete sets at n=100: 5.1 M pairs, whose pair buffers are bounded by the budget (they took
        # 16 MiB under the count's own budget), plus the trial's own item arrays while it samples
        monkeypatch.setattr(core, "_row_kernels", lambda: None)
        assert self.cell_peak(Stream.from_seed(4), range(2), 100, 1.0, 1.0, 1024, "complete") <= 10 << 20

    def test_pair_only_cell_memory_is_linear_in_the_set_sizes(self, monkeypatch):
        # a dense (r, n, n) compare of one trial's samples takes 20 MB here; its CSR rows take 128 KB
        args = (Stream.from_seed(4), range(4), 100, 1.0, 1.0, 2000, "pairwise")
        xp._cell(*args)  # warm the selection cache
        for _ in row_kernel_paths(monkeypatch):
            tracemalloc.start()
            try:
                xp._cell(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20
