"""Monte-Carlo harness: sample-complexity search, distance curves, top-k, adversarial demo.

Protocol shared by all experiments: every trial draws a fresh uniformly
random central ranking, samples a profile on its selection sequence, runs
the selected estimator, and records the outcome.  Each trial's randomness
comes from a substream keyed by (seed, experiment id, probe coordinates,
trial index), so aggregate results are byte-identical regardless of how
trials are scheduled across workers.

All experiments reduce the rows of one cell kernel, :func:`_cell`, which
runs a range of trials in blocks of arrays, :func:`_cell_block`.  Where the
compiled kernels of ``core`` loaded, one call per block draws each trial's
center, sets and samples, counts its wins and orders its scores into the
positional estimate.  Else the numpy forms make the same arrays: one
Fisher-Yates pass over all centers, the draws and counts of
:func:`_block_wins` over the sets of all trials as one array of CSR rows,
and one sort and tie shuffle of all trials' scores, the routine behind the
public estimator.  Only the windowed DP of the ltn and mle estimators runs
trial by trial, around those estimates.  The rows equal those of running
each trial object by object, the reference kept in the tests.  A block
holds what the cell's own rows leave of the one working budget,
``core._BLOCK_BYTES``, by the bytes a trial holds on the path that runs
it: a figure cell runs as one compiled block.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from . import core, plotting
from .core import Ranking, _discordances, _pair_counts, check_beta
from .estimators import PairwiseCounts, _beaten_by, _order_by_scores
from .mle import _recover_from_counts, mle_window, pointwise_window
from .rng import Stream, child_key_grid, permutation_rows
from .sampling import (
    InfeasibleSpecError,
    SelectionSpec,
    _bernoulli_acceptance,
    _bernoulli_members,
    _bernoulli_threshold,
    _insertion_weights,
    _sample_rows,
    generate_selection,
)

_EXP_COMPLEXITY = 1
_EXP_DISTANCE = 2
_EXP_TOPK = 3
_EXP_ADVERSARIAL = 4


class SearchCapError(RuntimeError):
    """The doubling phase of a binary search hit the profile-size cap."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full parameterization of one Monte-Carlo run."""

    n: int
    beta: float
    p_values: tuple[float, ...] = (1.0,)
    target_success: float = 0.95
    trials_per_point: int = 100
    searches: int = 100
    r_grid: tuple[int, ...] | None = None
    k: int | None = None
    selection_kind: str = "mixed_pfrequent"
    seed: int = 0
    max_r: int = 4096
    estimator: str = "posest"

    def __post_init__(self):
        check_beta(self.beta)
        if not (0.0 < self.target_success < 1.0):
            raise ValueError("target success rate must lie in (0, 1)")
        if self.trials_per_point < 1 or self.searches < 1:
            raise ValueError("trials and searches must be positive")
        if self.estimator not in ("posest", "ltn", "mle"):
            raise ValueError("estimator must be one of posest, ltn, mle")
        if self.r_grid is not None and sorted(set(self.r_grid)) != list(self.r_grid):
            raise ValueError("r_grid must be strictly increasing")
        for p in self.p_values:  # every spec is refused before the first search, cell or stream
            SelectionSpec(kind=self.selection_kind, n=self.n, p=p)
        if self.r_grid and self.r_grid[0] < 1:
            raise InfeasibleSpecError("selection sequences must contain at least one set")

    def metadata(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}  # every field is immutable, so no copy is needed


def preset(name: str) -> ExperimentConfig:
    """Named experiment parameterizations reproduced by the CLI; figure3 is figure1 on Bernoulli sets."""
    figure1 = ExperimentConfig(
        n=20, beta=2.0, p_values=(1.0, 1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6),
        target_success=0.95, trials_per_point=100, searches=100, selection_kind="mixed_pfrequent",
    )
    presets = {
        "figure1": figure1,
        "figure2": ExperimentConfig(
            n=20, beta=0.3, p_values=(0.2, 0.5, 1.0), trials_per_point=100,
            r_grid=tuple(range(10, 101, 10)), selection_kind="mixed_pfrequent",
        ),
        "figure3": replace(figure1, searches=50, selection_kind="bernoulli_random"),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; available: figure1, figure2, figure3")
    return presets[name]


@lru_cache(maxsize=4096)
def _cached_selection(kind: str, n: int, p: float, r: int) -> np.ndarray:
    """Read-only (r, n) membership mask of a deterministic selection sequence."""
    selection = generate_selection(SelectionSpec(kind=kind, n=n, p=p), r)
    members = np.zeros((r, n), dtype=bool)
    members[np.repeat(np.arange(r), np.diff(selection.offsets)), selection.items] = True
    members.setflags(write=False)
    return members


def _cell(
    root: Stream,
    trials: range,
    n: int,
    beta: float,
    p: float,
    r: int,
    selection_kind: str,
    estimator: str = "posest",
    center: Ranking | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run trials ``root.child(t)`` for t in ``trials``, a range of step 1; returns (estimate, center) item arrays.

    Both arrays have one row of n items per trial.  Every experiment is a reduction over these rows.  Trial t draws
    its center from ``child(0)`` (unless one is planted), a bernoulli_random selection from ``child(1)``, its profile
    from ``child(2)`` and its estimate's tie-breaks from ``child(3)``; the compiled block derives these keys from
    ``root.key`` and t itself.  The trials run as arrays, as many at a time as fit in ``core._BLOCK_BYTES`` (one at
    least), and a row depends on its trial index only, never on the range or the block it ran in.
    """
    spec = SelectionSpec(kind=selection_kind, n=n, p=p)
    if r < 1:
        raise InfeasibleSpecError("selection sequences must contain at least one set")
    beta = check_beta(beta)
    planted = None if center is None else np.array(center.items, dtype=np.int64)
    if planted is not None and not np.array_equal(np.sort(planted), np.arange(n)):
        raise ValueError(f"the planted center {center!r} is not a permutation of range({n})")
    if spec.kind == "bernoulli_random":  # the expected items and pairs of the kept sets, and the loop's uniforms
        members, threshold = None, _bernoulli_threshold(spec, r)
        q = spec.inclusion_probability()
        accept = _bernoulli_acceptance(n, q)  # positive once the threshold is known
        items, pairs, draws = r * n * q * (1 - (1 - q) ** (n - 1)) / accept, r * q * q * n * (n - 1) / 2 / accept, r * n
    else:
        members, threshold = _cached_selection(spec.kind, n, p, r), None
        sizes = np.count_nonzero(members, axis=1)
        items, pairs, draws = int(sizes.sum()), int((sizes * (sizes - 1)).sum()) // 2, 0
    radius = None  # the positional estimator needs no window
    if estimator != "posest":
        radius = (pointwise_window if estimator == "ltn" else mle_window)(n, beta, p, r)
    # a trial's peak bytes in a block, on the path that runs it.  Compiled: its wins, 8 per n*n cell, and its estimate
    # and center rows, 16 per item.  numpy: its r*n membership mask and the largest of its phases (the Bernoulli loop,
    # the sampler, the count, the scores and their ordering), by bytes per uniform, item, set, pair and n*n cell
    scores = (9 * n + 80) * n + 64
    phases = (33 * draws, 90 * items + 64 * r, 48 * (items + r) + 16 * pairs + 8 * n * n, 24 * items + 12 * r + scores)
    held = (8 * n + 16) * n if core._row_kernels() is not None else r * n + max(phases)
    # every block runs beside the cell's rows, 16 bytes per item, and the stream keys the numpy path derives, 40 per
    # trial, in what they leave of the budget, and at least half of it where they take more
    room = max(core._BLOCK_BYTES - (16 * n + 40) * len(trials), core._BLOCK_BYTES // 2)
    step = max(1, int(room // held))
    est, pi0 = np.empty((len(trials), n), dtype=np.int64), np.empty((len(trials), n), dtype=np.int64)
    for a in range(0, len(trials), step):
        est[a : a + step], pi0[a : a + step] = _cell_block(
            root.key, trials[a : a + step], n, beta, r, members, threshold, radius, planted
        )[:2]
    return est, pi0


def _block_wins(centers, selection_keys, profile_keys, beta, r, members, threshold) -> np.ndarray:
    """The (T, n, n) pairwise wins of a block's trials, drawn from their (T, n) centers, by the numpy forms.

    Set l of trial t is ``members[l]`` of the shared (r, n) mask or, where ``members`` is None, the l-th Bernoulli set
    of stream ``selection_keys[t]`` under ``threshold``.  Its sample is drawn on its restricted center, the center's
    members in center order, from child l of ``profile_keys[t]``.  The sets of all trials run as one array of CSR
    rows through the selection generator, the sampler and the pair counter.
    """
    T, n = centers.shape
    # memberships in center coordinates: column k is the trial's k-th center item
    if members is None:
        in_center = np.take_along_axis(_bernoulli_members(selection_keys, n, r, threshold)[0], centers[:, None, :], axis=2)
    else:
        in_center = members[:, centers].transpose(1, 0, 2)
    # row t * r + l holds trial t's set l as its restricted center: the members in center order, in item labels
    row, k = np.nonzero(in_center.reshape(-1, n))
    offsets = np.searchsorted(row, np.arange(T * r + 1))
    samples = _sample_rows(child_key_grid(profile_keys, range(r)).ravel(), offsets, centers[row // r, k], beta)
    return _pair_counts(n, offsets, samples, groups=T)


def _cell_block(root_key, trials, n, beta, r, members, threshold, radius, planted) -> tuple[np.ndarray, ...]:
    """The (estimate, center) rows and the (T, n, n) wins of trials ``Stream(root_key).child(t)``, t in the step-1 range
    ``trials``, by one compiled call, which derives their keys itself, or by the numpy forms; see :func:`_cell`."""
    T, kernels = len(trials), core._row_kernels()
    if trials.step != 1 or trials.start < 0 or (planted is not None and planted.shape != (n,)):
        raise ValueError(f"{trials!r} must count trials from 0 up in steps of 1, with a planted center of {n} items")
    if kernels is None:  # per trial: center, selection, profile and tie-break keys
        sub = child_key_grid(child_key_grid(np.array([root_key], dtype=np.uint64), np.asarray(trials))[0], range(4))
        centers = permutation_rows(sub[:, 0], n) if planted is None else np.tile(planted, (T, 1))
        wins = _block_wins(centers, sub[:, 1], sub[:, 2], beta, r, members, threshold)
        est = _order_by_scores(_beaten_by(wins), sub[:, 3])
    else:
        if members is not None and members.shape != (r, n):
            raise ValueError(f"the membership mask must have shape ({r}, {n}), got {members.shape}")
        est, centers, wins = np.empty((T, n), np.int64), np.empty((T, n), np.int64), np.zeros((T, n, n), np.int64)
        (cum, scaled), work = _insertion_weights(beta, n), np.empty(3 * n + 1, dtype=np.int64)
        planted = None if planted is None else np.ascontiguousarray(planted, np.int64)
        mask = None if members is None else np.ascontiguousarray(members, np.bool_)
        failed = kernels.cell_block(
            T, n, r, root_key, trials.start, None if planted is None else planted.ctypes.data,
            None if mask is None else mask.ctypes.data, int(threshold or 0), cum.ctypes.data, scaled.ctypes.data,
            work.ctypes.data, centers.ctypes.data, wins.ctypes.data, est.ctypes.data,
        )
        if failed:
            raise IndexError(f"the planted center holds an item outside [0, {n})")
    if radius is not None:  # the windowed DP refines each anchor trial by trial
        for t in range(T):
            est[t] = _recover_from_counts(PairwiseCounts(wins[t]), radius, est[t])[0]
    return est, centers, wins


def _prefix_matches(est: np.ndarray, pi0: np.ndarray, k: int) -> int:
    """Number of trials whose estimate agrees with the center on the first k positions."""
    return int((est[:, :k] == pi0[:, :k]).all(axis=1).sum())


def estimate_success_rate(
    n: int,
    beta: float,
    p: float,
    r: int,
    trials: int,
    selection_kind: str,
    stream: Stream,
    estimator: str = "posest",
    match: str = "exact",
    k: int | None = None,
) -> float:
    """Fraction of trials whose estimate matches the (fresh random) center.

    ``match`` is "exact" for full recovery or "topk" (with k) for
    agreement of the identities and order of the first k alternatives.
    """
    if r < 1:
        raise ValueError("profile size r must be at least 1")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if match not in ("exact", "topk"):
        raise ValueError("match must be 'exact' or 'topk'")
    if match == "topk" and not (k and 1 <= k <= n):
        raise ValueError("topk matching requires 1 <= k <= n")
    est, pi0 = _cell(stream, range(trials), n, beta, p, r, selection_kind, estimator)
    return _prefix_matches(est, pi0, n if match == "exact" else k) / trials


def binary_search_complexity(
    n: int,
    beta: float,
    p: float,
    target_success: float,
    trials: int,
    selection_kind: str,
    stream: Stream,
    max_r: int = 4096,
    estimator: str = "posest",
    match: str = "exact",
    k: int | None = None,
) -> int:
    """Smallest bracketed profile size whose empirical success meets the target.

    Doubles r from 1 until a probe succeeds, then bisects.  Every probe at
    a given r reuses the substream keyed by r, so a search is internally
    deterministic; dispersion comes from running independent searches.
    """

    def probe(r: int) -> float:
        return estimate_success_rate(
            n, beta, p, r, trials, selection_kind, stream.child(r), estimator, match, k
        )

    r = 1
    while probe(r) < target_success:
        r *= 2
        if r > max_r:
            raise SearchCapError(
                f"no profile size up to the cap of {max_r} reached success {target_success}"
            )
    hi, lo = r, r // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) >= target_success:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class Report:
    """An experiment's result: its CSV header and rows, the settings echoed above them, and its plot, if it has one.

    ``plot`` holds the arguments of :func:`plotting.line_plot_svg`: the (label, xs, ys) series, title, x and y labels.
    """

    header: str
    rows: tuple[tuple, ...]
    metadata: dict
    plot: tuple | None = None

    def to_csv(self) -> str:
        """``# key=value`` metadata lines, the column header, then one line per row."""
        lines = [f"# {key}={_fmt(value)}" for key, value in self.metadata.items()]
        lines.append(self.header)
        lines.extend(",".join(_fmt(v) for v in row) for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_svg(self) -> str:
        return plotting.line_plot_svg(*self.plot)  # read from the module at each call, as a wrapper set there expects


def _fmt(x) -> str:
    if isinstance(x, tuple):  # a setting of several values, such as the p values, as one field
        return "|".join(_fmt(v) for v in x)
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _map_tasks(fn, tasks: list[tuple], threads: int) -> list:
    """``[fn(*task) for task in tasks]``, spread over at most ``threads`` worker processes.

    Workers are capped at the task count and the core count, because every
    worker of a pool is started at its first submit.
    """
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(tasks) // (workers * 4))
        return list(pool.map(fn, *zip(*tasks), chunksize=chunk))


def run_complexity_experiment(config: ExperimentConfig, threads: int = 1) -> Report:
    """Average binary-search sample-complexity estimates per frequency p."""
    root = Stream.from_seed(config.seed)
    tasks = [
        (config.n, config.beta, p, config.target_success, config.trials_per_point, config.selection_kind,
         root.child(_EXP_COMPLEXITY, p_idx, s), config.max_r, config.estimator)
        for p_idx, p in enumerate(config.p_values)
        for s in range(config.searches)
    ]
    results = _map_tasks(binary_search_complexity, tasks, threads)
    rows = []
    for p_idx, p in enumerate(config.p_values):
        rs = np.array(results[p_idx * config.searches : (p_idx + 1) * config.searches], dtype=np.float64)
        rows.append((p, 1.0 / p, float(rs.mean()), float(rs.std()), config.searches, config.trials_per_point))
    rows.sort(key=lambda row: -row[0])
    plot = (
        [("mean r*", [row[1] for row in rows], [row[2] for row in rows])],
        f"Estimated sample complexity, n={config.n}, beta={_fmt(config.beta)}",
        "1/p (inverse frequency parameter)",
        f"profile size for {_fmt(config.target_success)} success",
    )
    return Report("p,inv_p,mean_r_star,std_r_star,searches,trials", tuple(rows), config.metadata(), plot)


def distance_cell(config: ExperimentConfig, p_idx: int, r: int) -> np.ndarray:
    """Per-trial distances for one (p, r) cell of the distance experiment."""
    root = Stream.from_seed(config.seed).child(_EXP_DISTANCE, p_idx, r)
    est, pi0 = _cell(
        root, range(config.trials_per_point), config.n, config.beta, config.p_values[p_idx], r,
        config.selection_kind, config.estimator,
    )
    # Kendall tau per trial: the inversions of the estimate's items at their center positions
    at = np.take_along_axis(np.argsort(pi0, axis=1), est, axis=1)
    return _discordances(np.arange(len(at) + 1) * config.n, at.ravel())


def run_distance_experiment(config: ExperimentConfig, threads: int = 1) -> Report:
    """Mean Kendall tau distance between estimate and center over the r grid."""
    if not config.r_grid:
        raise ValueError("distance experiment requires a nonempty r_grid")
    tasks = [(config, p_idx, r) for p_idx in range(len(config.p_values)) for r in config.r_grid]
    distances = [d.astype(np.float64) for d in _map_tasks(distance_cell, tasks, threads)]
    rows = tuple(
        (config.p_values[p_idx], r, float(d.mean()), float(d.std()), config.trials_per_point)
        for (_, p_idx, r), d in zip(tasks, distances)
    )
    xs, width = [float(r) for r in config.r_grid], len(config.r_grid)
    plot = (
        [(f"p={_fmt(p)}", xs, [row[2] for row in rows[i * width : (i + 1) * width]])
         for i, p in enumerate(config.p_values)],
        f"Average Kendall tau distance to the center, n={config.n}, beta={_fmt(config.beta)}",
        "profile size r",
        "mean Kendall tau distance",
    )
    return Report("p,r,mean_kt,std_kt,trials", rows, config.metadata(), plot)


def run_topk_experiment(config: ExperimentConfig, threads: int = 1) -> Report:
    """Top-k vs full recovery rates side by side over the r grid."""
    if not config.r_grid:
        raise ValueError("top-k experiment requires a nonempty r_grid")
    if not (config.k and 1 <= config.k <= config.n):
        raise ValueError("top-k experiment requires 1 <= k <= n")
    if len(config.p_values) != 1:
        raise ValueError(f"top-k experiment takes one p value, got {len(config.p_values)}")
    trials = config.trials_per_point
    root = Stream.from_seed(config.seed)
    tasks = [
        (root.child(_EXP_TOPK, r), range(trials), config.n, config.beta, config.p_values[0], r,
         config.selection_kind, config.estimator)
        for r in config.r_grid
    ]
    rows = tuple(
        (config.k, r, _prefix_matches(est, pi0, config.k) / trials, _prefix_matches(est, pi0, config.n) / trials, trials)
        for r, (est, pi0) in zip(config.r_grid, _map_tasks(_cell, tasks, threads))
    )
    xs = [float(r) for r in config.r_grid]
    plot = (
        [(f"top-{config.k} recovery", xs, [row[2] for row in rows]), ("full recovery", xs, [row[3] for row in rows])],
        f"Top-k vs full recovery, n={config.n}, beta={_fmt(config.beta)}",
        "profile size r",
        "success rate",
    )
    return Report("k,r,topk_success,full_success,trials", rows, config.metadata(), plot)


def run_adversarial_demo(
    n: int,
    beta: float,
    p: float,
    r: int,
    trials: int,
    seed: int = 0,
    threads: int = 1,
) -> Report:
    """Failure rate of the positional estimator on the starved matching sequence.

    The adversarial regime plants the center so the starved matching's
    pairs sit adjacent (the identity ranking), maximizing each pair's swap
    probability; the benign regime runs the standard protocol on the mixed
    p-frequent sequence at the same (p, r).
    """
    SelectionSpec(kind="adversarial_matching", n=n, p=p)  # refuses n and p before any other check
    if n % 2 != 0:
        raise ValueError("the matching construction requires an even number of alternatives")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    regimes = (
        ("adversarial", "adversarial_matching", Ranking.identity(n)),
        ("mixed", "mixed_pfrequent", None),
    )
    root = Stream.from_seed(seed)
    # each regime is one cell, split into no more trial ranges than there are workers to run them
    parts = max(1, min(threads, os.cpu_count() or 1, trials))
    ranges = [range(trials * k // parts, trials * (k + 1) // parts) for k in range(parts)]
    tasks = [
        (root.child(_EXP_ADVERSARIAL, idx), part, n, beta, p, r, kind, "posest", planted)
        for idx, (_, kind, planted) in enumerate(regimes)
        for part in ranges
    ]
    cells = _map_tasks(_cell, tasks, threads)
    rows = []
    for idx, (regime, _, _) in enumerate(regimes):
        successes = sum(_prefix_matches(est, pi0, n) for est, pi0 in cells[idx * parts : (idx + 1) * parts])
        rows.append((regime, r, (trials - successes) / trials, trials))
    meta = {"n": n, "beta": beta, "p": p, "r": r, "trials": trials, "seed": seed}
    return Report("regime,r,failure_rate,trials", tuple(rows), meta)
