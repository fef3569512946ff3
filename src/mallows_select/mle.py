"""Windowed dynamic-programming maximization of the pairwise-agreement score.

The search space is the set of complete rankings that are R-pointwise
close to an anchor: relabel alternatives so the anchor is the identity,
then every feasible ranking places element e at a position within
[e-R, e+R].  Sweeping positions t = 0..n-1, the only uncertainty at step
t is which elements inside the window [lo, hi] = [t-R, t+R] are already
placed.  Every element below lo is, and element t+R cannot be, so the
state is a fixed-popcount mask: t-lo bits set, the top one clear when
hi = t+R.  Placing element e at position t gains the wins of e against
every not-yet-placed element: a subset sum over the mask plus a suffix
sum beyond the window.

Where the C row kernels of ``core`` load, the whole DP runs in C
(``window_dp`` in ``_rows.c``), in buffers that each call allocates
through numpy, so nothing is held between calls.  Elsewhere the numpy
form runs, with the same sequence and score: one vectorised step per
position over its sorted masks (one product for all subset sums, a rank
lookup for each successor, a row-wise argmax).  Its masks and move tables
depend on the window's shape alone, so a call builds each shape's once,
for the run of positions that share it, and frees the last shape's move
tables before building the next: it too holds nothing between calls.

The DP is exact on its feasible set.  A maximizer that touches the window
boundary signals that the window may be truncating the true optimum; the
boundary policy either raises or doubles R and reruns.  Interior optima
are reported as-is: they are exact for the stated feasible set, and the
recovery pipelines choose R so the target lies inside with high
probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import core
from .core import Ranking, SampleProfile, check_beta
from .estimators import (
    PairwiseCounts,
    _beaten_by,
    _order_by_scores,
    accumulate_counts,
    log_likelihood,
    score_permutation_array,
)
from .rng import Stream


class BudgetExceededError(RuntimeError):
    """The DP state table would exceed the configured budget."""


class BoundaryTouchError(RuntimeError):
    """The window optimum touched the boundary under boundary_policy='error'.

    Carries the (exact, within-window) optimum as ``result`` with its
    ``score`` so callers can still inspect what the truncated search found.
    """

    def __init__(self, message: str, result: np.ndarray, score: int):
        super().__init__(message)
        self.result = Ranking(result.tolist(), validate=False)
        self.score = score


@dataclass(frozen=True)
class DpConfig:
    """Window radius, anchor, state budget, and boundary policy for the DP."""

    radius: int
    anchor: Ranking
    max_states_budget: int = 1 << 22
    boundary_policy: str = "error"

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("window radius must be nonnegative")
        if self.boundary_policy not in ("error", "widen"):
            raise ValueError("boundary_policy must be 'error' or 'widen'")
        _check_dp_settings(self.max_states_budget, None)


def _check_dp_settings(budget: int, radius_override: int | None) -> None:
    """Refuse, before any work, a state budget that no window meets (radius 0 needs 2 states) or a negative radius."""
    if budget < 2:
        raise ValueError("state budget must admit at least one window bit")
    if radius_override is not None and not radius_override >= 0:
        raise ValueError(f"radius_override must be nonnegative, got {radius_override}")


# multiply-adds in one block of a step's subset-sum product: BLAS runs a
# product this small on the calling thread, so the DP stays single-threaded
_STEP_BLOCK = 1 << 18


def _popcount_masks(width: int, k: int) -> np.ndarray:
    """Ascending ``width``-bit masks with exactly ``k`` bits set, built bit by bit: no 2^width table."""
    rows = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * k  # masks over the bits so far, by popcount
    for b in range(width):  # masks without bit b stay ahead of those with it, so each row stays ascending
        for j in range(min(k, b + 1), max(1, k - (width - 1 - b)) - 1, -1):  # falling: rows[j - 1] is still old
            rows[j] = np.concatenate((rows[j], rows[j - 1] | (1 << b)))
    return rows[k]


def _moves(m: np.ndarray, m_next: np.ndarray, w: int, shift: int) -> tuple[np.ndarray, np.ndarray]:
    """``(placed, nxt)`` of a window shape: states ``m`` of width ``w``, next states ``m_next``.

    ``placed[s, c]`` is 1.0 when state s has slot c placed.  ``nxt[s, c]`` is the state that placing slot c
    reaches, or ``len(m_next)`` when that is illegal (c is placed, or the window slides and slot 0 stays free).
    """
    bits = 1 << np.arange(w)
    rank = np.zeros(1 << (w - shift), dtype=np.int32)  # a 2^w table that lives for this build only
    rank[m_next] = np.arange(len(m_next))
    placed = m[:, None] & bits != 0
    nxt = rank[(m[:, None] | bits) >> shift]
    nxt[placed | (~placed[:, :1] & (bits > 1) & bool(shift))] = len(m_next)
    return placed.astype(np.float64), nxt


def _windows(n: int, R: int) -> tuple[list, list]:
    """``(bounds, keys)`` of positions t = 0..n: the window [lo, hi] and the (width, popcount) of its masks.

    Every element below lo is placed before t and element t+R cannot be, so the masks of position t are those of
    keys[t], the top bit clear when hi = t+R; position n holds the full mask alone.
    """
    bounds = [(max(0, t - R), min(n - 1, t + R)) for t in range(n + 1)]
    return bounds, [(hi - lo + 1 - (hi == t + R), t - lo) for t, (lo, hi) in enumerate(bounds)]


@lru_cache(maxsize=64)
def _buffer_sizes(n: int, R: int) -> tuple[int, int, int]:
    """The widest mask, the most masks of one position and the masks of positions 0..n-1, sizing the C DP's buffers."""
    keys = _windows(n, R)[1]
    sizes = [math.comb(*key) for key in keys]
    return max(width for width, _ in keys), max(sizes), sum(sizes[:-1])


def _dp_window_max(wins_rel: np.ndarray, radius: int) -> tuple[list[int], int]:
    """Exact maximizer of the relabeled score over the R-window around identity.

    Returns the optimal placement sequence (relabeled elements by position,
    lexicographically smallest among maximizers) and its score.
    """
    n = wins_rel.shape[0]
    R = min(radius, n - 1)
    # every DP value is a sum of wins entries, so float64 (and int64 in C) holds it exactly
    assert radius >= 0 and wins_rel.shape == (n, n) and int(np.abs(wins_rel).sum()) < 1 << 53
    if n == 1:
        return [0], 0
    kernels = core._row_kernels()
    if kernels is not None:  # the same DP in C, in buffers of this call alone: no table is held between calls
        widest, largest, total = _buffer_sizes(n, R)
        wins = np.ascontiguousarray(wins_rel, np.int64)
        base, seq, values = np.empty(n, np.int64), np.empty(n, np.int64), np.empty(2 * largest, np.int64)
        half = np.empty(((1 << widest // 2) + (1 << widest - widest // 2)) * (widest + 1), np.int64)
        rank, choices = np.empty(1 << widest, np.int32), np.empty(total, np.uint8)
        score = kernels.window_dp(n, R, largest, total, wins.ctypes.data, base.ctypes.data, half.ctypes.data,
                                  rank.ctypes.data, values.ctypes.data, choices.ctypes.data, seq.ctypes.data)
        return seq.tolist(), score
    bounds, keys = _windows(n, R)
    wins_t = np.ascontiguousarray(wins_rel.T, dtype=np.float64)
    # suf[e, q] = sum_{k >= q} wins_rel[e, k]
    suf = wins_rel[:, ::-1].cumsum(axis=1)[:, ::-1].astype(np.float64)
    mask_sets = {key: _popcount_masks(*key) for key in set(keys)}
    v_next, choices, shape = np.zeros(1), [None] * n, None
    for t in range(n - 1, -1, -1):
        (lo, hi), m, last = bounds[t], mask_sets[keys[t]], shape
        # shift: the window slides, so slot 0 must be placed now.  A shape recurs at every t in the
        # middle, so its tables serve all those positions
        w, shift = hi - lo + 1, int(t >= R)
        shape = (keys[t], keys[t + 1], w, shift)
        if shape != last:  # the last shape's tables go first: two of all of S_20 take about 44 MB each
            placed = nxt = None
            placed, nxt = _moves(m, mask_sets[keys[t + 1]], w, shift)
        win, suf_lo, v_ext = wins_t[lo : hi + 1, lo : hi + 1], suf[lo : hi + 1, lo], np.append(v_next, -np.inf)
        v_next, choices[t] = np.empty(len(m)), np.empty(len(m), dtype=np.uint8)
        step = max(1, _STEP_BLOCK // (w * w))
        for a in range(0, len(m), step):
            cand = placed[a : a + step] @ win  # [s, c]: the wins of element lo+c over the elements placed in s
            np.subtract(suf_lo, cand, out=cand)
            cand += v_ext.take(nxt[a : a + step], mode="clip")  # in range; unlike [], fast on int32 indices
            choice = cand.argmax(axis=1)  # the first maximum: the smallest c
            v_next[a : a + step] = cand[np.arange(len(choice)), choice]
            choices[t][a : a + step] = choice

    total = int(v_next[0])  # state before step 0: empty mask
    # forward walk choosing the stored (smallest) optimal element per state
    seq: list[int] = []
    mask = 0
    for t in range(n):
        c = int(choices[t][np.searchsorted(mask_sets[keys[t]], mask)])
        assert (mask >> c) & 1 == 0
        seq.append(bounds[t][0] + c)
        mask |= 1 << c
        if t >= R:
            assert mask & 1
            mask >>= 1
    return seq, total


def _maximize_with_widening(
    counts: PairwiseCounts, anchor: np.ndarray, radius: int, budget: int, widen: bool = True
) -> tuple[np.ndarray, int, int, int]:
    """Run the DP around the anchor's items at ``radius``, capped at n - 1: (items, score, radius used, widenings).

    While the optimum touches the window boundary, ``widen`` doubles the
    radius (capped at n - 1) and reruns; without it BoundaryTouchError
    carries the optimum.  Radius 0 is an explicit request for the anchor,
    and at n - 1 the feasible set is all of S_n, so neither can truncate.
    """
    n = counts.n
    wins_rel = counts.wins[np.ix_(anchor, anchor)]
    radius, widenings = min(radius, n - 1), 0
    while True:
        need = 1 << min(2 * radius + 1, n)
        if need > budget:
            raise BudgetExceededError(
                f"window radius {radius} needs {need} states per position, over the budget of {budget}; "
                f"raise max_states_budget to at least {need} or reduce the radius"
            )
        seq, achieved = _dp_window_max(wins_rel, radius)
        result = anchor[seq]
        assert score_permutation_array(result[None], counts)[0] == achieved, "DP value table disagrees with the score"
        # the pointwise distance to the anchor, in anchor coordinates
        if radius in (0, n - 1) or np.abs(np.arange(n) - seq).max() != radius:
            return result, achieved, radius, widenings
        if not widen:
            raise BoundaryTouchError(
                f"window optimum touches the radius-{radius} boundary; "
                "the window may be truncating the true optimum (widen or raise the radius)",
                result,
                achieved,
            )
        radius, widenings = min(2 * radius, n - 1), widenings + 1


def dp_maximize(counts: PairwiseCounts, config: DpConfig) -> Ranking:
    """Exact maximizer of the pairwise-agreement score over the R-window.

    Ties break to the lexicographically smallest placement in
    anchor-relabeled coordinates.  Under boundary_policy='error' a
    maximizer touching the window boundary raises BoundaryTouchError;
    under 'widen' the radius doubles (capped at n-1) until the optimum is
    interior.
    """
    n = counts.n
    if len(config.anchor) != n or not config.anchor.is_complete(n):
        raise ValueError("anchor must be a complete ranking over the counted alternatives")
    anchor, widen = np.array(config.anchor.items, dtype=np.int64), config.boundary_policy == "widen"
    items = _maximize_with_widening(counts, anchor, config.radius, config.max_states_budget, widen)[0]
    return Ranking(items.tolist(), validate=False)


def _window(what: str, beta: float, p: float, r: int, alpha: float, formula) -> int:
    """ceil of a window formula, at least 1, once the inputs and the result are checked."""
    for name, value in (("beta", beta), ("alpha", alpha)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if beta <= 0 or not (0 < p <= 1) or r < 1:
        raise ValueError("need beta > 0, p in (0,1], r >= 1")
    if 2.0 + alpha <= 0:
        raise ValueError(f"alpha must exceed -2, got {alpha}")
    try:  # a power of beta or p that under- or overflows gives a zero division, an infinity or a NaN
        return max(1, math.ceil(formula()))
    except (ZeroDivisionError, OverflowError, ValueError):
        raise ValueError(f"the {what} radius is not finite for beta={beta}, p={p}, r={r}") from None


def pointwise_window(n: int, beta: float, p: float, r: int, alpha: float = 1.0) -> int:
    """Radius within which the positional estimate traps the center whp.

    The theory pins only the shape (beta^2+1)/(beta^3 p^2 r) * log n, so the
    constant is taken as 1; the widening policy makes the pipeline
    self-certifying regardless of its value.
    """
    return _window("pointwise window", beta, p, r, alpha,
                   lambda: (beta * beta + 1.0) / (beta**3 * p * p * r) * math.log(n * (2.0 + alpha)))


def mle_window(n: int, beta: float, p: float, r: int, alpha: float = 1.0) -> int:
    """Enlarged radius that also traps the global score maximizer whp."""
    return pointwise_window(n, beta, p, r, alpha) + _window(
        "maximum-likelihood window", beta, p, r, alpha,
        lambda: 1.0 / (beta * p**3) + math.log(n * (2.0 + alpha)) / (beta * p**4 * r))


@dataclass(frozen=True)
class MleReport:
    """Recovery outcome: the ranking, the window that produced it, and its fit."""

    result: Ranking
    mode: str  # "likelier_than_nature" | "maximum_likelihood"
    score_achieved: int
    window_used: int
    widenings: int
    log_likelihood: float

    def as_dict(self) -> dict:
        return {
            "ranking": list(self.result.items),
            "mode": self.mode,
            "score": self.score_achieved,
            "window_used": self.window_used,
            "widenings": self.widenings,
            "log_likelihood": self.log_likelihood,
        }


def _recover_from_counts(
    counts: PairwiseCounts, radius: int, anchor: np.ndarray, budget: int = 1 << 22
) -> tuple[np.ndarray, int, int, int]:
    """Run the widening DP around the anchor's items; returns (items, score, window used, widenings)."""
    n = counts.n
    if 2 * radius + 1 >= n:
        # the window already holds the 2^n masks per position of the unconstrained
        # search under the budget rule, so search all of S_n: strictly safer
        radius = n - 1
    try:
        return _maximize_with_widening(counts, anchor, radius, budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{exc}; a larger sample profile shrinks the required window") from None


def _recover(profile: SampleProfile, beta: float, radius: int, budget: int, stream: Stream, mode: str) -> MleReport:
    """Anchor on the positional estimate, ties broken from ``stream``, and run the widening DP around it."""
    _check_dp_settings(budget, radius)
    beta = check_beta(beta)
    counts = accumulate_counts(profile)
    anchor = _order_by_scores(_beaten_by(counts.wins)[None], np.array([stream.key], np.uint64), stream._ctr)[0]
    items, achieved, used, widenings = _recover_from_counts(counts, radius, anchor, budget)
    result = Ranking(items.tolist(), validate=False)
    return MleReport(
        result=result,
        mode=mode,
        score_achieved=achieved,
        window_used=used,
        widenings=widenings,
        log_likelihood=log_likelihood(result, profile, beta),
    )


def recover_likelier_than_nature(
    profile: SampleProfile,
    beta: float,
    p: float,
    alpha: float = 1.0,
    *,
    stream: Stream,
    budget: int = 1 << 22,
    radius_override: int | None = None,
) -> MleReport:
    """Anchor on the positional estimate and maximize over its trap window.

    Whenever the true center lies inside the final window, the result is
    at least as likely as the center.  ``stream`` breaks the anchor's score ties.
    """
    radius = radius_override if radius_override is not None else pointwise_window(profile.n, beta, p, len(profile), alpha)
    return _recover(profile, beta, radius, budget, stream, "likelier_than_nature")


def recover_mle(
    profile: SampleProfile,
    beta: float,
    p: float,
    alpha: float = 1.0,
    *,
    stream: Stream,
    budget: int = 1 << 22,
    radius_override: int | None = None,
) -> MleReport:
    """Same pipeline with the enlarged window that traps the global maximizer."""
    radius = radius_override if radius_override is not None else mle_window(profile.n, beta, p, len(profile), alpha)
    return _recover(profile, beta, radius, budget, stream, "maximum_likelihood")
