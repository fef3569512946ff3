"""Windowed dynamic-programming maximization of the pairwise-agreement score.

The search space is the set of complete rankings that are R-pointwise
close to an anchor: relabel alternatives so the anchor is the identity,
then every feasible ranking places element e at a position within
[e-R, e+R].  Sweeping positions t = 0..n-1, the only uncertainty at step
t is which elements inside the window [t-R, t+R] are already placed, so a
bitmask over that window is a complete DP state.  Placing element e at
position t gains the wins of e against every not-yet-placed element,
split into an in-window part (subset sums over the mask) and a constant
tail beyond the window (precomputed suffix sums).

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

import numpy as np

from .core import Ranking, SampleProfile, pointwise_distance
from .estimators import (
    PairwiseCounts,
    accumulate_counts,
    log_likelihood,
    positional_estimator_from_counts,
    score,
)
from .rng import Stream


class BudgetExceededError(RuntimeError):
    """The DP state table would exceed the configured budget."""


class BoundaryTouchError(RuntimeError):
    """The window optimum touched the boundary under boundary_policy='error'.

    Carries the (exact, within-window) optimum as ``result`` with its
    ``score`` so callers can still inspect what the truncated search found.
    """

    def __init__(self, message: str, result: "Ranking", score: int):
        super().__init__(message)
        self.result = result
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
        if self.max_states_budget < 2:
            raise ValueError("state budget must admit at least one window bit")


def _states_required(radius: int, n: int) -> int:
    return 1 << min(2 * radius + 1, n)


def _check_budget(radius: int, n: int, budget: int) -> None:
    need = _states_required(radius, n)
    if need > budget:
        raise BudgetExceededError(
            f"window radius {radius} needs {need} states per position, over the budget of {budget}; "
            f"raise max_states_budget to at least {need} or reduce the radius"
        )


def _dp_window_max(wins_rel: np.ndarray, radius: int) -> tuple[list[int], int]:
    """Exact maximizer of the relabeled score over the R-window around identity.

    Returns the optimal placement sequence (relabeled elements by position,
    lexicographically smallest among maximizers) and its score.
    """
    n = wins_rel.shape[0]
    R = min(radius, n - 1)
    if n == 1:
        return [0], 0
    # suf[e, q] = sum_{k >= q} wins_rel[e, k]
    suf = np.zeros((n, n + 1), dtype=np.int64)
    suf[:, :n] = wins_rel[:, ::-1].cumsum(axis=1)[:, ::-1]
    NEG = np.int64(-(1 << 62))

    def bounds(t: int) -> tuple[int, int]:
        return max(0, t - R), min(n - 1, t + R)

    lo_n = max(0, n - R)
    w_n = n - lo_n
    v_next = np.full(1 << w_n, NEG, dtype=np.int64)
    v_next[(1 << w_n) - 1] = np.int64(0)

    choices: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for t in range(n - 1, -1, -1):
        lo, hi = bounds(t)
        w = hi - lo + 1
        lo_nx = max(0, t + 1 - R)
        shift = lo_nx - lo  # 0 or 1
        size = 1 << w
        masks = np.arange(size, dtype=np.int64)
        best = np.full(size, NEG, dtype=np.int64)
        choice = np.zeros(size, dtype=np.uint8)
        for c in range(w - 1, -1, -1):
            e = lo + c
            row = wins_rel[e, lo : hi + 1]
            ss = np.zeros(size, dtype=np.int64)
            for b in range(w):
                v = row[b]
                if v:
                    ss.reshape(-1, 1 << (b + 1))[:, (1 << b) :] += v
            gain = int(suf[e, lo]) - ss
            newmask = masks | (1 << c)
            if shift:
                valid = ((masks >> c) & 1 == 0) & (newmask & 1 == 1)
                nxt = newmask >> 1
            else:
                valid = (masks >> c) & 1 == 0
                nxt = newmask
            cand = gain + v_next[nxt]
            upd = valid & (cand >= best)
            best[upd] = cand[upd]
            choice[upd] = c
        choices[t] = choice
        v_next = best

    total = int(v_next[0])  # state before step 0: empty mask
    # forward walk choosing the stored (smallest) optimal element per state
    seq: list[int] = []
    mask = 0
    for t in range(n):
        lo, hi = bounds(t)
        c = int(choices[t][mask])
        assert (mask >> c) & 1 == 0
        seq.append(lo + c)
        mask |= 1 << c
        if max(0, t + 1 - R) > lo:
            assert mask & 1
            mask >>= 1
    return seq, total


def _dp_once(counts: PairwiseCounts, anchor: Ranking, radius: int) -> tuple[Ranking, int]:
    n = counts.n
    items = np.fromiter(anchor.items, dtype=np.int64, count=n)
    wins_rel = counts.wins[np.ix_(items, items)]
    seq, total = _dp_window_max(wins_rel, radius)
    result = Ranking((anchor.items[e] for e in seq), validate=False)
    achieved = score(result, counts)
    assert achieved == total, "DP value table disagrees with recomputed score"
    return result, achieved


def _touches_boundary(result: Ranking, anchor: Ranking, radius: int) -> bool:
    n = len(anchor)
    if radius == 0 or radius >= n - 1:
        # radius 0 is an explicit request for the anchor; at n-1 the feasible
        # set is all of S_n, so no truncation is possible
        return False
    return pointwise_distance(result, anchor) == radius


def _maximize_with_widening(
    counts: PairwiseCounts, anchor: Ranking, radius: int, budget: int
) -> tuple[Ranking, int, int, int]:
    """Run the DP, doubling the radius while the optimum touches the boundary."""
    n = counts.n
    radius = min(radius, n - 1)
    widenings = 0
    while True:
        _check_budget(radius, n, budget)
        result, achieved = _dp_once(counts, anchor, radius)
        if not _touches_boundary(result, anchor, radius):
            return result, achieved, radius, widenings
        radius = min(2 * radius, n - 1)
        widenings += 1


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
    _check_budget(min(config.radius, n - 1), n, config.max_states_budget)
    if config.boundary_policy == "widen":
        result, _, _, _ = _maximize_with_widening(counts, config.anchor, config.radius, config.max_states_budget)
        return result
    result, achieved = _dp_once(counts, config.anchor, min(config.radius, n - 1))
    if _touches_boundary(result, config.anchor, min(config.radius, n - 1)):
        raise BoundaryTouchError(
            f"window optimum touches the radius-{config.radius} boundary; "
            "the window may be truncating the true optimum (widen or raise the radius)",
            result,
            achieved,
        )
    return result


def pointwise_window(n: int, beta: float, p: float, r: int, alpha: float = 1.0) -> int:
    """Radius within which the positional estimate traps the center whp.

    The theory pins only the shape (beta^2+1)/(beta^3 p^2 r) * log n, so the
    constant is taken as 1; the widening policy makes the pipeline
    self-certifying regardless of its value.
    """
    if beta <= 0 or not (0 < p <= 1) or r < 1:
        raise ValueError("need beta > 0, p in (0,1], r >= 1")
    raw = (beta * beta + 1.0) / (beta**3 * p * p * r) * math.log(n * (2.0 + alpha))
    return max(1, math.ceil(raw))


def mle_window(n: int, beta: float, p: float, r: int, alpha: float = 1.0) -> int:
    """Enlarged radius that also traps the global score maximizer whp."""
    if beta <= 0 or not (0 < p <= 1) or r < 1:
        raise ValueError("need beta > 0, p in (0,1], r >= 1")
    extra = 1.0 / (beta * p**3) + math.log(n * (2.0 + alpha)) / (beta * p**4 * r)
    return pointwise_window(n, beta, p, r, alpha) + max(1, math.ceil(extra))


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


def _recover(profile: SampleProfile, beta: float, radius: int, budget: int, stream: Stream, mode: str) -> MleReport:
    counts = accumulate_counts(profile)
    anchor = positional_estimator_from_counts(counts, stream).ranking
    n = counts.n
    if 2 * radius + 1 >= n:
        # the windowed table is already as large as the unconstrained one,
        # so search all of S_n: same cost, strictly safer
        radius = n - 1
    try:
        result, achieved, used, widenings = _maximize_with_widening(counts, anchor, radius, budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(f"{exc}; a larger sample profile shrinks the required window") from None
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
