"""Pairwise-count accumulation, the positional estimator, and likelihood scoring.

A profile's counts, ``PairwiseCounts``, hold one matrix: wins[i][j], the
samples in which i precedes j; the appearances are ``wins + wins.T``.
The positional estimator ranks alternative i by the number of opponents j
that precede i in at least half of the samples where both appear.  For
integer counts that majority test, ``2 * wins[j][i] >= wins[i][j] +
wins[j][i]``, is ``wins[j][i] >= wins[i][j]``, so the scores read ``wins``
alone.  A tie increments both sides: an exact half split, and a pair that
never co-appears, which encodes total ignorance.  Ties in the
resulting scores are broken uniformly at random by one array routine that
serves one profile and a numpy block of experiment trials alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import Ranking, SampleProfile, _discordances, _pair_counts, _triu_pairs, check_beta, log_partition_function
from .rng import Stream, draw_matrix, shuffle_runs


@dataclass(frozen=True)
class PairwiseCounts:
    """Per-ordered-pair tallies of a profile: wins[i][j] counts the samples where i precedes j (zero diagonal)."""

    wins: np.ndarray

    @property
    def n(self) -> int:
        return self.wins.shape[0]

    @property
    def appear(self) -> np.ndarray:
        """appear[i][j] counts the samples holding both i and j (symmetric, zero diagonal)."""
        return self.wins + self.wins.T


def accumulate_counts(profile: SampleProfile) -> PairwiseCounts:
    """Tally precedences in one pass over the profile's ranking rows."""
    return PairwiseCounts(_pair_counts(profile.n, profile.offsets, profile.rank_items)[0])


def _beaten_by(wins: np.ndarray) -> np.ndarray:
    """Opponents j != i with ``wins[j, i] >= wins[i, j]``, for every i of every trailing (n, n) block."""
    return (np.swapaxes(wins, -1, -2) >= wins).sum(axis=-1) - 1  # j = i always passes


@dataclass(frozen=True)
class PosEstResult:
    """Output of the positional estimator; its tie and coverage diagnostics are derived from ``wins`` on first read."""

    ranking: Ranking
    raw_scores: tuple[int, ...]
    wins: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def tie_groups(self) -> tuple[tuple[int, ...], ...]:
        raw = np.array(self.raw_scores)
        return tuple(tuple(np.flatnonzero(raw == s).tolist()) for s in np.flatnonzero(np.bincount(raw) > 1))

    @cached_property
    def zero_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*(a.tolist() for a in np.nonzero(np.triu(self.wins + self.wins.T == 0, 1)))))  # row-major

    @cached_property
    def never_observed(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero((self.wins.sum(axis=0) + self.wins.sum(axis=1)) == 0).tolist())

    def diagnostics(self) -> dict:
        return {
            "tie_groups": [list(g) for g in self.tie_groups],
            "zero_appearance_pairs": [list(p) for p in self.zero_pairs],
            "never_observed": list(self.never_observed),
        }


def positional_estimator(profile: SampleProfile, stream: Stream) -> PosEstResult:
    """Rank alternatives by majority-defeat counts, ties uniformly at random.

    An alternative that never appears in the profile loses every ignorance
    comparison, lands at raw score n-1, and is flagged in the result.
    """
    if len(profile) == 0:
        raise ValueError("positional estimator requires a nonempty profile")
    return positional_estimator_from_counts(accumulate_counts(profile), stream)


def positional_estimator_from_counts(counts: PairwiseCounts, stream: Stream) -> PosEstResult:
    raw = _beaten_by(counts.wins)
    order = _order_by_scores(raw[None], np.array([stream.key], dtype=np.uint64), stream._ctr)[0]
    stream._ctr += counts.n - np.count_nonzero(np.bincount(raw))  # a tie group of size s took s-1 draws
    return PosEstResult(Ranking(order.tolist(), validate=False), tuple(raw.tolist()), counts.wins)


def _order_by_scores(raw: np.ndarray, keys: np.ndarray, start=0) -> np.ndarray:
    """Each row of the (T, n) scores ``raw`` as alternatives by ascending score, ties shuffled from the row's stream.

    Row t equals a Fisher-Yates shuffle of each tie group in score order from the draws of ``Stream(keys[t], start)``:
    a group of size s takes s-1 draws after those of the groups before it.  ``rng.shuffle_runs`` shuffles the groups
    of every row at once, in chunks by size, largest first, so padding at most doubles a chunk's steps.
    """
    T, n = raw.shape
    order = np.argsort(raw, axis=1, kind="stable")
    ranked = np.take_along_axis(raw, order, axis=1)
    first = np.diff(ranked, axis=1, prepend=ranked[:, :1] - 1) != 0
    if first.all():  # no tie group: the draws are counter-based, so skipping them changes nothing after
        return order
    # each group: its flat position in ``order``, its size and the draws of its row's groups before it
    head = np.flatnonzero(first)
    size, before = np.diff(head, append=T * n), np.cumsum(~first, axis=1).ravel()[head]
    u, tied = draw_matrix(keys, n - 1, start), np.flatnonzero(size > 1)
    while tied.size:  # the groups over half the largest left, whose padding at most doubles their steps
        top = size[tied].max()
        g, tied = tied[2 * size[tied] > top], tied[2 * size[tied] <= top]
        draws = u[head[g, None] // n, np.minimum(before[g, None] + np.arange(top - 1), n - 2)]
        shuffle_runs(order.ravel(), head[g], size[g], draws)
    return order


def score(pi: Ranking, counts: PairwiseCounts) -> int:
    """Total pairwise agreements between ``pi`` and the tallied samples.

    Sum over ordered pairs (i, j) with i before j in ``pi`` of wins[i][j].
    Maximizing this over complete rankings is equivalent to maximizing the
    profile likelihood at any spread parameter.
    """
    return int(score_permutation_array(np.array([pi.items], dtype=np.int64), counts)[0])


def score_permutation_array(perms: np.ndarray, counts: PairwiseCounts) -> np.ndarray:
    """Scores of many complete rankings at once; perms has shape (k, n)."""
    k, n = perms.shape
    a, b = _triu_pairs(n)
    return counts.wins[perms[:, a], perms[:, b]].sum(axis=1)


def log_likelihood(pi: Ranking, profile: SampleProfile, beta: float) -> float:
    """Log-probability of the profile under center ``pi`` and spread ``beta``, summed in sample order, each set size's
    log normalizer looked up once (``np.subtract.accumulate`` gives the same bits, but slower on small profiles)."""
    beta = check_beta(beta)
    n = profile.n
    at = np.full(n, -1, dtype=np.int64)  # at[i]: the position of item i in pi, or -1
    for t, x in enumerate(pi.items):
        if 0 <= x < n:
            at[x] = t
    if (at < 0).any():  # a ranking of every item leaves none of the profile's out
        seen = np.zeros(n, dtype=bool)
        seen[profile.rank_items] = True
        missing = np.flatnonzero(seen & (at < 0)).tolist()
        if missing:
            raise ValueError(f"profile contains alternatives not in the ranking: {missing}")
    # a sample's distance to pi: its pairs that pi orders the other way, the inversions of its positions in pi
    discordant, sizes = _discordances(profile.offsets, profile.rank_items, at).tolist(), np.diff(profile.offsets).tolist()
    log_z = {m: log_partition_function(m, beta) for m in set(sizes)}
    total = 0.0
    for d, m in zip(discordant, sizes):
        total -= beta * d
        total -= log_z[m]
    return total


def top_k(pi: Ranking, k: int) -> Ranking:
    """The length-k prefix of a complete ranking."""
    if not 1 <= k <= len(pi.items):
        raise ValueError(f"k must lie in [1, {len(pi.items)}], got {k}")
    return Ranking(pi.items[:k], validate=False)
