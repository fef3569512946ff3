"""Independent oracles and generators shared across the test suite.

Everything here deliberately avoids the library's optimized code paths:
distances by quadratic pair scans, maximizers by exhaustive enumeration
or a DP over every window mask, counts by a second bookkeeping pass.  The closed forms and statistics
helpers at the end (exact pmf, two-item success, line fit, bootstrap
bound) serve only the tests, so they live here rather than in the package.
"""

from __future__ import annotations

import itertools
import math
import shutil
from functools import lru_cache

import numpy as np
import pytest

from mallows_select import core, sampling
from mallows_select.core import (
    MallowsParams,
    Ranking,
    SampleProfile,
    SelectionSequence,
    kendall_tau_incomplete,
    log_partition_function,
    restrict,
)
from mallows_select.estimators import (
    PairwiseCounts,
    accumulate_counts,
    positional_estimator,
    score,
    score_permutation_array,
)
from mallows_select.fileio import FileFormatError, _err, _parse_header
from mallows_select.mle import recover_likelier_than_nature, recover_mle
from mallows_select.rng import _GAMMA, _MASK, _MIX1, _MIX2, Stream, draw_matrix, mix64_array
from mallows_select.sampling import SelectionSpec, generate_selection, sample_profile


needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on the path")


def row_kernel_paths(patch, split: bool = False):
    """Set each path of the core row kernels in turn through the MonkeyPatch ``patch``, yielding after each.

    The compiled kernels (the numpy ones where they did not load), then the numpy ones; with ``split``, also the
    numpy ones under a working budget of 50 bytes, which splits the trial blocks, sampler chunks and pair blocks of
    every small profile and cell.
    """
    compiled, numpy, whole = core._row_kernels, lambda: None, core._BLOCK_BYTES
    compiled()  # loaded before a test measures anything
    for kernels, block_bytes in ((compiled, whole), (numpy, whole), (numpy, 50))[: 3 if split else 2]:
        patch.setattr(core, "_row_kernels", kernels)
        patch.setattr(core, "_BLOCK_BYTES", block_bytes)
        yield


def appearance_beaten_by(wins: np.ndarray) -> np.ndarray:
    """Opponents j != i with ``2 * wins[j, i] >= appear[i, j]``, for every i of every trailing (n, n) block.

    The majority test as the paper states it, on the appearances ``wins + wins.T``: the reference of
    ``estimators._beaten_by``.
    """
    beaten = 2 * np.swapaxes(wins, -1, -2) >= wins + np.swapaxes(wins, -1, -2)
    return beaten.sum(axis=-1) - np.diagonal(beaten, axis1=-2, axis2=-1)


def mix64(z: int) -> int:
    """The splitmix64 finalizer on one 64-bit integer: the reference form of ``rng.mix64_array``."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def fold(key: int, element: int) -> int:
    """The key of ``Stream(key).child(element)`` by scalar mixes: the reference form of ``Stream.child``."""
    if element < 0:
        raise ValueError("stream path elements must be nonnegative integers")
    return mix64(key ^ mix64((element + _GAMMA) & _MASK))


def seed_key(seed: int) -> int:
    """The key of ``Stream.from_seed(seed)`` by one scalar mix: its reference form."""
    return mix64((seed ^ _MIX2) & _MASK)


def u64(stream: Stream) -> int:
    """The stream's next 64-bit uniform, one scalar draw: the reference form of ``rng.draw_matrix``."""
    stream._ctr += 1
    return mix64((stream.key + stream._ctr * _GAMMA) & _MASK)


def below(stream: Stream, n: int) -> int:
    """Uniform integer in [0, n) from the stream's next draw by the 128-bit multiply-shift method."""
    if n <= 0:
        raise ValueError("bound must be positive")
    return (u64(stream) * n) >> 64


def shuffle(stream: Stream, items: list) -> None:
    """In-place Fisher-Yates shuffle, one :func:`below` per step: the reference form of ``rng.permutation_rows``."""
    for i in range(len(items) - 1, 0, -1):
        j = below(stream, i + 1)
        items[i], items[j] = items[j], items[i]


def scalar_permutation(stream: Stream, n: int) -> tuple[int, ...]:
    """The reference form of ``Stream.permutation``: :func:`shuffle` of ``list(range(n))``."""
    items = list(range(n))
    shuffle(stream, items)
    return tuple(items)


def validate_counts(counts: PairwiseCounts) -> None:
    """The invariants of a count matrix: square, with a zero diagonal."""
    assert counts.wins.shape == (counts.n, counts.n)
    assert (np.diag(counts.wins) == 0).all()


def u64_array(stream: Stream, count: int) -> np.ndarray:
    """The next ``count`` 64-bit uniforms of ``stream`` as a uint64 array: ``count`` calls of :func:`u64`."""
    ctr = np.arange(stream._ctr + 1, stream._ctr + count + 1, dtype=np.uint64)
    stream._ctr += count
    return mix64_array(np.uint64(stream.key) + ctr * np.uint64(_GAMMA))


def uniform(stream: Stream) -> float:
    """A float in [0, 1) from the stream's next draw; for statistics only, never for sampling decisions."""
    return u64(stream) / 18446744073709551616.0


def pair_scan_kendall(a: Ranking, b: Ranking) -> int:
    """O(m^2) discordant-pair count."""
    pos_a, pos_b = a.positions, b.positions
    items = list(a.items)
    count = 0
    for x_idx in range(len(items)):
        for y_idx in range(x_idx + 1, len(items)):
            x, y = items[x_idx], items[y_idx]
            if (pos_a[x] - pos_a[y]) * (pos_b[x] - pos_b[y]) < 0:
                count += 1
    return count


def recount_pairwise(profile: SampleProfile) -> tuple[np.ndarray, np.ndarray]:
    """Independent O(r * n^2) tally of appearances and precedences."""
    n = profile.n
    appear = np.zeros((n, n), dtype=np.int64)
    wins = np.zeros((n, n), dtype=np.int64)
    for rk in profile.rankings:
        pos = rk.positions
        present = list(rk.items)
        for i in present:
            for j in present:
                if i == j:
                    continue
                appear[i, j] += 1
                if pos[i] < pos[j]:
                    wins[i, j] += 1
    return appear, wins


def brute_force_score(perm: tuple[int, ...], wins: np.ndarray) -> int:
    total = 0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            total += int(wins[perm[a], perm[b]])
    return total


def windowed_oracle(wins_rel: np.ndarray, radius: int) -> tuple[list[int], int]:
    """Max score over sequences with |seq[t] - t| <= radius, lex-smallest winner."""
    n = wins_rel.shape[0]
    best_seq, best_score = None, -1
    for perm in itertools.permutations(range(n)):
        if all(abs(perm[t] - t) <= radius for t in range(n)):
            s = brute_force_score(perm, wins_rel)
            if s > best_score:
                best_seq, best_score = list(perm), s
    assert best_seq is not None
    return best_seq, best_score


def full_mask_dp(wins_rel: np.ndarray, radius: int) -> tuple[list[int], int]:
    """Exact maximizer of the relabeled score over the R-window around identity.

    The reference form of ``mle._dp_window_max``: it sweeps all 2^w window
    masks at every position, reachable or not.

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
            for b in range(w):  # the masks with top bit b are those below 1 << b, each with bit b added
                np.add(ss[: 1 << b], row[b], out=ss[1 << b : 2 << b])
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


def looped_bernoulli_sets(spec: SelectionSpec, r: int, stream: Stream) -> list[tuple[int, ...]]:
    """The bernoulli_random sets of ``generate_selection``, drawn and tested one candidate row at a time.

    Each round draws ``want`` rows of n uniforms from ``stream``, a member
    wherever the top 63 bits of a uniform fall below round(q * 2^63), and
    keeps the rows with at least two members until r are kept.
    """
    n, q = spec.n, spec.inclusion_probability()
    threshold = min(1 << 63, round(q * (1 << 63)))
    sets: list[tuple[int, ...]] = []
    while len(sets) < r:
        want = r - len(sets)
        draws = [int(u) >> 1 for u in u64_array(stream, want * n)]
        for row in range(want):
            members = tuple(i for i in range(n) if draws[row * n + i] < threshold)
            if len(members) >= 2 and len(sets) < r:
                sets.append(members)
    return sets


def tuple_selection_sets(spec: SelectionSpec, r: int, stream: Stream) -> list[tuple[int, ...]]:
    """The sets of ``generate_selection``, built as sorted tuples one set at a time: the reference form.

    Full sets first (every set for complete, ceil(p*r) for mixed_pfrequent
    and adversarial_matching), then pairs cycling in order: all pairs
    lexicographically, or the pairs of every matching but the first.
    bernoulli_random sets come from :func:`looped_bernoulli_sets`.
    """
    if spec.kind == "bernoulli_random":
        return looped_bernoulli_sets(spec, r, stream)
    n = spec.n
    full = tuple(range(n))
    if spec.kind == "complete":
        return [full] * r
    n_full = 0 if spec.kind == "pairwise" else sampling._full_set_count(spec.p, r)
    if spec.kind == "adversarial_matching":
        pairs = [pair for matching in sampling._matchings(n, 2) for pair in matching] or [(0, 1)]
    else:
        pairs = list(itertools.combinations(range(n), 2))
    return [full] * n_full + [tuple(sorted(pairs[i % len(pairs)])) for i in range(r - n_full)]


@lru_cache(maxsize=64)
def insertion_thresholds(m: int, beta: float) -> tuple[np.ndarray, ...]:
    """Frozen 63-bit CDF thresholds for insertion steps 2..m, one table per step.

    Step s (the partial ranking grows to size s) admits displacements
    d = 0..s-1 from the bottom with weight e^{-beta*d}.
    """
    weights = np.exp(-beta * np.arange(m, dtype=np.float64))
    tables = []
    for s in range(2, m + 1):
        cum = np.cumsum(weights[:s])
        thr = np.floor(cum / cum[-1] * (1 << 63)).astype(np.uint64)
        thr[-1] = np.uint64(1 << 63)
        tables.append(thr)
    return tuple(tables)


def insertion_sample(center_items: tuple[int, ...], beta: float, stream: Stream) -> tuple[int, ...]:
    """The reference form of ``sampling.sample_mallows``: one list insert per step.

    Item k of ``center_items`` (k >= 1) goes in at displacement d from the
    bottom, d the number of the step's thresholds at or below the top 63
    bits of the stream's next draw.
    """
    tables = insertion_thresholds(len(center_items), beta)
    draws = u64_array(stream, len(center_items) - 1) >> np.uint64(1)
    out = [center_items[0]]
    for k, item in enumerate(center_items[1:]):
        d = int(np.searchsorted(tables[k], draws[k], side="right"))
        out.insert(len(out) - d, item)
    return tuple(out)


def grouped_sample_rows(keys: np.ndarray, offsets: np.ndarray, restricted: np.ndarray, beta: float, start=0) -> np.ndarray:
    """The reference form of ``sampling._sample_rows``: one insertion pass per row size, each with its own thresholds.

    Item k of a row (k >= 1) goes in at displacement d from the bottom,
    ``searchsorted`` of draw ``start+k`` of ``Stream(key)`` in the step's
    thresholds for the row's size m: at index k - d, the items at or past
    it moving back.
    """
    sizes = np.diff(offsets)
    samples = np.empty_like(restricted)
    for m in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == m)
        tables = insertion_thresholds(m, beta)
        draws = draw_matrix(keys[rows], m - 1, start) >> np.uint64(1)
        pos = np.zeros((len(rows), m), dtype=np.int32)
        for k in range(1, m):
            ins = (k - np.searchsorted(tables[k - 1], draws[:, k - 1], side="right"))[:, None]
            pos[:, :k] += pos[:, :k] >= ins
            pos[:, k : k + 1] = ins
        first = offsets[rows, None]
        samples[first + pos] = restricted[first + np.arange(m)]
    return samples


def looped_sample_profile(params: MallowsParams, selection: SelectionSequence, stream: Stream) -> list[tuple[int, ...]]:
    """The reference form of ``sampling.sample_profile``: set l's restricted center sampled from ``stream.child(l)``."""
    return [
        insertion_sample(restrict(params.center, s).items, params.beta, stream.child(ell))
        for ell, s in enumerate(selection.sets)
    ]


def looped_order_by_scores(raw: list[int], stream: Stream) -> tuple[list[int], list[tuple[int, ...]]]:
    """The reference form of ``estimators._order_by_scores`` on one row; also the tie groups.

    Alternatives by ascending score, each tie group (items ascending)
    shuffled from ``stream`` with :func:`shuffle`, in score order.
    """
    order: list[int] = []
    tie_groups: list[tuple[int, ...]] = []
    by_score: dict[int, list[int]] = {}
    for i, s in enumerate(raw):
        by_score.setdefault(s, []).append(i)
    for s in sorted(by_score):
        group = by_score[s]
        if len(group) > 1:
            tie_groups.append(tuple(group))
            shuffle(stream, group)
        order.extend(group)
    return order, tie_groups


def run_trial(
    n: int,
    beta: float,
    p: float,
    r: int,
    selection_kind: str,
    trial_stream: Stream,
    estimator: str = "posest",
    center: Ranking | None = None,
) -> tuple[Ranking, Ranking]:
    """One protocol trial, object by object; returns (estimate, true center).

    The reference form of ``experiments._cell``: a Fisher-Yates center from
    ``child(0)``, the selection (from ``child(1)`` if it is random), a
    ``sample_profile`` from ``child(2)`` and the public estimator on
    ``child(3)``.
    """
    pi0 = center if center is not None else Ranking(scalar_permutation(trial_stream.child(0), n), validate=False)
    spec = SelectionSpec(kind=selection_kind, n=n, p=p)
    selection = generate_selection(spec, r, trial_stream.child(1) if selection_kind == "bernoulli_random" else None)
    profile = sample_profile(MallowsParams(pi0, beta), selection, trial_stream.child(2))
    stream = trial_stream.child(3)
    if estimator == "posest":
        return positional_estimator(profile, stream).ranking, pi0
    recover = recover_likelier_than_nature if estimator == "ltn" else recover_mle
    return recover(profile, beta, p, stream=stream).result, pi0


def looped_cell(
    root: Stream, trials: range, n: int, beta: float, p: float, r: int, selection_kind: str,
    estimator: str = "posest", center: Ranking | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``experiments._cell`` by one :func:`run_trial` per trial: (estimate, center) item arrays."""
    rows = [run_trial(n, beta, p, r, selection_kind, root.child(t), estimator, center) for t in trials]
    est = np.array([e.items for e, _ in rows], dtype=np.int64).reshape(len(rows), n)
    pi0 = np.array([c.items for _, c in rows], dtype=np.int64).reshape(len(rows), n)
    return est, pi0


def enumerate_window(n: int, radius: int) -> np.ndarray:
    """All sequences with |seq[t] - t| <= radius, lexicographic order."""
    rows = [
        perm
        for perm in itertools.permutations(range(n))
        if all(abs(perm[t] - t) <= radius for t in range(n))
    ]
    return np.array(rows, dtype=np.int64)


def random_incomplete_profile(n: int, r: int, stream: Stream, min_size: int = 2) -> SampleProfile:
    """Uniformly random incomplete rankings over random sets (not Mallows)."""
    sets = []
    rankings = []
    for ell in range(r):
        size = min_size + below(stream, n - min_size + 1)
        members = sorted(stream.permutation(n)[:size])
        order = list(members)
        shuffle(stream, order)
        sets.append(tuple(members))
        rankings.append(Ranking(order))
    return SampleProfile(rankings, SelectionSequence(sets, n))


def widened(profile: SampleProfile, extra: int) -> SampleProfile:
    """The same samples over ``extra`` more alternatives, none of them observed."""
    selection = SelectionSequence(profile.selection.sets, profile.n + extra)
    return SampleProfile(profile.rankings, selection)


def sequential_log_likelihood(pi: Ranking, profile: SampleProfile, beta: float) -> float:
    """Profile log-likelihood summed sample by sample, each distance by merge sort."""
    total = 0.0
    for rk in profile.rankings:
        total -= beta * kendall_tau_incomplete(pi, rk)
        total -= log_partition_function(len(rk.items), beta)
    return total


def pair_scan_coappearance(selection: SelectionSequence) -> np.ndarray:
    """Symmetric co-appearance counts by a scan over every pair of every set."""
    counts = np.zeros((selection.n, selection.n), dtype=np.int64)
    for s in selection:
        for a, b in itertools.combinations(s, 2):
            counts[a, b] += 1
            counts[b, a] += 1
    return counts


_BRUTE_FORCE_LIMIT = 10


@lru_cache(maxsize=8)
def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


# the largest n whose pair indicators are held: 40,320 x 64 float64 (20.6 MB) at n = 8, 2.9 GB at n = 10
_INDICATOR_LIMIT = 8


@lru_cache(maxsize=_INDICATOR_LIMIT)
def _pair_indicators(n: int) -> np.ndarray:
    """Row k, column i * n + j: 1.0 when ranking k of ``_all_permutations(n)`` puts i before j."""
    at = np.argsort(_all_permutations(n), axis=1)
    return (at[:, :, None] < at[:, None, :]).reshape(len(at), n * n).astype(np.float64)


def brute_force_mle(profile: SampleProfile, restrict_to=None) -> Ranking:
    """Exact maximum likelihood ranking by enumeration.

    Enumerates all n! complete rankings (guarded to n <= 10) or the given
    candidate set; ties go to the lexicographically smallest item sequence.
    """
    n = profile.n
    counts = accumulate_counts(profile)
    if restrict_to is None:
        if n > _BRUTE_FORCE_LIMIT:
            raise ValueError(f"brute force over {n}! rankings refused; pass restrict_to or keep n <= {_BRUTE_FORCE_LIMIT}")
        perms = _all_permutations(n)
        if n <= _INDICATOR_LIMIT:  # one product: every score is a small integer sum, exact in float64
            scores = _pair_indicators(n) @ counts.wins.ravel().astype(np.float64)
        else:
            scores = score_permutation_array(perms, counts)
        return Ranking(perms[int(np.argmax(scores))].tolist(), validate=False)
    best: Ranking | None = None
    best_score = -1
    for cand in sorted(restrict_to, key=lambda r: r.items):
        s = score(cand, counts)
        if s > best_score:
            best, best_score = cand, s
    if best is None:
        raise ValueError("empty candidate set")
    return best


def _legacy_ints(text: str) -> tuple[int, ...]:
    """Comma-separated integers; an empty token is an error, an empty text no integers."""
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def legacy_scan(text: str) -> tuple[int, float | None, list[tuple[int, ...]], list[tuple[int, ...] | None]]:
    """The reference form of ``fileio._scan``: every line read as a string, one at a time.

    Tokenize and check every line once; raises FileFormatError listing every error.

    Returns ``(n, beta, sets, rankings)``: the sorted selection set of every
    sample line, and its ranking, or None on a selection-only line.  Every
    invariant the core types check on construction has been checked.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FileFormatError([_err(1, "missing header line")])
    n, r, beta = _parse_header(lines[0])

    errors: list[dict] = []
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != r:
        errors.append(_err(1, f"header declares r={r} but file holds {len(body)} sample lines"))
    sets: list[tuple[int, ...]] = []
    rankings: list[tuple[int, ...] | None] = []
    for line_no, raw in enumerate(body, start=2):
        part = raw.strip()
        if not part.startswith("S:"):
            errors.append(_err(line_no, "sample line must start with 'S:'"))
            continue
        payload = part[2:]
        s_text, has_ranking, r_text = payload.partition("|R:")
        try:
            s_items = _legacy_ints(s_text)
        except ValueError:
            errors.append(_err(line_no, f"unparseable selection set {s_text!r}"))
            continue
        s_sorted = tuple(sorted(s_items))
        if len(set(s_sorted)) != len(s_sorted):
            dup = sorted({x for x in s_items if s_items.count(x) > 1})
            errors.append(_err(line_no, f"duplicate alternative {dup[0]} in selection set", item=dup[0]))
            continue
        if len(s_sorted) < 2:
            errors.append(_err(line_no, "selection set needs at least two alternatives"))
            continue
        if s_sorted[0] < 0 or s_sorted[-1] >= n:
            bad = [x for x in s_items if x < 0 or x >= n]
            errors.append(_err(line_no, f"alternative {bad[0]} outside [0, {n})", item=bad[0]))
            continue
        sets.append(s_sorted)
        if not has_ranking:
            rankings.append(None)
            continue
        try:
            r_items = _legacy_ints(r_text)
        except ValueError:
            errors.append(_err(line_no, f"unparseable ranking {r_text!r}"))
            continue
        if len(set(r_items)) != len(r_items):
            dup = sorted({x for x in r_items if r_items.count(x) > 1})
            errors.append(_err(line_no, f"duplicate alternative {dup[0]} in ranking", item=dup[0]))
            continue
        if tuple(sorted(r_items)) != s_sorted:
            errors.append(_err(line_no, "ranking is not a permutation of its selection set"))
            continue
        rankings.append(r_items)
    if errors:
        raise FileFormatError(errors)
    return n, beta, sets, rankings


def exact_pair_flip_probability(beta: float) -> float:
    return math.exp(-beta) / (1.0 + math.exp(-beta))


def argmax_set(values, keys) -> set:
    best = max(values)
    return {k for v, k in zip(values, keys) if v == best}


def mallows_pmf(center: Ranking, beta: float) -> dict[tuple[int, ...], float]:
    """Exact Mallows probabilities for every permutation of a small item set."""
    from itertools import permutations

    from mallows_select.core import kendall_tau, partition_function

    m = len(center)
    if m > 8:
        raise ValueError("exact pmf is limited to 8 alternatives")
    z = partition_function(m, beta)
    out = {}
    for perm in permutations(center.items):
        d = kendall_tau(center, Ranking(perm, validate=False))
        out[perm] = math.exp(-beta * d) / z
    return out


def total_distance(pi: Ranking, profile: SampleProfile) -> int:
    """Sum of generalized Kendall tau distances from ``pi`` to every sample."""
    return sum(kendall_tau_incomplete(pi, rk) for rk in profile.rankings)


def exact_two_item_success(r: int, beta: float) -> float:
    """Closed-form exact-recovery probability for n = 2 and r complete samples.

    The correct order wins each sample with probability 1/(1+e^{-beta});
    recovery succeeds on a strict majority and on half the exact splits.
    """
    q = 1.0 / (1.0 + math.exp(-beta))
    pmf = [math.comb(r, w) * q**w * (1 - q) ** (r - w) for w in range(r + 1)]
    success = sum(pmf[w] for w in range(r + 1) if 2 * w > r)
    if r % 2 == 0:
        success += 0.5 * pmf[r // 2]
    return success


def linear_fit(xs, ys) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, intercept, r_squared)."""
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(((y - pred) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def bootstrap_mean_diff_lower(a, b, stream: Stream, level: float = 0.99, reps: int = 2000) -> float:
    """One-sided lower confidence bound for mean(a) - mean(b) by bootstrap."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    idx_a = _bounded_draws(stream, len(a), reps * len(a)).reshape(reps, len(a))
    idx_b = _bounded_draws(stream, len(b), reps * len(b)).reshape(reps, len(b))
    diffs = a[idx_a].mean(axis=1) - b[idx_b].mean(axis=1)
    return float(np.quantile(diffs, 1.0 - level))


def _bounded_draws(stream: Stream, bound: int, count: int) -> np.ndarray:
    # 32-bit multiply-shift keeps everything in uint64; bias < bound/2^32
    u = u64_array(stream, count) >> np.uint64(32)
    return ((u * np.uint64(bound)) >> np.uint64(32)).astype(np.int64)
