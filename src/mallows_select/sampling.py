"""Exact sampling from selective Mallows distributions and selection generators.

Every sample comes from one repeated-insertion routine,
:func:`_sample_rows`: the items of the restricted central ranking are
inserted one by one, the t-th item going at displacement d from the
bottom of the partial ranking with probability proportional to
e^{-beta*d}.  Each insertion at displacement d adds exactly d discordant
pairs against the center, so the product of the step weights reproduces
e^{-beta*d_KT} / Z exactly.  The routine draws the samples of all its
rows as arrays, each from its own keyed stream, so :func:`sample_mallows`
(one row), :func:`sample_profile` (a row per set) and the experiment
kernel (a row per set of every trial) make the same draws.  A step's
weights depend on the step and beta only, never on the set size, so the
routine steps padded rows of every size, sorted by size, with no group
per size, in chunks within ``core._BLOCK_BYTES``, the working budget it
shares with the pair count; where the C row kernels of ``core`` loaded,
they run the rows one by one with the same thresholds and draws.

Selections, profiles, files and the experiment kernel hold their sets and
samples as CSR rows, and :func:`generate_selection` builds them as such;
the kernels that count the rows' pairs live in ``core``.

Insertion decisions are integer-only: the cumulative weights are summed
once per call in double precision, each step's prefix is frozen to 63-bit
integer thresholds as the step runs, and the thresholds are compared
against 63-bit uniform draws.  The ~1e-16 distortion of the frozen
thresholds is far below every statistical tolerance in this package, and
it buys bit-identical profiles across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, combinations_with_replacement, cycle, islice

import numpy as np

from . import core
from .core import _MAX_N, MallowsParams, Ranking, SampleProfile, SelectionSequence, _pair_counts, check_beta
from .rng import Stream, draw_matrix

_SCALE_BITS = 63
_SCALE = 1 << _SCALE_BITS

# a bernoulli_random spec whose rejection loop is expected to consume more
# uniforms than this is refused: the loop has no other bound
_MAX_BERNOULLI_UNIFORMS = 1 << 30


class InfeasibleSpecError(ValueError):
    """Raised when a selection spec cannot produce a valid sequence."""


@dataclass(frozen=True)
class SelectionSpec:
    """Recipe for generating a selection sequence.

    kind:
      complete             every set is {0,...,n-1}
      pairwise             sets cycle over all C(n,2) pairs in lexicographic order
      mixed_pfrequent      ceil(p*r) full sets plus pairs cycling lexicographically;
                           the full sets alone guarantee p-frequency
      bernoulli_random     each alternative enters each set independently with
                           probability q (default sqrt(p), so each pair co-appears
                           with probability >= p); sets with < 2 elements are redrawn,
                           and a spec expected to need over 2^30 uniforms is refused
      adversarial_matching ceil(p*r) full sets plus pairs drawn from the non-starved
                           perfect matchings, leaving the pairs of the first matching
                           observed only in the full sets
    """

    kind: str
    n: int
    p: float = 1.0
    q: float | None = None

    _KINDS = ("complete", "pairwise", "mixed_pfrequent", "bernoulli_random", "adversarial_matching")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InfeasibleSpecError(f"unknown selection kind {self.kind!r}")
        if self.n < 2:
            raise InfeasibleSpecError("selection specs require n >= 2")
        if self.n > _MAX_N:
            raise InfeasibleSpecError(f"n={self.n} is over the limit of {_MAX_N} alternatives")
        if not (0.0 < self.p <= 1.0):
            raise InfeasibleSpecError("frequency parameter p must lie in (0, 1]")
        if self.kind == "bernoulli_random":
            q = math.sqrt(self.p) if self.q is None else self.q
            if not (0.0 < q <= 1.0):
                raise InfeasibleSpecError("inclusion probability q must lie in (0, 1]")
            if q * q < self.p - 1e-12:
                raise InfeasibleSpecError("bernoulli_random requires q^2 >= p so every pair co-appears with probability >= p")

    def inclusion_probability(self) -> float:
        return math.sqrt(self.p) if self.q is None else self.q


def _matchings(n: int, first: int):
    """Edge-disjoint perfect matchings ``first`` .. n/2 of those covering every {even, odd} pair, built as consumed.

    Matching t (1-based, t = 1..n/2) pairs alternative 2k with
    (2k + 2t - 1) mod n.  Requires even n.  The first matching is
    {(0,1), (2,3), ..., (n-2, n-1)}.
    """
    if n % 2 != 0:
        raise InfeasibleSpecError("perfect matchings require an even number of alternatives")
    return ([(2 * k, (2 * k + 2 * t - 1) % n) for k in range(n // 2)] for t in range(first, n // 2 + 1))


def _full_set_count(p: float, r: int) -> int:
    # ceil(p*r) with a guard against float noise like 0.2*5 -> 1.0000000000000002
    return min(r, max(1, math.ceil(p * r - 1e-9)))


def generate_selection(spec: SelectionSpec, r: int, stream: Stream | None = None) -> SelectionSequence:
    """Generate a selection sequence of length ``r`` following ``spec``.

    Only ``bernoulli_random`` consumes randomness; the other kinds are
    deterministic in (spec, r).
    """
    if r < 1:
        raise InfeasibleSpecError("selection sequences must contain at least one set")
    n = spec.n

    if spec.kind == "bernoulli_random":
        if stream is None:
            raise ValueError("bernoulli_random selection requires a stream")
        threshold, kernels = _bernoulli_threshold(spec, r), core._row_kernels()
        # row-major: rows in order, each row's items ascending, in arrays that own their bytes, as the C kernels read them
        if kernels is not None:  # the rows of _bernoulli_members and its counter, drawn and written by one C pass
            offsets, items, order = np.empty(r + 1, np.int64), np.empty(r * n, np.int64), np.arange(n, dtype=np.int64)
            args = (order.ctypes.data, offsets.ctypes.data, items.ctypes.data)
            stream._ctr = kernels.bernoulli_rows(n, r, stream.key, stream._ctr, threshold, *args)
            return SelectionSequence._from_arrays(n, offsets, items[: offsets[-1]].copy())
        members, used = _bernoulli_members(np.array([stream.key], dtype=np.uint64), n, r, threshold, stream._ctr)
        (row, items), stream._ctr = np.divmod(np.flatnonzero(members[0]), n), int(used[0])
        return SelectionSequence._from_arrays(n, np.searchsorted(row, np.arange(r + 1)), items)

    # the deterministic kinds: n_full full sets, then pairs, valid by construction
    n_full = r if spec.kind == "complete" else 0 if spec.kind == "pairwise" else _full_set_count(spec.p, r)
    if spec.kind != "adversarial_matching":
        pairs = combinations(range(n), 2)
    elif n > 2:  # the matchings other than the starved first one, whose pairs co-appear only in the full sets
        pairs = chain.from_iterable(_matchings(n, 2))
    else:  # n == 2: the single pair is all there is
        pairs = [(0, 1)]
    # cycle keeps only the pairs it has yielded, so at most r of them are built
    pair_items = np.fromiter(chain.from_iterable(islice(cycle(pairs), r - n_full)), dtype=np.int64, count=2 * (r - n_full))
    # sorting each pair stores a wrapped matching pair such as (6, 1) as the set (1, 6)
    items = np.concatenate((np.tile(np.arange(n), n_full), np.sort(pair_items.reshape(-1, 2), axis=1).ravel()))
    offsets = np.concatenate((np.arange(n_full) * n, n_full * n + 2 * np.arange(r - n_full + 1)))
    return SelectionSequence._from_arrays(n, offsets, items)


def _bernoulli_acceptance(n: int, q: float) -> float:
    """The chance that a bernoulli_random candidate of n items, each in with chance q, has two members or more."""
    return 1.0 - (1.0 - q) ** n - n * q * (1.0 - q) ** (n - 1)


def _bernoulli_threshold(spec: SelectionSpec, r: int) -> np.uint64:
    """The 63-bit membership threshold of a bernoulli_random spec, once its rejection loop is known to be bounded."""
    n, q = spec.n, spec.inclusion_probability()
    accept = _bernoulli_acceptance(n, q)
    uniforms = r * n / accept if accept > 0 else math.inf
    if uniforms > _MAX_BERNOULLI_UNIFORMS:
        raise InfeasibleSpecError(
            f"bernoulli_random with n={n}, q={q:g} accepts a set with probability {accept:.3g}; "
            f"{r} sets would take about {uniforms:.3g} uniforms, over the limit of 2^30"
        )
    return np.uint64(min(_SCALE, round(q * _SCALE)))


def _bernoulli_members(
    keys: np.ndarray, n: int, r: int, threshold: np.uint64, start: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """The bernoulli_random sets of every stream ``Stream(key, start)``, as membership masks of shape (len(keys), r, n).

    Each stream draws rounds of ``want`` candidate rows of n uniforms, a
    member wherever the uniform's top 63 bits fall below ``threshold``, and
    keeps, in draw order, the rows with at least two members, until it holds
    r of them.  Also returns each stream's counter after its last round.
    """
    out = np.empty((len(keys), r, n), dtype=bool)
    done = np.zeros(len(keys), dtype=np.int64)
    used = np.full(len(keys), start, dtype=np.uint64)
    active = np.arange(len(keys))
    while active.size:
        want = r - done[active]
        w = int(want.max())
        draws = draw_matrix(keys[active], w * n, start=used[active])
        draws >>= np.uint64(1)
        member = (draws < threshold).reshape(len(active), w, n)
        ok = (member.sum(axis=2) >= 2) & (np.arange(w) < want[:, None])  # rows past a stream's want were never drawn
        rank = ok.cumsum(axis=1) - 1
        t, row = np.nonzero(ok)
        out[active[t], done[active][t] + rank[t, row]] = member[t, row]
        done[active] += rank[:, -1] + 1
        used[active] += want.astype(np.uint64) * np.uint64(n)
        active = active[done[active] < r]
    return out, used


@dataclass(frozen=True)
class PFrequencyReport:
    """Result of a p-frequency audit of a selection sequence."""

    ok: bool
    min_pair_fraction: float
    counts: np.ndarray  # n x n symmetric co-appearance counts, zero diagonal

    def worst_pairs(self) -> list[tuple[int, int]]:
        n = len(self.counts)
        upper = np.arange(n)[:, None] < np.arange(n)  # its entries run row-major, as triu_indices
        a, b = np.nonzero(upper & (self.counts == self.counts[upper].min()))
        return list(zip(a.tolist(), b.tolist()))


def _check_frequency(p: float) -> None:
    if not (0.0 < p <= 1.0):
        raise ValueError(f"frequency parameter p must lie in (0, 1], got {p}")


def verify_p_frequent(selection: SelectionSequence, p: float) -> PFrequencyReport:
    """Check that every pair co-appears in at least a p fraction of the sets."""
    _check_frequency(p)
    n, r = selection.n, len(selection)
    if r == 0:
        raise ValueError("cannot audit an empty selection sequence")
    counts, low = _pair_counts(n, selection.offsets, selection.items)[0], r
    # counts += counts.T by square blocks, reading the lowest pair count: numpy would copy the overlapping transpose
    step = max(2, min(math.isqrt(core._BLOCK_BYTES // 8), n // 4))
    for a, b in combinations_with_replacement(range(0, n, step), 2):
        block = counts[a : a + step, b : b + step] + counts[b : b + step, a : a + step].T
        counts[a : a + step, b : b + step], counts[b : b + step, a : a + step] = block, block.T
        low = min(low, int(np.min(block, initial=r, where=a < b or ~np.eye(len(block), dtype=bool))))
    return PFrequencyReport(ok=low / r >= p - 1e-12, min_pair_fraction=low / r, counts=counts)


def _insertion_weights(beta: float, width: int) -> tuple[np.ndarray, np.ndarray]:
    """``cum[k]``, the sum of e^{-beta*d} over d = 0..k, for k < ``width``, and ``cum * 2^63``: the same at any width."""
    cum = np.cumsum(np.exp(-beta * np.arange(width, dtype=np.float64)))
    return cum, cum * _SCALE  # exact: a power of two, which commutes with the rounding of a threshold's division


def _sample_rows(
    keys: np.ndarray, offsets: np.ndarray, restricted: np.ndarray, beta: float, start: int = 0
) -> np.ndarray:
    """One sample per CSR row by repeated insertion, in one pass over rows of every size.

    Row l of ``restricted`` (``restricted[offsets[l]:offsets[l+1]]``, at
    least one item) is a restricted center, top first; its sample holds
    each of those items at its drawn rank.  Item k of a row (k >= 1) goes in
    at displacement d from the bottom, ``searchsorted`` of draw
    ``start+k`` of ``Stream(keys[l])`` in step k's thresholds: at index
    k - d, the items at or past it moving back.  Step k admits
    displacements d = 0..k with weight e^{-beta*d}, its thresholds the
    cumulative weights frozen to 63 bits, so they do not depend on the
    row's size, and one cumulative sum serves every step of every row.

    The C kernel of ``core`` runs the rows one by one when it loaded, an
    insertion a galloping search in the same thresholds and a shift.
    The numpy form runs the rows sorted by size, largest first, so the rows
    that step k moves (those with m > k) are a prefix: a chunk takes max
    m - 1 steps over one padded matrix of draws and one of positions.  It
    holds what fits in ``core._BLOCK_BYTES`` at 16 bytes a padded cell and
    48 a row (more only when one row needs more) and ends at the first row
    half its widest or smaller, so padding at most doubles its cells, and
    the memory grows with the total row size, never with rows times n.
    """
    sizes = np.diff(offsets)
    cum, scaled = _insertion_weights(beta, int(sizes.max(initial=0)))
    samples = np.empty(len(restricted), dtype=np.int64)
    kernels = core._row_kernels()
    if kernels is not None:
        offsets, restricted = core._checked_csr(offsets, restricted)
        keys = np.ascontiguousarray(keys, np.uint64)
        if len(keys) != len(sizes):
            raise ValueError(f"{len(sizes)} rows need as many stream keys, got {len(keys)}")
        kernels.sample_rows(
            len(sizes), keys.ctypes.data, offsets.ctypes.data, restricted.ctypes.data,
            cum.ctypes.data, scaled.ctypes.data, start, samples.ctypes.data,
        )
        return samples
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    lo = 0
    while lo < len(order):
        # a chunk's bytes beyond its output: 16 a padded cell, its uint64 draws and the copy their mix shifts (the
        # draws and the int32 positions hold 12 as it steps); and 48 a row, its size twice while the chunk is cut
        # (16), then its first item and a scatter step's two item indices and item (32), all int64
        m = sizes[lo : lo + max(1, core._BLOCK_BYTES // (16 * int(sizes[lo]) + 48))]  # descending
        m = m[2 * m > m[0]]  # padding at most doubles the chunk's cells
        rows, width = order[lo : lo + len(m)], int(m[0])
        lo += len(m)
        # u[i, k-1]: the draw of item k of row i, its stream's draw start + k
        u = draw_matrix(keys[rows], width - 1, start)
        u >>= np.uint64(1)
        live = np.searchsorted(-m, -np.arange(width), side="left")  # live[k]: the rows with m > k, a prefix
        # pos[k, i]: the rank of item k of row i.  A step updates pos[:k, :moved], fastest along a contiguous run,
        # so the rows are contiguous when the middle step still moves as many rows as it has items before it.
        rows_contiguous = live[width // 2] >= width // 2
        pos = np.zeros((width, len(m)), np.int32) if rows_contiguous else np.zeros((len(m), width), np.int32).T
        for k, moved in enumerate(live[1:].tolist(), 1):
            ins = pos[k, :moved]
            # floor(cum[:k+1] / cum[k] * 2^63), as the cast truncates these nonnegative values; the last is 2^63
            thr = (scaled[: k + 1] / cum[k]).astype(np.uint64)
            np.subtract(k, np.searchsorted(thr, u[:moved, k - 1], side="right"), out=ins, casting="unsafe")
            head = pos[:k, :moved]
            head += head >= ins
        first = offsets[rows]
        for k, moved in enumerate(live.tolist()):  # a step at a time, so no index array is as large as the chunk
            samples[first[:moved] + pos[k, :moved]] = restricted[first[:moved] + k]
    return samples


def sample_mallows(center: Ranking, beta: float, stream: Stream) -> Ranking:
    """Draw one ranking of center's item set, Mallows-distributed around it."""
    beta = check_beta(beta)
    m = len(center)
    if m == 0:
        raise ValueError("cannot sample a ranking of an empty set")
    keys, offsets = np.array([stream.key], dtype=np.uint64), np.array([0, m])
    sample = _sample_rows(keys, offsets, np.array(center.items), beta, start=stream._ctr)
    stream._ctr += m - 1
    return Ranking(sample.tolist(), validate=False)


def sample_profile(params: MallowsParams, selection: SelectionSequence, stream: Stream) -> SampleProfile:
    """Draw one independent Mallows sample per selection set.

    Position ``l`` of the profile is sampled from ``stream.child(l)``, so
    the result is identical whether positions are drawn sequentially or
    in parallel, and equals calling :func:`sample_mallows` position by
    position with those child streams.  Each set's restricted center comes
    from a bitmap over center positions in C, or from one numpy sort.
    """
    if selection.n != params.n:
        raise ValueError("selection sequence and parameters disagree on n")
    r, n, offsets, items = len(selection), params.n, selection.offsets, selection.items
    center = np.array(params.center.items, dtype=np.int64)
    at, kernels = np.argsort(center), core._row_kernels()  # at[i]: the center position of item i
    if kernels is None:  # sorting row * n + center position puts every set in center order, row after row
        restricted = center[np.sort(np.repeat(np.arange(r) * n, np.diff(offsets)) + at[items]) % n]
    else:  # each set's center positions marked in a bitmap and read back in order
        offsets, items = core._checked_csr(offsets, items)
        restricted, bits = np.empty(len(items), np.int64), np.zeros((n + 63) // 64, np.uint64)
        if kernels.center_rows(n, r, *(a.ctypes.data for a in (offsets, items, center, at, bits, restricted))):
            raise IndexError(f"a set holds an item outside [0, {n}) or a duplicate")
    samples = _sample_rows(stream.child_keys(r), offsets, restricted, params.beta)
    return SampleProfile._from_arrays(selection, samples)
